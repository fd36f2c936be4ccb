import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import loggamma

from relsingosc import oscillator, planewaves, quadrature
from relsingosc.operators import AnalyticFunction, compose, multiply_by, op_sum, shift, sinh_shift, cosh_shift
from relsingosc.oscillator import (
    RHO_SAMPLES,
    InvalidParametersError,
    ModelParams,
    derive_params,
    eigen_residual,
    energy,
    hamiltonian_radial_N,
    hamiltonian_reduced,
    nonrel_energy,
    quasipotential_op,
    quasipotential_scaled,
    radial_wavefunction,
)
from relsingosc.quadrature import gram_matrix, integrate_halfline
from relsingosc.oscillator import state_decay_hint
from relsingosc.specfun import CdhParams, cdh_log_norm, cdh_norm, cdh_poly

# frozen high-precision values for (N=3, l=1, omega0=0.1, g0=1):
# 40-digit evaluation of the alpha/nu/energy formulas
EX3 = ModelParams(N=3, l=1, omega0=0.1, g0=1.0)
EX3_ALPHA = 2.603388468743137
EX3_NU = 10.301824164386872
EX3_E0 = 1.290521263313001


def test_derive_params_free_case():
    for om0 in (0.05, 0.3, 1.0):
        d = derive_params(ModelParams(N=3, l=0, omega0=om0, g0=0.0))
        assert d.L == 0.0
        assert d.D == pytest.approx(1.0)
        assert d.alpha == pytest.approx(1.0, abs=1e-14)


def test_derive_params_degenerate_discriminant():
    om0, N, l = 0.25, 5, 1
    L = l + (N - 3) / 2
    g0 = (1 - 4 * om0 ** 2 * L * (L + 1)) / (8 * om0 ** 2)
    d = derive_params(ModelParams(N=N, l=l, omega0=om0, g0=g0))
    assert d.D == pytest.approx(0.0, abs=1e-12)
    expect = 0.5 + 0.5 * np.sqrt(1 + 2 / om0 ** 2)
    assert d.alpha == pytest.approx(expect, rel=1e-12)
    assert d.nu == pytest.approx(expect, rel=1e-12)


def test_derive_params_example_point():
    d = derive_params(EX3)
    assert d.L == 1.0
    assert d.D == pytest.approx(0.84, abs=1e-14)
    assert d.alpha == pytest.approx(EX3_ALPHA, rel=1e-13)
    assert d.nu == pytest.approx(EX3_NU, rel=1e-13)
    assert d.s == pytest.approx((EX3_ALPHA + EX3_NU) / 2, rel=1e-13)


@pytest.mark.parametrize("omega0", [1e-4, 1e-3, 0.05, 0.2])
def test_alpha_matches_50_digit_reference(omega0):
    # 1 - sqrt(D) cancels as omega0 -> 0; the float alpha must not inherit it
    mpmath = pytest.importorskip("mpmath")
    p = ModelParams(N=3, l=1, omega0=omega0, g0=1.0)
    with mpmath.workdps(50):
        w2, L, g0 = mpmath.mpf(omega0) ** 2, mpmath.mpf(p.L), mpmath.mpf(p.g0)
        D = 1 - 8 * g0 * w2 - 4 * w2 * L * (L + 1)
        want = float(mpmath.mpf(1) / 2 + mpmath.sqrt(1 + (2 / w2) * (1 - mpmath.sqrt(D))) / 2)
    assert abs(derive_params(p).alpha - want) <= 2 * np.spacing(want)


def test_derive_params_rejects_collapse_regime():
    with pytest.raises(InvalidParametersError) as exc:
        derive_params(ModelParams(N=3, l=2, omega0=1.0, g0=1.0))
    assert "discriminant" in str(exc.value)


def test_model_params_validation():
    with pytest.raises(InvalidParametersError):
        ModelParams(N=1, l=1, omega0=0.1, g0=0.0)
    with pytest.raises(InvalidParametersError):
        ModelParams(N=3, l=0, omega0=0.0, g0=0.0)
    with pytest.raises(InvalidParametersError):
        ModelParams(N=0, l=0, omega0=0.1, g0=0.0)
    # low-dimensional special cases are accepted
    assert ModelParams(N=1, l=0, omega0=0.2, g0=0.5).L == -1.0
    assert ModelParams(N=2, l=0, omega0=0.2, g0=0.5).L == -0.5


def test_energy_spacing_and_example():
    d = derive_params(EX3)
    assert energy(0, d, EX3.omega0) == pytest.approx(0.1 * (d.alpha + d.nu))
    assert energy(0, d, EX3.omega0) == pytest.approx(EX3_E0, rel=1e-13)
    for n in range(5):
        gap = energy(n + 1, d, EX3.omega0) - energy(n, d, EX3.omega0)
        assert gap == pytest.approx(2 * EX3.omega0, rel=1e-14)


def test_nonrel_energy_values():
    assert nonrel_energy(0, 0.0, 0.0) == pytest.approx(1.5)
    assert nonrel_energy(2, 0.0, 0.0) == pytest.approx(5.5)
    # frozen: 2n + 1 + sqrt(1/4 + 3)
    assert nonrel_energy(0, 0.0, 1.5) == pytest.approx(2.802775637731995, rel=1e-14)
    with pytest.raises(InvalidParametersError):
        nonrel_energy(0, 0.0, -1.0)


def test_nonrel_spectrum_limit_slope():
    omegas = (0.1, 0.05, 0.025)
    devs = []
    for om0 in omegas:
        p = ModelParams(N=3, l=1, omega0=om0, g0=1.0)
        d = derive_params(p)
        devs.append(abs((energy(0, d, om0) - 1.0) / om0 - nonrel_energy(0, d.L, p.g0)))
    slope = np.polyfit(np.log(omegas), np.log(devs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.3)


def test_wavefunction_vanishes_at_origin_and_unit_norm():
    st = radial_wavefunction(EX3, 0)
    assert st.fn(0.0) == 0.0
    vals = np.abs(st.fn(np.array([1e-8, 1e-6])))
    assert np.all(vals < 1e-5)
    hint = state_decay_hint(st.derived, 0)
    norm, _ = integrate_halfline(lambda r: np.abs(st.fn(r)) ** 2, hint)
    assert norm == pytest.approx(1.0, abs=1e-8)


# points of the eval-states domain: N <= 8, l <= 2, omega0 in [0.05, 1], g0 in [0.1, 1]
DOMAIN_POINTS = (
    ModelParams(N=2, l=0, omega0=1.0, g0=0.1),
    ModelParams(N=3, l=1, omega0=0.1, g0=1.0),
    ModelParams(N=5, l=0, omega0=0.1, g0=0.5),
    ModelParams(N=8, l=2, omega0=0.05, g0=1.0),
)


def _profile(p, n, d):
    """The unnormalized profile (-rho)^(alpha) omega0^(i rho) Gamma(nu + i rho) S_n(rho^2),
    with the float hypergeometric sum cdh_poly: a formula that shares no
    code with the recurrence of the states."""
    def ev(rho):
        r = np.asarray(rho, dtype=complex)
        gam = np.exp(loggamma(1j * r + d.alpha) - loggamma(1j * r) + loggamma(d.nu + 1j * r))
        return np.exp(0.5j * np.pi * d.alpha) * gam * p.omega0 ** (1j * r) * cdh_poly(n, r ** 2, d.cdh)
    return ev


def test_norm_const_matches_independent_quadrature():
    # the closed form sqrt(2 / h_n) against a half-line quadrature of the
    # float-sum profile, which stays the reference
    for p in DOMAIN_POINTS:
        d = derive_params(p)
        for n in range(6):
            profile = _profile(p, n, d)
            raw_sq, _ = integrate_halfline(lambda r: np.abs(profile(r)) ** 2,
                                           state_decay_hint(d, n))
            closed = np.sqrt(2.0 / cdh_norm(n, CdhParams(d.alpha, d.nu, 0.5)))
            assert closed == pytest.approx(1.0 / np.sqrt(raw_sq), rel=1e-10), (p, n)
            assert radial_wavefunction(p, n).norm_const == closed


def _sum_rounding(n, d, xsq):
    """(n + 2) eps (a+b)_n (a+c)_n sum_k |t_k|: a bound on the rounding error of
    the float sum S_n = (a+b)_n (a+c)_n sum_k t_k, whose terms cancel."""
    a, b, c = d.alpha, d.nu, 0.5
    term, mass = np.ones_like(xsq), np.zeros(np.shape(xsq))
    for k in range(n + 1):
        mass += np.abs(term)
        term = term * ((k - n) * ((a + k) ** 2 + xsq)) / ((a + b + k) * (a + c + k) * (k + 1))
    pref = math.prod((a + b + j) * (a + c + j) for j in range(n))
    return (n + 2) * np.finfo(float).eps * pref * mass


@pytest.mark.parametrize("point", [(3, 1, 0.2, 1.0), (2, 0, 0.05, 0.1), (8, 2, 0.05, 1.0)])
def test_basis_rows_match_the_hypergeometric_sum(point):
    # the recurrence against the float 3F2 sum, within 1e-12 of max |R_n| plus
    # the rounding bound of the sum itself, which cancels as n grows
    p = ModelParams(*point)
    d = derive_params(p)
    real = np.asarray(RHO_SAMPLES)
    z = np.concatenate([real, real + 2j, real - 1j])
    rows = oscillator.radial_basis(p, 10).fn(z)
    for n in range(11):
        want = np.sqrt(2.0 / cdh_norm(n, d.cdh)) * _profile(p, n, d)(z)
        sum_error = np.abs(want / cdh_poly(n, z ** 2, d.cdh)) * _sum_rounding(n, d, z ** 2)
        assert np.all(np.abs(rows[n] - want) <= 1e-12 * np.max(np.abs(want)) + sum_error), n


def test_radial_wavefunction_needs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called")

    for name in ("integrate_halfline", "gram_matrix", "halfline_rule"):
        monkeypatch.setattr(quadrature, name, refuse)
        monkeypatch.setattr(oscillator, name, refuse, raising=False)
    for n in range(4):
        st = radial_wavefunction(EX3, n)
        assert np.all(np.isfinite(st.fn(np.asarray(RHO_SAMPLES))))


def _mp_state(n, d, omega0, rho):
    """R_n at complex rho from the terminating 3F2 sum and the closed-form norm,
    at the working precision of mpmath."""
    a, nu, c = mpmath.mpf(d.alpha), mpmath.mpf(d.nu), mpmath.mpf(0.5)
    total, term = 0, mpmath.mpf(1)
    for k in range(n + 1):
        total += term
        term *= -(n - k) * ((a + k) ** 2 + rho ** 2) / ((a + nu + k) * (a + c + k) * (k + 1))
    S = mpmath.rf(a + nu, n) * mpmath.rf(a + c, n) * total
    h = (mpmath.gamma(n + a + nu) * mpmath.gamma(n + a + c) * mpmath.gamma(n + nu + c)
         * mpmath.factorial(n))
    degree = mpmath.exp(1j * mpmath.pi * a / 2) * mpmath.gamma(1j * rho + a) / mpmath.gamma(1j * rho)
    return (mpmath.sqrt(2 / h) * degree * mpmath.power(mpmath.mpf(omega0), 1j * rho)
            * mpmath.gamma(nu + 1j * rho) * S)


@pytest.mark.parametrize("omega0", [0.2, 0.01])
@pytest.mark.parametrize("n", [5, 20, 40])
def test_basis_rows_match_60_digit_states(n, omega0):
    # at the real samples, stretched with the width of the states, and at
    # the shifted points rho + i tau where the operators read them
    p = ModelParams(N=3, l=1, omega0=omega0, g0=1.0)
    d = derive_params(p)
    real = np.array([0.3, 1.0, 5.0, 10.0, 20.0]) * np.sqrt(0.2 / omega0)
    z = np.concatenate([real, real + 2j, real - 1j])
    got = oscillator.radial_basis(p, n).fn(z)[n]
    with mpmath.workdps(60):
        want = np.array([complex(_mp_state(n, d, omega0, mpmath.mpc(v.real, v.imag)))
                         for v in z])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega0", [0.008, 0.0107])
def test_states_where_h_n_overflows_are_unit_norm_and_match_mpmath(omega0):
    # h_0 overflows a float at omega0 = 0.008 and h_3 at 0.0107; the states
    # take only log h_0, so they stay finite, normalized and right
    p = ModelParams(N=3, l=1, omega0=omega0, g0=1.0)
    d = derive_params(p)
    pts = np.array([0.3, 2.0, 10.0, 30.0, 60.0])
    rows = oscillator.radial_basis(p, 5).fn(pts)
    for n in (0, 3, 5):
        st = radial_wavefunction(p, n)
        norm, _ = integrate_halfline(lambda r: np.abs(st.fn(r)) ** 2, state_decay_hint(d, n))
        assert norm == pytest.approx(1.0, abs=1e-10), n
        got = st.fn(pts)
        np.testing.assert_array_equal(got, rows[n])
        with mpmath.workdps(60):
            want = np.array([complex(_mp_state(n, d, omega0, mpmath.mpf(v))) for v in pts])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), n


def test_overflowing_norm_raises():
    # h_0 overflows at omega0 = 0.008 (nu ~ 125): cdh_norm raises, but the
    # state is neither rejected nor returned as R = 0
    p = ModelParams(N=3, l=1, omega0=0.008, g0=1.0)
    with pytest.raises(OverflowError):
        cdh_norm(0, derive_params(p).cdh)
    vals = radial_wavefunction(p, 0).fn(np.array([0.3, 2.0, 10.0, 30.0]))
    assert np.all(np.isfinite(vals))
    assert np.all(np.abs(vals) > 0)


@pytest.mark.filterwarnings("error")
def test_overflowing_norm_raises_without_warning():
    # the overflow is seen in log space: no RuntimeWarning comes with the
    # raise of cdh_norm, and norm_constant is sqrt(2 / h_0) all the same
    d = derive_params(ModelParams(N=3, l=1, omega0=0.008, g0=1.0))
    with pytest.raises(OverflowError):
        cdh_norm(0, d.cdh)
    a, nu, c = mpmath.mpf(d.alpha), mpmath.mpf(d.nu), mpmath.mpf(0.5)
    with mpmath.workdps(40):
        want = mpmath.sqrt(2 / (mpmath.gamma(a + nu) * mpmath.gamma(a + c) * mpmath.gamma(nu + c)))
    assert oscillator.norm_constant(0, d) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_states_vanish_at_the_origin():
    # the pole mask of the generalized degree makes R_n(0) exactly 0, also
    # where h_n overflows and as a row of the basis
    for omega0 in (0.2, 0.01):
        p = ModelParams(N=3, l=1, omega0=omega0, g0=1.0)
        assert np.all(oscillator.radial_basis(p, 6).fn(np.zeros(2)) == 0)
        for n in (0, 4):
            assert radial_wavefunction(p, n).fn(0.0) == 0


def test_gram_matrix_identity():
    states = [radial_wavefunction(EX3, n) for n in range(6)]
    hint = state_decay_hint(states[0].derived, 5)
    G, est = gram_matrix([s.fn for s in states], hint)
    assert np.max(np.abs(G - np.eye(6))) < 1e-6
    assert est < 1e-8


def test_eigen_identity_and_negative_control():
    H = hamiltonian_reduced(EX3)
    for n in (0, 2, 5):
        st = radial_wavefunction(EX3, n)
        assert eigen_residual(H, st.fn, st.energy) < 1e-9
        assert eigen_residual(H, st.fn, st.energy + 0.1 * EX3.omega0) > 1e-3
    # a non-eigenfunction with a perturbed eigenvalue is loudly wrong
    decaying = AnalyticFunction(lambda z: np.exp(-z), np.inf)
    assert eigen_residual(H, decaying, 1.1) > 1e-3


def test_hamiltonian_on_constant():
    p = EX3
    d = derive_params(p)
    H = hamiltonian_reduced(p)
    one = AnalyticFunction(lambda z: np.ones_like(np.asarray(z, dtype=complex)), np.inf)
    out = H.apply(one)
    for rho in (0.7, 2.0):
        r2 = rho * (rho + 1j)
        expect = 1.0 + 0.5 * p.omega0 ** 2 * r2 + (d.L * (d.L + 1) / 2 + p.g0) / r2
        assert out(rho) == pytest.approx(expect, rel=1e-14)


def test_quasipotential_hand_value_and_n3_degeneration():
    # N = 3, omega0 = 1, g0 = 0, constant input at rho = 2:
    # factor collapses to (rho + i)^2 / 2
    p = ModelParams(N=3, l=0, omega0=1.0, g0=0.0)
    V = quasipotential_op(p)
    one = AnalyticFunction(lambda z: np.ones_like(np.asarray(z, dtype=complex)), np.inf)
    got = V.apply(one)(2.0)
    assert got == pytest.approx(0.5 * (2 + 1j) ** 2, rel=1e-14)


def test_quasipotential_nonrel_limit():
    f = AnalyticFunction(lambda z: np.exp(-0.25 * z ** 2), np.inf)
    radii = (0.8, 1.5, 3.0)
    devs = []
    for lam in (1e-2, 1e-3):
        op = quasipotential_scaled(1.0, 1.0, 5, lam)
        g = op.apply(f)
        devs.append(max(abs(g(r) - (0.5 * r ** 2 + 1.0 / r ** 2) * f(r)) for r in radii))
    assert devs[0] / devs[1] == pytest.approx(10.0, rel=0.05)


def test_radial_N_on_constant():
    p = ModelParams(N=5, l=1, omega0=0.2, g0=0.3)
    H = hamiltonian_radial_N(p)
    one = AnalyticFunction(lambda z: np.ones_like(np.asarray(z, dtype=complex)), np.inf)
    rho = 1.3
    cent = p.l * (p.l + p.N - 2) / (rho * (2 * rho - 1j * (p.N - 3)))
    off = 1j * (p.N - 3) / 2
    pot = (0.5 * p.omega0 ** 2 * rho * (rho + 1j) ** 2 / (rho - off)
           + p.g0 / (rho * (rho - off)))
    assert H.apply(one)(rho) == pytest.approx(1.0 + cent + pot, rel=1e-13)


def test_radial_N3_matches_explicit_3d_form():
    p = ModelParams(N=3, l=2, omega0=0.2, g0=0.1)
    H = hamiltonian_radial_N(p)
    explicit = op_sum(
        cosh_shift(),
        compose(multiply_by(lambda z: 1j / z), sinh_shift()),
        compose(multiply_by(lambda z: p.l * (p.l + 1) / (2.0 * z ** 2)), shift(1j)),
        compose(multiply_by(lambda z: 0.5 * p.omega0 ** 2 * (z + 1j) ** 2
                            + p.g0 / z ** 2), shift(1j)),
    )
    f = AnalyticFunction(lambda z: np.exp(-0.3 * (z - 1.0) ** 2), np.inf)
    pts = np.array([0.5, 1.0, 2.5, 7.0])
    a = H.apply(f)(pts)
    b = explicit.apply(f)(pts)
    assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-13


def test_degenerate_discriminant_continuity():
    om0, N, l = 0.25, 5, 1
    L = l + (N - 3) / 2
    g_star = (1 - 4 * om0 ** 2 * L * (L + 1)) / (8 * om0 ** 2)
    gaps = []
    for delta in (1e-3, 1e-6, 1e-9):
        d = derive_params(ModelParams(N=N, l=l, omega0=om0, g0=g_star - delta))
        assert np.isfinite(d.alpha) and np.isfinite(d.nu)
        gaps.append(d.nu - d.alpha)
    assert gaps[0] > gaps[1] > gaps[2] >= 0
    assert gaps[2] < 1e-3


def test_eigen_identity_low_dimensions():
    # N = 1 (L = -1) and N = 2 (L = -1/2) remain exactly solvable
    for p in (ModelParams(N=1, l=0, omega0=0.2, g0=0.5),
              ModelParams(N=2, l=0, omega0=0.2, g0=0.5)):
        H = hamiltonian_reduced(p)
        st = radial_wavefunction(p, 1)
        assert eigen_residual(H, st.fn, st.energy) < 1e-9


@pytest.mark.parametrize("point", [(3, 1, 0.2, 1.0), (2, 0, 0.05, 0.1), (8, 2, 0.05, 1.0)])
def test_basis_rows_are_the_states_bit_for_bit(point):
    p = ModelParams(*point)
    basis = oscillator.radial_basis(p, 6)
    real = np.asarray(RHO_SAMPLES)
    shifted = real[None, :] + 1j * np.arange(-4, 5)[:, None]  # rho + i tau
    for z in (real, shifted):
        rows = basis.fn(z)
        assert rows.shape == (7,) + z.shape
        for n in range(7):
            state = radial_wavefunction(p, n)
            np.testing.assert_array_equal(rows[n], state.fn(z))
            assert basis.energies[n] == state.energy


def test_stacked_basis_rows_are_each_points_rows_bit_for_bit():
    # N = 3 and 5 make the reduction multiplier's degree an integer, N = 2
    # and 8 a half-integer: each point takes its own route in one stack
    points = [ModelParams(*pt) for pt in ((2, 1, 0.05, 0.1), (3, 0, 0.2, 1.0),
                                          (5, 1, 0.01, 0.1), (8, 2, 0.05, 1.0))]
    stack = oscillator.PointStack(points)
    basis = oscillator.radial_basis(stack, 6)
    assert basis.energies.shape == (7, 4, 1)
    real = np.asarray(RHO_SAMPLES)
    shifted = real[None, :] + 1j * np.arange(-4, 5)[:, None, None]  # (9, 1, samples)
    for z in (real, shifted):
        zz = np.broadcast_to(z, z.shape[:-2] + (4,) + real.shape)
        rows = basis.fn(zz)
        mult = planewaves.reduction_multiplier(zz, stack.N)
        for i, p in enumerate(points):
            alone = oscillator.radial_basis(p, 6)
            np.testing.assert_array_equal(rows[..., i, :], alone.fn(zz[..., i, :]))
            np.testing.assert_array_equal(basis.energies[:, i, 0], alone.energies)
            np.testing.assert_array_equal(
                mult[..., i, :], planewaves.reduction_multiplier(zz[..., i, :], p.N))


def test_eigen_residual_of_a_basis_is_one_per_row():
    p = ModelParams(N=3, l=1, omega0=0.2, g0=1.0)
    basis = oscillator.radial_basis(p, 4)
    H = hamiltonian_reduced(p)
    rows = eigen_residual(H, basis.fn, basis.energies[:, None])
    assert rows.shape == (5,)
    for n in range(5):
        st = radial_wavefunction(p, n)
        assert rows[n] == pytest.approx(eigen_residual(H, st.fn, st.energy), rel=1e-6, abs=1e-15)
    assert np.all(rows < 1e-11)


# -- states read on the shift lattice ------------------------------------

# every offset i k/2, |k| <= 16: the whole and the half-integer class
LATTICE = 1j * np.arange(-16, 17) / 2
EPS = np.finfo(float).eps


def _direct(fn, z, taus):
    """fn read on the stacked points z + tau_j, as an image without
    `shifted` reads it."""
    return fn(np.asarray(z, dtype=complex) + taus.reshape((-1,) + (1,) * np.ndim(z)))


def _log_size(p, z):
    """The size of the logs the envelope exponentiates at z: eps times it
    bounds the rounding of a direct read there."""
    d = derive_params(p)
    u = 1j * np.asarray(z, dtype=complex)
    log_scale = 0.5 * (math.log(2.0) - cdh_log_norm(0, d.cdh))
    return (np.abs(loggamma(d.nu + u)) + np.abs(loggamma(d.alpha + u)) + np.abs(loggamma(u))
            + np.abs(u * np.log(p.omega0)) + abs(log_scale))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.floats(min_value=-4.0, max_value=0.0))
def test_lattice_read_matches_the_direct_read(log_omega0):
    # within 1e-13 plus the rounding of the direct read itself, whose lnGamma
    # values grow like 1/omega0; a stack of points gives each point the
    # values of its batch of one, bit for bit (N = 3, l = 0, g0 = 0 has an
    # integer alpha, which gamma_ratio takes by another route)
    omega0 = 10.0 ** log_omega0
    points = [ModelParams(3, 0, omega0, 0.1), ModelParams(2, 0, omega0, 0.1),
              ModelParams(3, 0, omega0, 0.0)]
    stack = oscillator.PointStack(points)
    samples = np.broadcast_to(np.asarray(RHO_SAMPLES), (3, len(RHO_SAMPLES)))
    rows = oscillator.radial_basis(stack, 3).fn.shifted(LATTICE)(samples)
    assert rows.shape == (4, len(LATTICE)) + samples.shape
    for i, p in enumerate(points):
        basis = oscillator.radial_basis(p, 3).fn
        alone = basis.shifted(LATTICE)(samples[i])
        np.testing.assert_array_equal(rows[..., i, :], alone)
        direct = _direct(basis.fn, samples[i], LATTICE)
        size = _log_size(p, _direct(lambda z: z, samples[i], LATTICE))
        bound = 1e-13 + 4 * EPS * size.max()
        assert np.max(np.abs(alone - direct) / np.abs(direct)) <= bound
        state = radial_wavefunction(p, 2).fn.shifted(LATTICE)(samples[i])
        np.testing.assert_array_equal(state, alone[2])


@pytest.mark.parametrize("taus", [(0j,), (1j, -1j), (-2j, -1j, 0j, 1j, 2j), tuple(LATTICE),
                                  (0.5j, 0j, -0.5j, 0.25 + 1j, 0.3j, 1.3j)])
def test_lattice_read_at_offset_zero_is_the_direct_read_bit_for_bit(taus):
    # offsets with a real part, or off the (i/2)Z lattice, read directly
    taus = np.asarray(taus)
    z = np.asarray(RHO_SAMPLES)
    basis = oscillator.radial_basis(EX3, 4).fn
    rows = basis.shifted(taus)(z)
    direct = _direct(basis.fn, z, taus)
    for j, t in enumerate(taus):
        if t == 0:
            np.testing.assert_array_equal(rows[:, j], basis.fn(z))
        if t.real or t.imag * 2 != round(t.imag * 2):
            np.testing.assert_array_equal(rows[:, j], direct[:, j])
    np.testing.assert_allclose(rows, direct, rtol=1e-13)


@pytest.mark.parametrize("p", [EX3, ModelParams(3, 0, 0.2, 0.0)])  # alpha = 1 in the second
def test_lattice_read_on_the_imaginary_axis_matches_the_direct_read(p):
    # the states vanish at rho = i k, where 1/Gamma(i rho) does; there the
    # lattice meets gamma poles and is read directly, without a warning
    z = 1j * np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 0.5, 1.5])
    taus = 1j * np.arange(-4, 5) / 2
    basis = oscillator.radial_basis(p, 3).fn
    rows = basis.shifted(taus)(z)
    direct = _direct(basis.fn, z, taus)
    zero = direct == 0
    assert zero.any() and np.all(rows[zero] == 0)
    np.testing.assert_allclose(rows[~zero], direct[~zero], rtol=1e-13)


@pytest.mark.parametrize("omega0", [0.2, 1e-3, 1e-4])
def test_lattice_read_is_as_accurate_as_the_direct_read(omega0):
    # against 60 digits: each shifted value carries its base's error (the
    # base is read directly) and a few roundings of the ratios, no more,
    # and the worst error of the lattice read is no worse than the direct
    p = ModelParams(3, 0, omega0, 0.1)
    d = derive_params(p)
    z = np.array([0.3, 1.0, 2.0, 5.0, 10.0, 20.0])
    state = radial_wavefunction(p, 0).fn
    lattice = state.shifted(LATTICE)(z)
    direct = _direct(state.fn, z, LATTICE)
    log_scale = 0.5 * (math.log(2.0) - cdh_log_norm(0, d.cdh))
    a, nu, om = (mpmath.mpf(x) for x in (d.alpha, d.nu, omega0))
    with mpmath.workdps(60):
        def exact(r):  # R_0 = E, with the code's own log scale
            u = 1j * mpmath.mpc(r)
            return complex(mpmath.exp(1j * mpmath.pi * a / 2 + mpmath.loggamma(a + u)
                                      - mpmath.loggamma(u) + mpmath.loggamma(nu + u)
                                      + u * mpmath.log(om) + mpmath.mpf(log_scale)))
        want = np.vectorize(exact, otypes=[complex])(_direct(lambda x: x, z, LATTICE))
    err_lattice = np.abs(lattice - want) / np.abs(want)
    err_direct = np.abs(direct - want) / np.abs(want)
    whole = np.arange(-16, 17) % 2 == 0
    for members, base in ((whole, 16), (~whole, 17)):  # bases: offsets 0 and i/2
        np.testing.assert_array_equal(lattice[base], direct[base])
        assert np.all(err_lattice[members] <= err_lattice[base] + 16 * EPS)
    assert err_lattice.max() <= err_direct.max()
