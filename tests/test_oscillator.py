import numpy as np
import pytest

from relsingosc import oscillator, quadrature
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
    wavefunction_profile,
)
from relsingosc.quadrature import gram_matrix, integrate_halfline
from relsingosc.oscillator import state_decay_hint
from relsingosc.specfun import CdhParams, cdh_norm

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


def test_norm_const_matches_independent_quadrature():
    # the closed form sqrt(2 / h_n) against a half-line quadrature of the
    # unnormalized profile, which stays the reference
    for p in DOMAIN_POINTS:
        d = derive_params(p)
        for n in range(6):
            profile = wavefunction_profile(p, n, d)
            raw_sq, _ = integrate_halfline(lambda r: np.abs(profile(r)) ** 2,
                                           state_decay_hint(d, n))
            closed = np.sqrt(2.0 / cdh_norm(n, CdhParams(d.alpha, d.nu, 0.5)))
            assert closed == pytest.approx(1.0 / np.sqrt(raw_sq), rel=1e-10), (p, n)
            assert radial_wavefunction(p, n).norm_const == closed


def test_radial_wavefunction_needs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called")

    for name in ("integrate_halfline", "gram_matrix", "halfline_rule"):
        monkeypatch.setattr(quadrature, name, refuse)
        monkeypatch.setattr(oscillator, name, refuse, raising=False)
    for n in range(4):
        st = radial_wavefunction(EX3, n)
        assert np.all(np.isfinite(st.fn(np.asarray(RHO_SAMPLES))))


def test_overflowing_norm_raises():
    # h_n overflows at nu ~ 125: the state is rejected, not returned as R = 0
    with pytest.raises(InvalidParametersError, match="not finite and positive"):
        radial_wavefunction(ModelParams(N=3, l=1, omega0=0.008, g0=1.0), 0)


@pytest.mark.filterwarnings("error")
def test_overflowing_norm_raises_without_warning():
    # the overflow is seen in log space, so no RuntimeWarning precedes the error
    d = derive_params(ModelParams(N=3, l=1, omega0=0.008, g0=1.0))
    with pytest.raises(InvalidParametersError, match="not finite and positive"):
        oscillator.norm_constant(0, d)


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
