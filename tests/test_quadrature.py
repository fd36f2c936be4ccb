import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest

from relsingosc import checks, oscillator, quadrature, specfun
from relsingosc.checks import CHECKS, GridContext
from relsingosc.operators import AnalyticFunction
from relsingosc.oscillator import (
    ModelParams,
    derive_params,
    radial_wavefunction,
    state_decay_hint,
)
from relsingosc.quadrature import (
    DecayHint,
    QuadratureConvergenceError,
    cdh_gauss_rule,
    cdh_gram,
    choose_rho_max,
    gram_matrix,
    halfline_rule,
    integrate_halfline,
)
from relsingosc.specfun import CdhParams

P = ModelParams(N=3, l=1, omega0=0.1, g0=1.0)


def test_exponential_integral():
    val, err = integrate_halfline(lambda r: np.exp(-r), DecayHint(power=0.0, rate=1.0))
    assert val == pytest.approx(1.0, abs=1e-12)
    assert err < 1e-12


def test_gaussian_integral():
    val, err = integrate_halfline(lambda r: np.exp(-r ** 2), DecayHint(power=0.0, rate=1.0))
    assert val == pytest.approx(np.sqrt(np.pi) / 2, abs=1e-12)


def _legendre_sum(f, rho_max, panels_per_unit):
    rule = halfline_rule(rho_max, panels_per_unit)
    return np.sum(rule.weights * f(rule.nodes)).real


def test_rule_invariants():
    rule = halfline_rule(10.0, 1)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    assert 0.0 < rule.nodes[0] and rule.nodes[-1] < 10.0
    assert np.sum(rule.weights) == pytest.approx(10.0, rel=1e-14)


def test_choose_rho_max_grows_with_power():
    assert choose_rho_max(None) == 60.0
    r1 = choose_rho_max(DecayHint(power=20.0))
    r2 = choose_rho_max(DecayHint(power=90.0))
    assert r2 > r1 >= 60.0


def test_doubling_changes_less_than_reported_error():
    hint = DecayHint(power=4.0, rate=1.0)

    def f(r):
        return r ** 4 * np.exp(-r) * np.cos(r)

    val, err = integrate_halfline(f, hint)
    rho_max = choose_rho_max(hint)
    finer = _legendre_sum(f, rho_max, 4)
    assert abs(finer - val) <= max(err, 1e-15)


def test_truncation_point_insensitive():
    st = radial_wavefunction(P, 2)
    hint = state_decay_hint(st.derived, 2)
    rho_max = choose_rho_max(hint)

    def f(r):
        return np.abs(st.fn(r)) ** 2

    base = _legendre_sum(f, rho_max, 2)
    extended = _legendre_sum(f, rho_max + 5, 2)
    assert abs(extended - base) / abs(base) < 1e-12


def test_nonconvergence_raises():
    # endpoint-singular integrand defeats fixed-order panels
    with pytest.raises(QuadratureConvergenceError):
        integrate_halfline(lambda r: np.where(r > 0, r, 1.0) ** -0.5 * np.exp(-r),
                           DecayHint(power=0.0, rate=1.0))


def test_gram_matrix_conjugate_symmetry():
    f = AnalyticFunction(lambda z: (1.0 + 0.5j) * np.exp(-z) * z, 1.0)
    g = AnalyticFunction(lambda z: np.exp(-0.8 * z) * (z - 2j), 1.0)
    hint = DecayHint(power=2.0, rate=1.5)
    G, _ = gram_matrix([f, g], hint)
    assert G[0, 1] == pytest.approx(np.conj(G[1, 0]), rel=1e-12)
    # <f, g> = (1 - 0.5i) * integral of (r^2 - 2i r) e^(-1.8 r)
    assert G[0, 1] == pytest.approx((1.0 - 0.5j) * (2.0 / 1.8 ** 3 - 2j / 1.8 ** 2), rel=1e-12)


def test_gram_matrix_matches_pairwise():
    s0 = radial_wavefunction(P, 0)
    s1 = radial_wavefunction(P, 1)
    hint = state_decay_hint(s0.derived, 1)
    G, est = gram_matrix([s0.fn, s1.fn], hint)
    assert G[0, 0] == pytest.approx(1.0, abs=1e-8)
    assert G[1, 1] == pytest.approx(1.0, abs=1e-8)
    assert abs(G[0, 1]) < 1e-7
    assert est < 1e-8


def test_gram_matrix_nonconvergence_raises():
    # |f|^2 = r^(-1/2) e^(-r) is endpoint-singular: panel doubling never settles
    f = AnalyticFunction(lambda z: np.where(z != 0, z, 1.0) ** -0.25 * np.exp(-0.5 * z), 0.0)
    with pytest.raises(QuadratureConvergenceError):
        gram_matrix([f], DecayHint(power=0.0, rate=1.0))


def _rule_calls(monkeypatch):
    # panels_per_unit of every rule the refinement loop builds
    calls = []
    build = quadrature.halfline_rule

    def counting(rho_max, panels_per_unit=1):
        calls.append(panels_per_unit)
        return build(rho_max, panels_per_unit)

    monkeypatch.setattr(quadrature, "halfline_rule", counting)
    return calls


def test_vector_integrand_converges_entry_by_entry(monkeypatch):
    # entry 1 is 1e-12 of entry 0 and oscillates faster than one-unit panels
    # resolve: a tolerance scaled by the largest entry would accept it early
    W, hint = 150.0, DecayHint(power=0.0, rate=1.0)

    def f(r):
        return np.array([1e12 * np.exp(-r), np.cos(W * r) * np.exp(-r)])

    calls = _rule_calls(monkeypatch)
    large, _ = integrate_halfline(lambda r: f(r)[0], hint)
    large_levels = len(calls)
    calls.clear()
    vals, _ = integrate_halfline(f, hint)
    assert len(calls) > large_levels
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(1e12, rel=1e-12)
    assert large == pytest.approx(1e12, rel=1e-12)
    assert vals[1] == pytest.approx(1.0 / (1.0 + W ** 2), rel=1e-10)
    # the answer the large entry alone would have stopped at is wrong in entry 1
    coarse = _legendre_sum(lambda r: f(r)[1], choose_rho_max(hint), calls[large_levels - 1])
    assert abs(coarse - vals[1]) > 1e-11 * abs(vals[1])


# --------------------------------------------------------------------------
# Gauss rule of the continuous dual Hahn weight
# --------------------------------------------------------------------------

_COLUMN_N8 = derive_params(ModelParams(N=8, l=1, omega0=0.05, g0=0.1))
# the cdh-norms triples and the states' triple at the verify-grid column's N = 8 point
RULE_TRIPLES = (
    CdhParams(0.5, 0.5, 0.5),
    CdhParams(1.3, 2.1, 0.4),
    CdhParams(2.603388468743137, 10.301824164386872, 0.5),
    CdhParams(_COLUMN_N8.alpha, _COLUMN_N8.nu, 0.5),
)
GAUSS_P = ModelParams(N=3, l=1, omega0=0.2, g0=1.0)


def _cdh_poly_mp(n, y, p):
    """S_n(y; a, b, c) by its terminating sum in mpmath: a reference free of
    the cancellation that limits the float sum at high degree."""
    a, b, c = (mpmath.mpf(v) for v in (p.a, p.b, p.c))
    total, term = mpmath.mpf(0), mpmath.mpf(1)
    for k in range(n + 1):
        total += term
        term *= -(n - k) * ((a + k) ** 2 + y) / ((a + b + k) * (a + c + k) * (k + 1))
    return mpmath.rf(a + b, n) * mpmath.rf(a + c, n) * total


@pytest.mark.parametrize("p", RULE_TRIPLES)
def test_cdh_gauss_rule_is_exact_to_degree_2m_minus_1(p):
    with mpmath.workdps(40):
        for M in range(1, 8):
            x, log_lam = cdh_gauss_rule(M, p)
            lam = [mpmath.mpf(float(v)) for v in np.exp(log_lam)]
            ys = [mpmath.mpf(float(v)) ** 2 for v in x]
            S = [[_cdh_poly_mp(n, y, p) for y in ys] for n in range(2 * M)]
            for m in range(2 * M):
                for n in range(2 * M - m):
                    got = mpmath.fsum(lk * sm * sn for lk, sm, sn in zip(lam, S[m], S[n]))
                    want = specfun.cdh_norm(n, p) if m == n else 0.0
                    scale = math.sqrt(specfun.cdh_norm(m, p) * specfun.cdh_norm(n, p))
                    assert abs(float(got) - want) <= 1e-12 * scale, (M, m, n)


def _golub_welsch_mp(M, p):
    """Nodes and weights of the M-point rule from the same Jacobi matrix, at 50 digits."""
    a, b, c = (mpmath.mpf(v) for v in (p.a, p.b, p.c))
    J = mpmath.zeros(M, M)
    for n in range(M):
        J[n, n] = (n + a + b) * (n + a + c) + n * (n + b + c - 1) - a * a
        if n:
            J[n, n - 1] = J[n - 1, n] = mpmath.sqrt(
                (n - 1 + a + b) * (n - 1 + a + c) * n * (n + b + c - 1))
    E, Q = mpmath.eigsy(J)
    h0 = mpmath.gamma(a + b) * mpmath.gamma(a + c) * mpmath.gamma(b + c)
    order = sorted(range(M), key=lambda k: E[k])
    return ([float(mpmath.sqrt(E[k])) for k in order],
            [float(h0 * Q[0, k] ** 2) for k in order])


@pytest.mark.parametrize("p", RULE_TRIPLES)
def test_cdh_gauss_rule_matches_mpmath_golub_welsch(p):
    with mpmath.workdps(50):
        for M in range(1, 9):
            x, log_lam = cdh_gauss_rule(M, p)
            x_ref, lam_ref = _golub_welsch_mp(M, p)
            np.testing.assert_allclose(x, x_ref, rtol=1e-13, atol=0)
            np.testing.assert_allclose(np.exp(log_lam), lam_ref, rtol=1e-13, atol=0)


def test_gauss_and_legendre_gram_agree():
    states = [radial_wavefunction(GAUSS_P, n) for n in range(6)]
    d = states[0].derived
    fns = [s.fn for s in states]
    legendre, _ = gram_matrix(fns, state_decay_hint(d, 5))
    gauss = cdh_gram(fns, CdhParams(d.alpha, d.nu, 0.5), 6)
    assert np.max(np.abs(gauss - legendre)) < 1e-12
    assert np.max(np.abs(gauss - np.eye(6))) < 1e-12


def test_cdh_gauss_rule_needs_no_state_code(monkeypatch):
    # built from the recurrence and h_0 only: neither the float cdh_poly sum
    # nor the envelope of the states enters the rule
    def refuse(*args, **kwargs):
        raise AssertionError("state code called")

    for mod, name in ((specfun, "cdh_poly"), (oscillator, "radial_wavefunction"),
                      (oscillator, "radial_basis")):
        monkeypatch.setattr(mod, name, refuse)
    monkeypatch.setattr(quadrature, "cdh_poly", refuse, raising=False)
    p = CdhParams(1.3, 2.1, 0.4)
    x, log_lam = cdh_gauss_rule(6, p)
    assert np.all(np.diff(x) > 0) and x[0] > 0
    assert np.sum(np.exp(log_lam)) == pytest.approx(specfun.cdh_norm(0, p), rel=1e-13)


def _with_row(basis, n, row):
    """basis with row n replaced by row(z, rows), rows its original values."""
    def ev(z):
        rows = np.array(basis.fn(z))
        rows[n] = row(z, rows)
        return rows

    return dataclasses.replace(basis, fn=AnalyticFunction(ev, basis.fn.strip_halfwidth))


class ScaledState(GridContext):
    """R_2 with its normalization constant multiplied by 1 + 1e-5."""

    def basis(self):
        return _with_row(super().basis(), 2, lambda z, rows: (1.0 + 1e-5) * rows[2])


class ShiftedNu(GridContext):
    """R_2 built with nu perturbed by 1e-3."""

    def basis(self):
        d = dataclasses.replace(self.derived, nu=self.derived.nu + 1e-3)
        wrong = oscillator._state_rows(self.params, d, 2, 2)
        return _with_row(super().basis(), 2, lambda z, rows: wrong(z)[0])


class ScaledLadderState(GridContext):
    """The ladder-built R_3 multiplied by 1 + 1e-5."""

    def ladder_basis(self):
        return _with_row(super().ladder_basis(), 3, lambda z, rows: (1.0 + 1e-5) * rows[3])


@pytest.mark.parametrize("ctx_cls, cid", [
    (GridContext, "orthonormality"),
    (GridContext, "state-generation-norm"),
])
def test_gauss_checks_pass_on_true_states(ctx_cls, cid):
    assert CHECKS[cid].runner(ctx_cls(GAUSS_P)) < 1e-12


@pytest.mark.parametrize("ctx_cls, cid", [
    (ScaledState, "orthonormality"),
    (ShiftedNu, "orthonormality"),
    (ShiftedNu, "orthonormality-quadrature-error"),
    (ScaledLadderState, "state-generation-norm"),
])
def test_gauss_checks_see_perturbed_states(ctx_cls, cid):
    assert CHECKS[cid].runner(ctx_cls(GAUSS_P)) > CHECKS[cid].default_tol


# --------------------------------------------------------------------------
# inputs of the Legendre reference (cdh-norms)
# --------------------------------------------------------------------------

CDH_NORM_TRIPLES = RULE_TRIPLES[:3]


@pytest.mark.parametrize("p", CDH_NORM_TRIPLES)
def test_real_cdh_poly_is_float_and_matches_mpmath(p):
    xs = np.linspace(0.05, 60.0, 41)
    with mpmath.workdps(50):
        for n in range(6):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = specfun.cdh_poly(n, xs ** 2, p)
            assert got.dtype == np.float64
            want = np.array([float(_cdh_poly_mp(n, mpmath.mpf(float(x)) ** 2, p)) for x in xs])
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), n
    assert isinstance(specfun.cdh_poly(3, 0.7, p), float)


@pytest.mark.parametrize("p", CDH_NORM_TRIPLES)
def test_cdh_weight_matches_mpmath(p):
    xs = (1e-3, 0.05, 0.3, 1.0, 3.0, 10.0, 25.0, 50.0)
    got = specfun.cdh_weight(np.array(xs), p)
    with mpmath.workdps(50):
        for x, w in zip(xs, got):
            ix = 1j * mpmath.mpf(x)
            want = abs(mpmath.gamma(p.a + ix) * mpmath.gamma(p.b + ix) * mpmath.gamma(p.c + ix)
                       / mpmath.gamma(2 * ix)) ** 2
            assert abs(w / float(want) - 1.0) <= 2e-13, x


def test_legendre_panel_is_built_once(monkeypatch):
    calls = []
    build = quadrature.leggauss

    def counting(deg):
        calls.append(deg)
        return build(deg)

    quadrature._legendre_panel.cache_clear()
    monkeypatch.setattr(quadrature, "leggauss", counting)
    hint = DecayHint(power=0.0, rate=1.0)
    integrate_halfline(lambda r: np.exp(-r), hint)
    integrate_halfline(lambda r: r * np.exp(-r), hint)
    assert len(calls) <= 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega0", [0.01, 1e-3])
def test_gauss_gram_is_identity_where_the_weight_overflows(omega0):
    # the rule divides by the weight in logs, so the Gram matrix of the states
    # stays finite and certifies them where h_0 and the weight overflow
    p = ModelParams(N=3, l=1, omega0=omega0, g0=1.0)
    G, G_next = GridContext(p).gram()
    assert G < 1e-11 and G_next < 1e-11


def test_christoffel_weights_keep_the_gram_matrix_at_high_degree():
    # eigenvector (Golub-Welsch) weights on the same nodes read max |G - I|
    # ~ 2e12 at M = 31 here; the Christoffel weights are accurate relative
    # to each weight
    p = ModelParams(N=3, l=1, omega0=0.2, g0=1.0)
    d = derive_params(p)
    basis = oscillator.radial_basis(p, 30)
    for M in (31, 32):
        G = cdh_gram([basis.fn], d.cdh, M)
        assert np.max(np.abs(G - np.eye(31))) < 1e-12, M


# --------------------------------------------------------------------------
# the fixed Legendre rule of cdh-norms
# --------------------------------------------------------------------------

def _legendre_sums(f, rule):
    vals = f(rule.nodes)
    return np.sum(rule.weights * vals, axis=-1), np.sum(rule.weights * np.abs(vals), axis=-1)


@pytest.mark.parametrize("i", range(3))
def test_cdh_norm_rule_has_converged(i):
    # the convergence test of the refinement loop, run once on the check's
    # fixed inputs: every entry of the width-1 rule against width-1/2 panels
    p = CDH_NORM_TRIPLES[i]
    hint = DecayHint(power=2 * (p.a + p.b + p.c) + 4 * checks._CDH_NORM_TOP, rate=math.pi)
    assert choose_rho_max(hint) == quadrature.DEFAULT_RHO_MAX
    rule = halfline_rule(quadrature.DEFAULT_RHO_MAX, 1)
    assert len(rule.nodes) == 1920
    coarse, _ = _legendre_sums(checks._cdh_norm_integrand, rule)
    fine, mass = _legendre_sums(checks._cdh_norm_integrand,
                                halfline_rule(quadrature.DEFAULT_RHO_MAX, 2))
    coarse, fine, mass = coarse[:, i], fine[:, i], mass[:, i]
    tol = np.maximum(quadrature.REL_TOL * np.maximum(np.abs(fine), mass), quadrature.ABS_TOL)
    assert np.all(np.abs(coarse - fine) <= tol)
    # the same integral, each triple on its own, by the adaptive loop
    adaptive, _ = integrate_halfline(
        lambda x: np.array([specfun.cdh_poly(n, x ** 2, p) for n in range(5)]) ** 2
        * specfun.cdh_weight(x, p) / (2 * math.pi),
        hint,
    )
    assert np.all(np.abs(coarse - adaptive) <= tol)


def test_cdh_norms_needs_no_recurrence_or_gauss_rule(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cdh-norms must not read the recurrence or the Gauss-CDH rule")

    for owner, name in ((specfun, "cdh_orthonormal"), (quadrature, "cdh_orthonormal"),
                        (quadrature, "cdh_gauss_rule")):
        monkeypatch.setattr(owner, name, refuse)
    assert CHECKS["cdh-norms"].runner() <= 1e-13


def test_cdh_norms_sees_a_wrong_closed_form(monkeypatch):
    log_norm = specfun.cdh_log_norm
    monkeypatch.setattr(specfun, "cdh_log_norm",
                        lambda n, p: log_norm(n, dataclasses.replace(p, b=p.b + 1e-3)))
    assert CHECKS["cdh-norms"].runner() > CHECKS["cdh-norms"].default_tol
