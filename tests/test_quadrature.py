import numpy as np
import pytest

from relsingosc.operators import AnalyticFunction
from relsingosc.oscillator import ModelParams, radial_wavefunction, state_decay_hint
from relsingosc.quadrature import (
    DecayHint,
    QuadratureConvergenceError,
    choose_rho_max,
    gram_matrix,
    halfline_rule,
    inner_product,
    integrate_halfline,
)

P = ModelParams(N=3, l=1, omega0=0.1, g0=1.0)


def test_exponential_integral():
    val, err = integrate_halfline(lambda r: np.exp(-r), DecayHint(power=0.0, rate=1.0))
    assert val == pytest.approx(1.0, abs=1e-12)
    assert err < 1e-12


def test_gaussian_integral():
    val, err = integrate_halfline(lambda r: np.exp(-r ** 2), DecayHint(power=0.0, rate=1.0))
    assert val == pytest.approx(np.sqrt(np.pi) / 2, abs=1e-12)


def test_rule_invariants():
    rule = halfline_rule(10.0, 1)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    assert rule.truncation_rho_max == 10.0


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
    finer = halfline_rule(rho_max, 4).integrate_with_mass(f)[0].real
    assert abs(finer - val) <= max(err, 1e-15)


def test_truncation_point_insensitive():
    st = radial_wavefunction(P, 2)
    hint = state_decay_hint(st.derived, 2)
    rho_max = choose_rho_max(hint)

    def f(r):
        return np.abs(st.fn(r)) ** 2

    base = halfline_rule(rho_max, 2).integrate_with_mass(f)[0].real
    extended = halfline_rule(rho_max + 5, 2).integrate_with_mass(f)[0].real
    assert abs(extended - base) / abs(base) < 1e-12


def test_nonconvergence_raises():
    # endpoint-singular integrand defeats fixed-order panels
    with pytest.raises(QuadratureConvergenceError):
        integrate_halfline(lambda r: np.where(r > 0, r, 1.0) ** -0.5 * np.exp(-r),
                           DecayHint(power=0.0, rate=1.0), rel_tol=1e-13, max_refine=3)


def test_inner_product_orthonormality():
    s0 = radial_wavefunction(P, 0)
    s1 = radial_wavefunction(P, 1)
    hint = state_decay_hint(s0.derived, 1)
    v00, e00 = inner_product(s0.fn, s0.fn, hint)
    assert abs(v00 - 1.0) < 1e-8
    assert e00 < 1e-8
    v01, _ = inner_product(s0.fn, s1.fn, hint)
    assert abs(v01) < 1e-7


def test_inner_product_conjugate_symmetry():
    f = AnalyticFunction(lambda z: (1.0 + 0.5j) * np.exp(-z) * z, 1.0)
    g = AnalyticFunction(lambda z: np.exp(-0.8 * z) * (z - 2j), 1.0)
    hint = DecayHint(power=2.0, rate=1.5)
    fg, _ = inner_product(f, g, hint)
    gf, _ = inner_product(g, f, hint)
    assert fg == pytest.approx(np.conj(gf), rel=1e-12)


def test_gram_matrix_matches_pairwise():
    s0 = radial_wavefunction(P, 0)
    s1 = radial_wavefunction(P, 1)
    hint = state_decay_hint(s0.derived, 1)
    G, est = gram_matrix([s0.fn, s1.fn], hint)
    assert G[0, 0] == pytest.approx(1.0, abs=1e-8)
    assert G[1, 1] == pytest.approx(1.0, abs=1e-8)
    assert abs(G[0, 1]) < 1e-7
    assert est < 1e-8
