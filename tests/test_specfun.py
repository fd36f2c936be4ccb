import math

import numpy as np
import pytest

from relsingosc import specfun
from relsingosc.quadrature import DecayHint, integrate_halfline
from relsingosc.specfun import (
    CdhParams,
    DegreeLimitError,
    GammaPoleError,
    cdh_norm,
    cdh_poly,
    cdh_weight,
    generalized_degree,
    log_gamma,
)

RNG = np.random.default_rng(42)


def test_log_gamma_known_values():
    assert abs(log_gamma(1.0)) < 1e-15
    assert log_gamma(0.5) == pytest.approx(np.log(np.sqrt(np.pi)), abs=1e-13)
    # |Gamma(i)|^2 = pi / sinh(pi)
    mod_sq = np.exp(2 * np.real(log_gamma(1j)))
    assert mod_sq == pytest.approx(np.pi / np.sinh(np.pi), rel=1e-13)


def test_log_gamma_pole_raises():
    with pytest.raises(GammaPoleError):
        log_gamma(0.0)
    with pytest.raises(GammaPoleError):
        log_gamma(np.array([1.0, -3.0 + 0j]))


def test_gamma_ratio_raises_at_a_pole_of_the_numerator():
    # Gamma(z + delta) has a pole where Gamma(z) has none: the ratio is
    # infinite, and it raises as log_gamma does instead of returning nan
    with pytest.raises(GammaPoleError, match=r"z \+ delta = -1$"):
        specfun.gamma_ratio(-1.5, 0.5)
    with pytest.raises(GammaPoleError, match=r"z \+ delta = -1$"):
        generalized_degree(-1.5j, 0.5)
    # one such entry among finite ones, in z and in a delta column
    with pytest.raises(GammaPoleError, match=r"z \+ delta = -2$"):
        specfun.gamma_ratio(np.array([0.3, -2.5, 2.0 - 1j]), 0.5)
    with pytest.raises(GammaPoleError, match=r"z \+ delta = -1$"):
        specfun.gamma_ratio(-1.5, np.array([[1.0], [0.5]]))
    # beside the poles, and at a pole of Gamma(z) or of both, nothing raises
    assert np.all(np.isfinite(specfun.gamma_ratio(np.array([0.3, -2.25, 2.0 - 1j]), 0.5)))
    assert specfun.gamma_ratio(-1.5, 1.0) == -1.5
    assert specfun.gamma_ratio(-2.0, 0.5) == 0
    assert specfun.gamma_ratio(-2.0, 1.0) == -2.0


def test_generalized_degree_low_orders():
    for _ in range(20):
        rho = complex(RNG.uniform(-3, 3), RNG.uniform(-0.5, 0.5))
        assert generalized_degree(rho, 0) == pytest.approx(1.0)
        assert generalized_degree(rho, 1) == pytest.approx(rho, rel=1e-13)
        assert generalized_degree(rho, 2) == pytest.approx(rho * (rho + 1j), rel=1e-12)


def test_generalized_degree_functional_equation():
    for _ in range(40):
        rho = complex(RNG.uniform(0.2, 6), RNG.uniform(-1, 1))
        delta = complex(RNG.uniform(0.1, 4), RNG.uniform(-0.5, 0.5))
        lhs = generalized_degree(rho, delta + 1)
        rhs = generalized_degree(rho, delta) * 1j * (-1j * rho + delta)
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_mirrored_degree_vanishes_at_origin():
    # (-rho)^(alpha) carries 1/Gamma(i rho), which kills the origin
    assert generalized_degree(-0.0, 1.7) == 0.0
    assert generalized_degree(np.array([-0.0 + 0j]), 1.7)[0] == 0.0


def test_cdh_poly_degree_zero_and_one():
    p = CdhParams(1.2, 3.4, 0.5)
    assert cdh_poly(0, 0.7, p) == pytest.approx(1.0)
    for xsq in (0.0, 0.3, 2.5, 17.0):
        expect = (p.a + p.b) * (p.a + p.c) - (p.a ** 2 + xsq)
        assert cdh_poly(1, xsq, p) == pytest.approx(expect, rel=1e-13)


def test_cdh_poly_three_term_recurrence():
    # normalized form: -(a^2+x^2) s_n = A_n s_{n+1} - (A_n + C_n) s_n + C_n s_{n-1}
    # with s_n = S_n/((a+b)_n (a+c)_n), A_n = (n+a+b)(n+a+c), C_n = n(n+b+c-1)
    for _ in range(40):
        a = RNG.uniform(0.3, 3.0)
        b = RNG.uniform(0.3, 3.0)
        c = RNG.uniform(0.2, 1.5)
        x = RNG.uniform(0.0, 5.0)
        n = int(RNG.integers(1, 11))
        p = CdhParams(a, b, c)

        def s(k):
            return cdh_poly(k, x ** 2, p) / math.prod((a + b + j) * (a + c + j) for j in range(k))

        A_n = (n + a + b) * (n + a + c)
        C_n = n * (n + b + c - 1)
        lhs = -(a ** 2 + x ** 2) * s(n)
        rhs = A_n * s(n + 1) - (A_n + C_n) * s(n) + C_n * s(n - 1)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-10


def test_cdh_poly_is_polynomial_in_xsq():
    # fit coefficients from positive arguments, then predict at negative
    # arguments (x = it); the terminating sum must agree with the fit
    p = CdhParams(0.9, 2.2, 0.5)
    n = 4
    u_fit = np.linspace(0.5, 8.0, n + 1)
    vals = np.array([cdh_poly(n, u, p) for u in u_fit])
    coeffs = np.polynomial.polynomial.polyfit(u_fit, vals, n)
    for t in (0.3, 1.1, 2.0):
        u = -(t ** 2)  # x = i t
        direct = cdh_poly(n, complex(u), p).real
        fitted = np.polynomial.polynomial.polyval(u, coeffs)
        assert abs(direct - fitted) / max(abs(direct), 1.0) < 1e-10


def test_cdh_poly_degree_limit():
    with pytest.raises(DegreeLimitError):
        cdh_poly(201, 1.0, CdhParams(0.5, 0.5, 0.5))


def test_cdh_weight_positive_and_domain():
    p = CdhParams(0.5, 0.5, 0.5)
    for x in (0.1, 1.0, 10.0):
        w = cdh_weight(x, p)
        assert w > 0
    with pytest.raises(ValueError):
        cdh_weight(0.0, p)
    with pytest.raises(ValueError):
        cdh_weight(-1.0, p)


def test_legendre_duplication_identity():
    # |Gamma(2ix)|^2 = |Gamma(ix)|^2 |Gamma(ix + 1/2)|^2 / (4 pi) at x = 1
    x = 1.0
    lhs = np.exp(2 * np.real(log_gamma(2j * x)))
    rhs = (np.exp(2 * np.real(log_gamma(1j * x)))
           * np.exp(2 * np.real(log_gamma(0.5 + 1j * x))) / (4 * np.pi))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_cdh_norm_half_half_half():
    # closed form for (1/2,1/2,1/2), n = 0: Gamma(1)^3 0! = 1; the quadrature
    # oracle below pins the same value
    p = CdhParams(0.5, 0.5, 0.5)
    assert cdh_norm(0, p) == pytest.approx(1.0, rel=1e-14)
    val, err = integrate_halfline(
        lambda x: cdh_weight(x, p) / (2 * np.pi), DecayHint(power=2.0)
    )
    assert val == pytest.approx(1.0, abs=1e-10)


def test_cdh_norm_ratio():
    p = CdhParams(1.4, 2.7, 0.6)
    a, b, c = p.a, p.b, p.c
    for n in range(5):
        ratio = cdh_norm(n + 1, p) / cdh_norm(n, p)
        expect = (n + 1) * (n + a + b) * (n + a + c) * (n + b + c)
        assert ratio == pytest.approx(expect, rel=1e-12)


def test_cdh_quadrature_gram_off_diagonal():
    p = CdhParams(0.8, 1.9, 0.5)
    for m in range(4):
        for n in range(m + 1, 5):
            hint = DecayHint(power=2 * (p.a + p.b + p.c) + 2 * (m + n))
            val, _ = integrate_halfline(
                lambda x: cdh_poly(m, x ** 2, p) * cdh_poly(n, x ** 2, p)
                * cdh_weight(x, p) / (2 * np.pi),
                hint,
            )
            norm_scale = np.sqrt(cdh_norm(m, p) * cdh_norm(n, p))
            assert abs(val) < 1e-8 * norm_scale


def test_gamma_functional_equation_property():
    re = RNG.uniform(0.1, 50, size=1000)
    im = RNG.uniform(-50, 50, size=1000)
    z = re + 1j * im
    resid = np.abs(np.exp(log_gamma(z + 1) - log_gamma(z) - np.log(z)) - 1)
    assert np.max(resid) < 1e-12


def test_gamma_reflection_property():
    re = RNG.uniform(-4, 4, size=400)
    re = np.where(np.abs(re - np.round(re)) < 0.05, re + 0.11, re)
    im = RNG.uniform(-20, 20, size=400)
    z = re + 1j * im
    resid = np.abs(np.exp(log_gamma(z) + log_gamma(1 - z)
                          + np.log(np.sin(np.pi * z) / np.pi)) - 1)
    assert np.max(resid) < 1e-11


def test_cdh_orthonormal_rows_are_the_scaled_sum():
    # s_n = S_n sqrt(h_0 / h_n) at real and complex x^2, while the float sum keeps its digits
    p = CdhParams(1.3, 2.1, 0.4)
    for xsq in (np.linspace(0.0, 9.0, 7), (np.linspace(0.3, 3.0, 5) + 1.5j) ** 2):
        rows = specfun.cdh_orthonormal(6, xsq, p)
        assert rows.dtype == np.asarray(xsq).dtype and rows.shape == (7,) + xsq.shape
        for n in range(7):
            want = cdh_poly(n, xsq, p) * math.sqrt(cdh_norm(0, p) / cdh_norm(n, p))
            assert np.max(np.abs(rows[n] - want)) <= 1e-13 * max(1.0, np.max(np.abs(want))), n


def test_cdh_orthonormal_single_row_is_the_row_of_the_table():
    p = CdhParams(2.6, 10.3, 0.5)
    xsq = (np.array([0.3, 1.0, 5.0, 20.0]) + 1j) ** 2
    table = specfun.cdh_orthonormal(9, xsq, p)
    for n in (0, 4, 9):
        np.testing.assert_array_equal(specfun.cdh_orthonormal(n, xsq, p, lowest=n)[0], table[n])
    np.testing.assert_array_equal(specfun.cdh_orthonormal(9, xsq, p, lowest=3), table[3:])


def test_cdh_log_weight_is_finite_where_the_weight_overflows():
    # nu ~ 1000 at omega0 = 1e-3: the weight itself is far beyond a float
    p = CdhParams(2.56, 1000.5, 0.5)
    x = np.array([0.5, 3.0, 30.0])
    log_w = specfun.cdh_log_weight(x, p)
    assert np.all(np.isfinite(log_w)) and np.all(log_w > 800)
    q = CdhParams(1.3, 2.1, 0.4)
    assert np.array_equal(cdh_weight(x, q), np.exp(specfun.cdh_log_weight(x, q)))
    assert cdh_weight(0.7, q) == math.exp(specfun.cdh_log_weight(0.7, q))


# two triples as (2, 1) parameter columns, and each on its own
COLUMNS = CdhParams(np.array([[0.5], [1.3]]), np.array([[0.5], [2.1]]), np.array([[0.5], [0.4]]))
EACH = (CdhParams(0.5, 0.5, 0.5), CdhParams(1.3, 2.1, 0.4))


def test_cdh_poly_degree_zero_spans_parameter_columns():
    xsq = np.linspace(0.0, 9.0, 5) ** 2
    for n in range(4):
        got = cdh_poly(n, xsq, COLUMNS)
        assert got.shape == (2, 5), n
        for i, p in enumerate(EACH):
            np.testing.assert_array_equal(got[i], cdh_poly(n, xsq, p))
    assert cdh_poly(0, 0.7, COLUMNS).shape == (2, 1)


def test_cdh_orthonormal_takes_parameter_columns():
    for xsq in (np.linspace(0.0, 9.0, 5), (np.linspace(0.3, 3.0, 5) + 1.5j) ** 2):
        rows = specfun.cdh_orthonormal(2, xsq, COLUMNS)
        assert rows.shape == (3, 2, 5) and rows.dtype == xsq.dtype
        for i, p in enumerate(EACH):
            np.testing.assert_array_equal(rows[:, i], specfun.cdh_orthonormal(2, xsq, p))
        np.testing.assert_array_equal(specfun.cdh_orthonormal(0, xsq, COLUMNS)[0], np.ones((2, 5)))


def test_cdh_norm_is_elementwise_on_parameter_columns():
    for n in range(5):
        got = cdh_norm(n, COLUMNS)
        assert got.shape == (2, 1)
        assert [got[i, 0] for i in range(2)] == [cdh_norm(n, p) for p in EACH]
    # h_n beyond a float raises, for a scalar triple and for one entry of a column
    big = CdhParams(100.0, 100.0, 100.0)
    with pytest.raises(OverflowError):
        cdh_norm(4, big)
    with pytest.raises(OverflowError):
        cdh_norm(4, CdhParams(np.array([[0.5], [100.0]]), np.array([[0.5], [100.0]]),
                              np.array([[0.5], [100.0]])))


# one delta per row of a (P, 1) column: whole, negative whole, zero, half-integer,
# complex, and whole but beyond the exact-product range (|k| > 256), read at z
# that holds the poles 0, -1 and -2 of Gamma(z)
DELTAS = np.array([[3.0], [-2.0], [0.0], [0.5], [1.5 + 0.25j], [-257.0], [-300.0]])
POLE_Z = np.array([0.0, -1.0, -2.0, 0.7 - 1.3j, 2.5, -1.25])


def test_gamma_ratio_column_gives_each_delta_its_own_route():
    got = specfun.gamma_ratio(POLE_Z, DELTAS)
    assert got.shape == (len(DELTAS), len(POLE_Z))
    for i, d in enumerate(DELTAS[:, 0]):
        np.testing.assert_array_equal(got[i], specfun.gamma_ratio(POLE_Z, d))
        for j, z in enumerate(POLE_Z):
            alone = specfun.gamma_ratio(z, d)
            assert isinstance(alone, complex) and alone == got[i, j], (d, z)
    # the routes themselves: exact products through the poles, a clean 0 at a
    # pole of Gamma(z) for the others
    np.testing.assert_array_equal(got[0, :3], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(got[1, :3], [1 / 2, 1 / 6, 1 / 12])
    np.testing.assert_array_equal(got[2], np.ones(len(POLE_Z)))
    np.testing.assert_array_equal(got[3:, :3], np.zeros((4, 3)))
    assert got[3, 4] == pytest.approx(math.gamma(3.0) / math.gamma(2.5), rel=1e-14)


def test_cdh_jacobi_and_log_norm_take_one_path_for_a_triple_and_a_column():
    diag, off = specfun.cdh_jacobi(6, COLUMNS)
    assert diag.shape == (6, 2, 1) and off.shape == (5, 2, 1)
    for i, p in enumerate(EACH):
        d_i, off_i = specfun.cdh_jacobi(6, p)
        assert d_i.shape == (6,) and off_i.shape == (5,)
        np.testing.assert_array_equal(diag[:, i, 0], d_i)
        np.testing.assert_array_equal(off[:, i, 0], off_i)
        log_h = [specfun.cdh_log_norm(n, p) for n in range(6)]
        assert [specfun.cdh_log_norm(n, COLUMNS)[i, 0] for n in range(6)] == log_h
        # b_n^2 = h_n / h_{n-1}, and log h_n the sum of four log-gammas
        np.testing.assert_allclose(off_i ** 2, np.exp(np.diff(log_h)), rtol=1e-13)
        a, b, c = p.a, p.b, p.c
        for n in range(6):
            want = (math.lgamma(n + a + b) + math.lgamma(n + a + c) + math.lgamma(n + b + c)
                    + math.lgamma(n + 1.0))
            assert log_h[n] == pytest.approx(want, rel=1e-14, abs=1e-14)
    assert specfun.cdh_jacobi(1, EACH[0])[1].shape == (0,)
