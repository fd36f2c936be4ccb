import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsingosc import operators, symmetry
from relsingosc.operators import (
    AnalyticFunction,
    SingularPointError,
    StripExhaustedError,
    compose,
    cosh_shift,
    identity_op,
    images,
    multiply_by,
    op_sum,
    powers,
    scale,
    shift,
    sinh_shift,
    taylor_limit_check,
)
from relsingosc.oscillator import RHO_SAMPLES, ModelParams, hamiltonian_reduced, radial_wavefunction
from scipy.special import rgamma

RNG = np.random.default_rng(7)


def entire(fn):
    return AnalyticFunction(fn, np.inf)


def test_shift_basic():
    f = entire(lambda z: z ** 2)
    assert shift(1j).apply(f)(1.0) == pytest.approx((1 + 1j) ** 2)
    pts = RNG.uniform(-2, 2, 10)
    g = shift(0.0).apply(f)
    assert np.allclose(g(pts), f(pts))


def test_shift_composition_law():
    f = entire(lambda z: np.exp(0.3 * z) + z ** 3)
    pts = RNG.uniform(-1, 1, 8)
    lhs = compose(shift(0.5j), shift(0.5j)).apply(f)(pts)
    rhs = shift(1j).apply(f)(pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_cosh_sinh_on_reference_functions():
    k = 0.83
    f = entire(lambda z: np.exp(k * z))
    pts = RNG.uniform(-1, 1, 6)
    got = cosh_shift().apply(f)(pts)
    assert np.allclose(got, np.cos(k) * np.exp(k * pts), rtol=1e-14)
    one = entire(lambda z: np.ones_like(np.asarray(z, dtype=complex)))
    assert np.allclose(sinh_shift().apply(one)(pts), 0.0)
    assert np.allclose(cosh_shift().apply(one)(pts), 1.0)


def test_sum_of_cancelling_branches_is_zero():
    A = compose(multiply_by(lambda z: z + 2.0), shift(1j))
    op = op_sum(compose(scale(2.0), A), compose(scale(-2.0), A))
    f = entire(lambda z: np.exp(-z ** 2))
    pts = RNG.uniform(-1, 1, 10)
    assert np.max(np.abs(op.apply(f)(pts))) == 0.0


def test_operator_ordering_oracle():
    # multiply-then-shift equals shift-composed-with-displaced-factor:
    # both give (rho + i) f(rho + i)
    f = entire(lambda z: rgamma(1j * z))
    left = compose(shift(1j), multiply_by(lambda z: z)).apply(f)(0.7)
    right = compose(multiply_by(lambda z: z + 1j), shift(1j)).apply(f)(0.7)
    assert left == pytest.approx(right, rel=1e-13)
    assert left == pytest.approx((0.7 + 1j) * f(0.7 + 1j), rel=1e-13)


def test_linearity_property():
    ops = [
        cosh_shift(),
        compose(multiply_by(lambda z: 1.0 / (1.0 + z ** 2)), shift(1j)),
        op_sum(sinh_shift(), scale(0.25)),
    ]
    f = entire(lambda z: np.exp(-0.5 * z ** 2))
    g = entire(lambda z: 1.0 / (2.0 + z ** 2))
    pts = RNG.uniform(-1.5, 1.5, 9)
    for op in ops:
        a, b = complex(*RNG.uniform(-2, 2, 2)), complex(*RNG.uniform(-2, 2, 2))
        # the superposition as a coefficient vector on the rows f, g
        combo = entire(lambda z, c=np.array([a, b]): np.tensordot(c, np.stack([f(z), g(z)]), 1))
        lhs = op.apply(combo)(pts)
        rhs = a * op.apply(f)(pts) + b * op.apply(g)(pts)
        scale_ref = np.max(np.abs(rhs)) + 1e-30
        assert np.max(np.abs(lhs - rhs)) / scale_ref < 1e-13


def test_cosh_sq_minus_sinh_sq_on_exponentials():
    op = op_sum(
        compose(cosh_shift(), cosh_shift()),
        compose(scale(-1.0), sinh_shift(), sinh_shift()),
    )
    pts = RNG.uniform(-1, 1, 7)
    for k in (0.2, 1.0, 2.3):
        f = entire(lambda z, kk=k: np.exp(kk * z))
        got = op.apply(f)(pts)
        assert np.max(np.abs(got - f(pts))) / np.max(np.abs(f(pts))) < 1e-12


def test_strip_accounting_raises_instead_of_wrong_value():
    f = AnalyticFunction(lambda z: np.exp(-z ** 2), strip_halfwidth=1.0)
    shift(0.5j).apply(f)  # fine
    with pytest.raises(StripExhaustedError):
        shift(1.5j).apply(f)
    g = shift(1j).apply(f)  # consumes the whole strip
    assert g.strip_halfwidth == pytest.approx(0.0)
    with pytest.raises(StripExhaustedError):
        cosh_shift().apply(g)
    # compose sums budgets, sum takes the max
    assert compose(shift(1j), shift(0.5j)).shift_budget == pytest.approx(1.5)
    assert op_sum(shift(1j), shift(0.5j)).shift_budget == pytest.approx(1.0)
    with pytest.raises(StripExhaustedError):
        compose(shift(1j), shift(0.5j)).apply(f)


def test_real_shift_consumes_no_budget():
    assert shift(2.0).shift_budget == 0.0
    assert shift(2.0 + 0.25j).shift_budget == pytest.approx(0.25)


def test_singular_point_error():
    op = multiply_by(lambda z: 1.0 / z, singular_points=(0.0,))
    f = entire(lambda z: np.ones_like(np.asarray(z, dtype=complex)))
    g = op.apply(f)
    assert g(2.0) == pytest.approx(0.5)
    with pytest.raises(SingularPointError):
        g(0.0)
    with pytest.raises(SingularPointError):
        g(np.array([1.0, 0.0]))


def test_identity_and_apply_function():
    f = entire(lambda z: z ** 3 - 2.0 * z)
    pts = RNG.uniform(-2, 2, 10)
    assert np.allclose(identity_op().apply(f)(pts), f(pts))


def test_taylor_limit_quadratic_is_exact():
    res = taylor_limit_check(lambda z: z ** 2, lambda x: 2.0 * np.ones_like(x),
                             0.2, np.linspace(-2, 2, 9))
    assert res < 1e-15


def test_taylor_limit_gaussian_fourth_order():
    f = lambda z: np.exp(-z ** 2)
    fpp = lambda x: (4 * x ** 2 - 2) * np.exp(-x ** 2)
    pts = np.linspace(-2, 2, 9)
    r1 = taylor_limit_check(f, fpp, 0.1, pts)
    r2 = taylor_limit_check(f, fpp, 0.05, pts)
    assert r1 / r2 == pytest.approx(16.0, rel=0.2)


def test_taylor_limit_cosine_closed_form():
    lam = 0.1
    pts = np.linspace(-2, 2, 9)
    res = taylor_limit_check(np.cos, lambda x: -np.cos(x), lam, pts)
    expect = abs(np.cosh(lam) - 1 - lam ** 2 / 2) * np.max(np.abs(np.cos(pts)))
    assert res == pytest.approx(expect, rel=1e-10)


# --------------------------------------------------------------------------
# stencil normal form
# --------------------------------------------------------------------------

P3 = ModelParams(N=3, l=1, omega0=0.2, g0=1.0)


def test_products_collapse_to_their_offsets():
    Ap = symmetry.build_A_plus(P3)
    HA = compose(hamiltonian_reduced(P3), Ap)
    assert set(HA.offsets) == {0j, 1j, -1j, 2j, -2j, 3j, -3j}
    assert len(HA.offsets) == 7
    assert len(compose(*[Ap] * 4).offsets) <= 17


def test_image_evaluates_its_argument_once_per_call(monkeypatch):
    calls = []
    direct = symmetry.radial_wavefunction

    def counted_state(p, n):
        state = direct(p, n)

        def ev(z, _f=state.fn.fn):
            calls.append(np.shape(z))
            return _f(z)

        return dataclasses.replace(state, fn=AnalyticFunction(ev, state.fn.strip_halfwidth))

    monkeypatch.setattr(symmetry, "radial_wavefunction", counted_state)
    pts = np.asarray(RHO_SAMPLES)
    r0 = symmetry.radial_wavefunction(P3, 0)
    image = compose(hamiltonian_reduced(P3), symmetry.build_A_plus(P3)).apply(r0.fn)
    calls.clear()
    image(pts)
    image(pts[1])
    assert calls == [(7, 7), (7,)]

    r4 = symmetry.generate_state_via_ladder(P3, 4)
    calls.clear()
    r4.fn(pts)
    assert len(calls) == 1


def test_a_long_grid_is_read_in_blocks():
    # each read of the state covers a block of the grid whose stacked
    # points stay near _BLOCK_POINTS, and the blocks cover the grid once
    state = radial_wavefunction(P3, 2).fn
    reads = []

    def recorded(taus, _rule=state.shifted):
        ev = _rule(taus)

        def read(z):
            reads.append((len(taus), np.shape(z)))
            return ev(z)

        return read

    f = AnalyticFunction(state.fn, state.strip_halfwidth, shifted=recorded)
    H, Ap = hamiltonian_reduced(P3), symmetry.build_A_plus(P3)
    rho = np.linspace(0.3, 20.0, 5000)
    H.apply(f)(rho)
    assert reads == [(2, (1666,)), (2, (1667,)), (2, (1667,))]
    reads.clear()
    # the outer image reads its 2 x 5000 stacked points in 3 blocks, and
    # the inner one each of its 5 x 2 x ~1667 in 5 more
    H.apply(Ap.apply(f))(rho)
    assert len(reads) == 15
    assert max(k * np.prod(shape) for k, shape in reads) <= operators._BLOCK_POINTS
    assert sum(np.prod(shape) for _, shape in reads) == 2 * len(rho)


@pytest.mark.parametrize("kind", ["H", "H A+", "A+ H", "powers", "ladder"])
def test_a_long_grid_gives_each_point_its_value_alone(kind):
    # bit for bit: numpy reuses a temporary of 256 KiB or more in place,
    # which swaps the operands of a product and can change its last bit;
    # read in one piece, the 3000-point table of (A+)^3 did, and no block
    # is that large
    H, Ap = hamiltonian_reduced(P3), symmetry.build_A_plus(P3)
    f = radial_wavefunction(P3, 2).fn
    image = {
        "H": lambda: H.apply(f),
        "H A+": lambda: H.apply(Ap.apply(f)),
        "A+ H": lambda: Ap.apply(H.apply(f)),
        "powers": lambda: powers(Ap, 3, f),
        "ladder": lambda: symmetry.generate_basis_via_ladder(P3, 4).fn,
    }[kind]()
    rho = np.sort(np.random.default_rng(11).uniform(0.3, 20.0, 3000))
    values = image(rho)
    for k in range(0, len(rho), 97):
        np.testing.assert_array_equal(values[..., k:k + 1], image(rho[k:k + 1]))


_numbers = st.floats(-2.0, 2.0, allow_nan=False)
_offsets = st.builds(complex, st.floats(-1.0, 1.0), st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0)))


def _polynomial(cs):
    return multiply_by(lambda z: sum(c * z ** k for k, c in enumerate(cs)))


_stencils = st.recursive(
    st.one_of(
        _offsets.map(shift),
        st.builds(complex, _numbers, _numbers).map(scale),
        st.lists(_numbers, min_size=1, max_size=3).map(_polynomial),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: compose(*ab)),
        st.tuples(inner, inner).map(lambda ab: op_sum(*ab)),
    ),
    max_leaves=4,
)
_TEST_FN = entire(lambda z: np.exp(0.5 * z) + np.cos(z) * z ** 2)
_PTS = np.linspace(-1.0, 1.0, 5)


def _same_image(a, b, rel=1e-12):
    x, y = a.apply(_TEST_FN)(_PTS), b.apply(_TEST_FN)(_PTS)
    scale_ref = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    return float(np.max(np.abs(x - y))) <= rel * scale_ref


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_stencils, _stencils)
def test_normal_form_matches_nested_application(a, b):
    # the stencils of a b and a + b against their definitions on a function
    x = compose(a, b).apply(_TEST_FN)(_PTS)
    y = a.apply(b.apply(_TEST_FN))(_PTS)
    assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, float(np.max(np.abs(y))))
    x = op_sum(a, b).apply(_TEST_FN)(_PTS)
    y = a.apply(_TEST_FN)(_PTS) + b.apply(_TEST_FN)(_PTS)
    assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, float(np.max(np.abs(y))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_stencils, _stencils, _stencils)
def test_compose_is_associative(a, b, c):
    assert _same_image(compose(compose(a, b), c), compose(a, compose(b, c)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_stencils, _stencils, _stencils)
def test_compose_distributes_over_sum(a, b, c):
    assert _same_image(compose(a, op_sum(b, c)), op_sum(compose(a, b), compose(a, c)))
    assert _same_image(compose(op_sum(a, b), c), op_sum(compose(a, c), compose(b, c)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_offsets, _offsets)
def test_shift_products_add_offsets(a, b):
    x = compose(shift(a), shift(b)).apply(_TEST_FN)(_PTS)
    y = shift(a + b).apply(_TEST_FN)(_PTS)
    assert np.max(np.abs(x - y) / np.abs(y)) <= 1e-12


_ROW_OPS = {
    "H": hamiltonian_reduced(P3),
    "A+": symmetry.build_A_plus(P3),
    "A-": symmetry.build_A_minus(P3),
    "(A+)^4": compose(*[symmetry.build_A_plus(P3)] * 4),
}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_ROW_OPS)),
       st.lists(st.tuples(_numbers, _numbers), min_size=1, max_size=6),
       st.sampled_from(((), (2,), (3, 1))),
       st.lists(st.floats(0.2, 15.0), min_size=1, max_size=5))
def test_leading_axes_pass_through_apply(name, rates, extra, pts):
    # rows exp(a z) (1 + b z^2), stacked with leading shape (rows,) + extra:
    # one application equals applying the operator to each row on its own
    op = _ROW_OPS[name]
    a = np.array([r[0] for r in rates]).reshape((-1,) + (1,) * len(extra))
    b = np.array([r[1] for r in rates]).reshape(a.shape)
    a, b = np.broadcast_to(a, a.shape[:1] + extra), np.broadcast_to(b, a.shape[:1] + extra)
    lead = a.shape

    def rows(z):
        zz = np.asarray(z)[(None,) * len(lead)]
        return np.exp(a.reshape(lead + (1,) * np.ndim(z)) * zz) * (
            1 + b.reshape(lead + (1,) * np.ndim(z)) * zz ** 2)

    pts = np.asarray(pts)
    stacked = op.apply(entire(rows))(pts)
    assert stacked.shape == lead + pts.shape
    for idx in np.ndindex(*lead):
        one = op.apply(entire(lambda z, i=idx: rows(z)[i]))(pts)
        np.testing.assert_array_equal(stacked[idx], one)


def test_powers_are_the_compose_chains_from_one_read():
    Ap = symmetry.build_A_plus(P3)
    r0 = symmetry.radial_wavefunction(P3, 0).fn
    calls = []

    def counted(z):
        calls.append(np.shape(z))
        return r0(z)

    pts = np.asarray(RHO_SAMPLES)
    rows = powers(Ap, 4, AnalyticFunction(counted, r0.strip_halfwidth))(pts)
    assert rows.shape == (5, 7) and calls == [(17, 7)]
    np.testing.assert_array_equal(rows[0], r0(pts))
    for n in range(1, 5):
        want = compose(*[Ap] * n).apply(r0)(pts)
        assert np.max(np.abs(rows[n] - want)) <= 1e-13 * np.max(np.abs(want))
    assert powers(Ap, 0, r0)(pts).shape == (1, 7)
    with pytest.raises(StripExhaustedError):
        powers(Ap, 3, AnalyticFunction(r0.fn, 5.0))


# --------------------------------------------------------------------------
# images: several operators from one read
# --------------------------------------------------------------------------

_IMAGE_OPS = dict(_ROW_OPS, **{
    "H A+": compose(hamiltonian_reduced(P3), symmetry.build_A_plus(P3)),
    "A- H": compose(symmetry.build_A_minus(P3), hamiltonian_reduced(P3)),
    "1": identity_op(),
})


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(sorted(_IMAGE_OPS)), min_size=1, max_size=4),
       st.sampled_from(((), (3,), (2, 2))),
       st.lists(st.floats(0.2, 15.0), min_size=1, max_size=5))
def test_images_are_the_applied_rows_from_one_read(names, lead, pts):
    ops = [_IMAGE_OPS[n] for n in names]
    a = np.linspace(-0.5, 0.5, int(np.prod(lead))).reshape(lead)
    calls = []

    def rows(z):
        calls.append(np.shape(z))
        zz = np.asarray(z)
        return np.exp(a.reshape(lead + (1,) * zz.ndim) * zz) / (2.0 + zz ** 2)

    f = AnalyticFunction(rows, 10.0)
    pts = np.asarray(pts)
    stacked = images(ops, f)(pts)
    assert stacked.shape == (len(ops),) + lead + pts.shape
    assert len(calls) == 1
    for op, row in zip(ops, stacked):
        want = op.apply(f)(pts)
        assert np.max(np.abs(row - want)) <= 1e-14 * max(1.0, float(np.max(np.abs(want))))


def test_images_keep_the_strip_and_singular_point_checks():
    f = AnalyticFunction(lambda z: np.exp(-z ** 2), strip_halfwidth=1.0)
    assert images([shift(0.5j), shift(-1j)], f).strip_halfwidth == pytest.approx(0.0)
    with pytest.raises(StripExhaustedError):
        shift(1.5j).apply(f)
    with pytest.raises(StripExhaustedError):
        images([shift(0.5j), shift(1.5j)], f)
    inverse = multiply_by(lambda z: 1.0 / z, singular_points=(0.0,))
    g = images([identity_op(), inverse], f)
    assert g.singular_points == inverse.apply(f).singular_points
    np.testing.assert_allclose(g(2.0), [f(2.0), f(2.0) / 2.0], rtol=1e-15)
    for bad in (0.0, np.array([1.0, 0.0])):
        with pytest.raises(SingularPointError):
            inverse.apply(f)(bad)
        with pytest.raises(SingularPointError):
            g(bad)
    with pytest.raises(ValueError):
        images([], f)
