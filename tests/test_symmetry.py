import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relsingosc import operators, symmetry
from relsingosc.operators import (
    AnalyticFunction,
    LinearOperator,
    compose,
    identity_op,
    multiply_by,
    op_sum,
    scale,
    shift,
    sinh_shift,
)
from relsingosc.oscillator import (
    RHO_SAMPLES,
    ModelParams,
    derive_params,
    eigen_residual,
    hamiltonian_reduced,
    radial_basis,
    radial_wavefunction,
    state_decay_hint,
)
from relsingosc.quadrature import gram_matrix, integrate_halfline
from relsingosc.symmetry import (
    LadderCoefficients,
    LadderDiagnosticError,
    build_A_minus,
    build_A_plus,
    build_a_minus,
    build_a_plus,
    build_momentum,
    casimir,
    commutator_residual,
    generate_basis_via_ladder,
    generate_state_via_ladder,
    k_lower_pointwise,
    k_raise_pointwise,
    momentum_commutator,
    su11_generators,
)

P = ModelParams(N=3, l=1, omega0=0.1, g0=1.0)
D = derive_params(P)
PTS = np.asarray(RHO_SAMPLES)

# frozen 40-digit values for P: s and the Casimir s(s-1)
EX3_S = 6.452606316565005
EX3_K2 = 35.183521960009592


@pytest.fixture(scope="module")
def states():
    return {n: radial_wavefunction(P, n) for n in range(6)}


def _rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / (np.max(np.abs(b)) + 1e-300))


def _superpositions(coeffs) -> AnalyticFunction:
    """One superposition of R_0, R_1, ... per row of coeffs: coefficient
    vectors on the rows of the basis."""
    c = np.array(coeffs)
    rows = radial_basis(P, c.shape[1] - 1).fn
    return AnalyticFunction(lambda z: np.tensordot(c, rows(z), 1),
                            rows.strip_halfwidth, rows.singular_points)


def test_factorization_reproduces_hamiltonian(states):
    sigma = D.alpha + D.nu
    fact = compose(scale(P.omega0), op_sum(
        compose(build_a_plus(P), build_a_minus(P)),
        compose(scale(sigma), identity_op()),
    ))
    H = hamiltonian_reduced(P)
    for n in range(4):
        f = states[n].fn
        assert _rel(fact.apply(f)(PTS), H.apply(f)(PTS)) < 1e-8
        assert eigen_residual(fact, f, states[n].energy) < 1e-8


def test_ground_state_annihilation(states):
    ap_am = compose(build_a_plus(P), build_a_minus(P))
    out = ap_am.apply(states[0].fn)(PTS)
    assert np.max(np.abs(out)) < 1e-8 * np.max(np.abs(states[0].fn(PTS)))


def test_factorization_linearity(states):
    op = compose(build_a_plus(P), build_a_minus(P))
    f = _superpositions([(0.7, -0.2 + 0.1j)])
    lhs = op.apply(f)(PTS)[0]
    rhs = (0.7 * np.asarray(op.apply(states[0].fn)(PTS))
           + (-0.2 + 0.1j) * np.asarray(op.apply(states[1].fn)(PTS)))
    scale_ref = np.max(np.abs(np.asarray(states[1].fn(PTS)))) + np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) / scale_ref < 1e-12


def test_momentum_on_constant():
    # sinh annihilates constants; the surviving multiply-then-shift branch
    # carries the overall minus sign of the momentum operator
    Pm = build_momentum(P)
    one = AnalyticFunction(lambda z: np.ones_like(np.asarray(z, dtype=complex)), np.inf)
    rho = 1.7
    r2 = rho * (rho + 1j)
    M = 0.5 * P.omega0 ** 2 * r2 + (P.g0 + D.L * (D.L + 1) / 2) / r2
    assert Pm.apply(one)(rho) == pytest.approx(-M, rel=1e-14)


def test_momentum_commutator_route_agrees(states):
    explicit = build_momentum(P)
    comm = momentum_commutator(P)
    f = states[0].fn
    a = np.asarray(explicit.apply(f)(PTS))
    b = np.asarray(comm.apply(f)(PTS))
    assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-9


def test_momentum_nonrel_limit():
    # with step lam, the dimensionless couplings scale as lam^2 and
    # P f -> -i f' + O(lam) on fixed smooth functions
    f = AnalyticFunction(lambda z: np.exp(-0.5 * (z - 2.0) ** 2), np.inf)
    fprime = lambda r: -(r - 2.0) * np.exp(-0.5 * (r - 2.0) ** 2)
    radii = np.array([1.0, 2.5, 4.0])
    omega, g, LL1 = 1.0, 1.0, 2.0
    devs = []
    for lam in (1e-2, 5e-3, 2.5e-3):
        def factor(z, lam=lam):
            r2 = z * (z + 1j * lam)
            return 0.5 * omega ** 2 * lam ** 2 * r2 + lam ** 2 * (g + LL1 / 2) / r2

        op = compose(scale(-1.0 / lam), op_sum(
            sinh_shift(step=lam),
            compose(multiply_by(factor), shift(1j * lam)),
        ))
        got = np.asarray(op.apply(f)(radii))
        devs.append(float(np.max(np.abs(got - (-1j) * fprime(radii)))))
    assert devs[0] / devs[1] == pytest.approx(2.0, rel=0.2)


def test_ladder_proportionality_projection_first(states):
    """Quadrature projections fix the proportionality constants, then the
    pointwise images must match them everywhere sampled."""
    Ap = build_A_plus(P)
    lc = LadderCoefficients.from_params(P, D)
    hint = state_decay_hint(D, 5)
    for n in (0, 1, 2):
        image = Ap.apply(states[n].fn)
        proj = gram_matrix([states[n + 1].fn, image], hint)[0][0, 1]
        expect = -np.sqrt(lc.f_energy(n + 1)) * lc.kappa(n + 1)
        assert proj == pytest.approx(expect, rel=1e-8)
        # pointwise match against the projected constant
        got = np.asarray(image(PTS))
        want = proj * np.asarray(states[n + 1].fn(PTS))
        assert _rel(got, want) < 1e-7


def test_lowering_proportionality_and_ground_state(states):
    Am = build_A_minus(P)
    lc = LadderCoefficients.from_params(P, D)
    out0 = np.asarray(Am.apply(states[0].fn)(PTS))
    assert np.max(np.abs(out0)) < 1e-8 * np.max(np.abs(np.asarray(states[0].fn(PTS))))
    for n in (1, 2):
        got = np.asarray(Am.apply(states[n].fn)(PTS))
        want = (-np.sqrt(lc.f_energy(n)) * lc.kappa(n)
                * np.asarray(states[n - 1].fn(PTS)))
        assert _rel(got, want) < 1e-7


def test_intertwining_relation(states):
    H = hamiltonian_reduced(P)
    Ap = build_A_plus(P)
    for n in (0, 1, 2):
        image = Ap.apply(states[n].fn)
        lhs = np.asarray(H.apply(image)(PTS))
        rhs = (states[n].energy + 2 * P.omega0) * np.asarray(image(PTS))
        assert _rel(lhs, rhs) < 1e-8


def test_commutator_hamiltonian_ladder(states):
    H = hamiltonian_reduced(P)
    Ap, Am = build_A_plus(P), build_A_minus(P)
    fns = [_superpositions([(1.0, 0.5, -0.25, 0.125), (0.3 + 0.4j, -0.7, 0.2j, 0.1)])]
    assert commutator_residual(H, Ap, compose(scale(2 * P.omega0), Ap), fns, PTS) < 1e-7
    assert commutator_residual(H, Am, compose(scale(-2 * P.omega0), Am), fns, PTS) < 1e-7


def test_commutator_self_is_exactly_zero(states):
    Ap = build_A_plus(P)
    zero = compose(scale(0.0), identity_op())
    f = states[0].fn
    assert commutator_residual(Ap, Ap, zero, [f], (0.5, 2.0)) == 0.0


def test_ladder_pair_commutator_coefficient_identity():
    lc = LadderCoefficients.from_params(P, D)
    om0 = P.omega0
    for n in range(6):
        e_n = om0 * (2 * n + D.alpha + D.nu)
        lhs = lc.f_energy(n + 1) * lc.kappa(n + 1) ** 2
        if n:
            lhs -= lc.f_energy(n) * lc.kappa(n) ** 2
        rhs = om0 * e_n * (1 + 2 / om0 ** 2 * (e_n ** 2 - 1))
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_su11_bracket_exact_in_coefficients():
    k_plus, k_minus, k0 = su11_generators(P, 7)
    bracket = k_minus @ k_plus - k_plus @ k_minus
    # the top row sees the truncation of K+ and is left out
    np.testing.assert_allclose(bracket[:-1], 2 * k0[:-1], rtol=1e-12, atol=0)
    sigma = D.alpha + D.nu
    lc = LadderCoefficients.from_params(P, D)
    for n in range(51):
        assert (lc.kappa(n + 1) ** 2 - lc.kappa(n) ** 2
                == pytest.approx(2 * n + sigma, rel=1e-12))


def test_k_action_annihilates_ground():
    k_plus, k_minus, _ = su11_generators(P, 4)
    ground = np.eye(4)[0]
    assert not np.any(k_minus @ ground)
    want = LadderCoefficients.from_params(P).kappa(1) * np.eye(4)[1]
    np.testing.assert_allclose(k_plus @ ground, want, rtol=1e-12, atol=0)


def test_k_pointwise_cross_check(states):
    lc = LadderCoefficients.from_params(P, D)
    for n in (0, 1, 2, 3):
        up = np.asarray(k_raise_pointwise(states[n])(PTS))
        want = lc.kappa(n + 1) * np.asarray(states[n + 1].fn(PTS))
        assert _rel(up, want) < 1e-7
    for n in (1, 2, 3):
        down = np.asarray(k_lower_pointwise(states[n])(PTS))
        want = lc.kappa(n) * np.asarray(states[n - 1].fn(PTS))
        assert _rel(down, want) < 1e-7
    down0 = np.asarray(k_lower_pointwise(states[0])(PTS))
    assert np.max(np.abs(down0)) < 1e-7 * np.max(np.abs(np.asarray(states[0].fn(PTS))))


def test_ladder_chain_consistency(states):
    lc = LadderCoefficients.from_params(P, D)
    Ap, Am = build_A_plus(P), build_A_minus(P)
    for n in (0, 1, 2):
        # K- K+ R_n: both spectral scalars sit at E_{n+1}
        lam = -1.0 / np.sqrt(lc.f_energy(n + 1))
        chain = compose(scale(lam), Am, scale(lam), Ap)
        got = np.asarray(chain.apply(states[n].fn)(PTS))
        want = lc.kappa(n + 1) ** 2 * np.asarray(states[n].fn(PTS))
        assert _rel(got, want) < 1e-7
    for n in (1, 2):
        lam = -1.0 / np.sqrt(lc.f_energy(n))
        chain = compose(scale(lam), Ap, scale(lam), Am)
        got = np.asarray(chain.apply(states[n].fn)(PTS))
        want = lc.kappa(n) ** 2 * np.asarray(states[n].fn(PTS))
        assert _rel(got, want) < 1e-7


def test_hermiticity_proxy(states):
    Ap, Am = build_A_plus(P), build_A_minus(P)
    hint = state_decay_hint(D, 5)
    for m in range(3):
        for n in range(3):
            lhs = gram_matrix([states[m].fn, Am.apply(states[n].fn)], hint)[0][0, 1]
            rhs = gram_matrix([Ap.apply(states[m].fn), states[n].fn], hint)[0][0, 1]
            assert lhs == pytest.approx(np.conj(rhs), abs=1e-6 * (1 + abs(lhs)))


def test_casimir_values():
    target = EX3_S * (EX3_S - 1)
    assert target == pytest.approx(EX3_K2, rel=1e-13)
    c = casimir(P, 4)
    np.testing.assert_allclose(np.diag(c), EX3_K2, rtol=1e-12, atol=0)
    assert not np.any(c - np.diag(np.diag(c)))


def test_casimir_takes_a_float_size():
    # su11_generators accepts a whole float size, so casimir must too
    np.testing.assert_array_equal(casimir(P, 4.0), casimir(P, 4))
    assert all(m.shape == (4, 4) for m in su11_generators(P, 4.0))
    with pytest.raises(ValueError):
        casimir(P, 4.5)


def test_spectrum_spacing_via_casimir():
    # recover s from K^2 = s(s-1), then check E_0 = 2 omega0 s
    q = casimir(P, 1)[0, 0]
    s = 0.5 * (1 + np.sqrt(1 + 4 * q))
    st = radial_wavefunction(P, 0)
    assert st.energy == pytest.approx(2 * P.omega0 * s, rel=1e-10)


def test_generate_state_via_ladder(states):
    assert generate_state_via_ladder(P, 0).n == 0
    for n in (1, 2):
        gen = generate_state_via_ladder(P, n)
        got = np.asarray(gen.fn(PTS))
        want = np.asarray(states[n].fn(PTS))
        assert _rel(got, want) < 1e-7
        hint = state_decay_hint(D, n)
        norm, _ = integrate_halfline(lambda r: np.abs(gen.fn(r)) ** 2, hint)
        assert norm == pytest.approx(1.0, abs=1e-6)


def test_ladder_and_direct_states_share_the_norm_constant(states):
    for n in range(5):
        assert generate_state_via_ladder(P, n).norm_const == states[n].norm_const


def test_generate_state_budget_guard():
    with pytest.raises(ValueError):
        generate_state_via_ladder(P, 9)


def test_f_energy_diagnostic():
    lc = LadderCoefficients(alpha=0.3, nu=2.0, omega0=0.1)
    with pytest.raises(LadderDiagnosticError):
        lc.f_energy(0)
    good = LadderCoefficients.from_params(P)
    assert all(good.f_energy(n) > 0 for n in range(10))
    assert good.kappa(0) == 0.0


@pytest.mark.parametrize("point", [(3, 1, 0.2, 1.0), (2, 0, 0.05, 0.1), (8, 2, 0.05, 1.0)])
def test_ladder_scalars_take_every_degree_at_once(point):
    lc = LadderCoefficients.from_params(ModelParams(*point))
    n = np.arange(61)
    for name in ("kappa", "f_energy", "spectral_scalar"):
        scalar = getattr(lc, name)
        got = scalar(n)
        assert got.shape == n.shape, name
        np.testing.assert_array_equal(got, [scalar(int(k)) for k in n], err_msg=name)


def test_f_energy_on_an_array_names_the_first_non_positive_degree():
    lc = LadderCoefficients(alpha=-1.2, nu=2.0, omega0=0.1)  # f(E_n) <= 0 for n <= 1
    with pytest.raises(LadderDiagnosticError, match=r"f\(E_1\) = .* <= 0"):
        lc.f_energy(np.array([3, 1, 0]))
    with pytest.raises(LadderDiagnosticError, match=r"f\(E_0\)"):
        lc.spectral_scalar(np.arange(5))
    assert np.all(lc.f_energy(np.arange(2, 9)) > 0)


def test_ladder_basis_rows_are_the_ladder_states(states):
    basis = generate_basis_via_ladder(P, 4)
    rows = basis.fn(PTS)
    assert rows.shape == (5, len(PTS))
    np.testing.assert_array_equal(rows[0], states[0].fn(PTS))
    for n in range(1, 5):
        assert _rel(rows[n], generate_state_via_ladder(P, n).fn(PTS)) < 1e-13
        assert _rel(rows[n], states[n].fn(PTS)) < 1e-7
    with pytest.raises(ValueError):
        generate_basis_via_ladder(P, 9)


# --------------------------------------------------------------------------
# closed-form A+- against the literal (omega0 rho -+ iP)^2 construction
# --------------------------------------------------------------------------

def _tables(op, z) -> dict:
    """Offset -> coefficient row of op at the points z."""
    table = np.broadcast_to(op.coefficients(z), (len(op.offsets),) + z.shape)
    return dict(zip(op.offsets, table))


def _table_mismatch(op, ref, z) -> float:
    """Largest entrywise relative difference of two tables on the same offsets."""
    got, want = _tables(op, z), _tables(ref, z)
    assert set(got) == set(want)
    return max(float(np.max(np.abs(got[t] - want[t])
                            / (np.maximum(np.abs(got[t]), np.abs(want[t])) + 1e-300)))
               for t in want)


# the literal reference of each closed form: A+ is (omega0 rho - iP)^2, A- (omega0 rho + iP)^2
_LADDERS = {"A+": (build_A_plus, -1.0), "A-": (build_A_minus, +1.0)}

_strip_points = st.lists(
    st.builds(complex, st.floats(-20.0, 20.0), st.floats(-3.0, 3.0)), min_size=1, max_size=8)


@st.composite
def _valid_params(draw):
    """(N, l, omega0, g0) with a real spectrum: omega0 and g0 below the
    values where the discriminant 1 - 8 g0 omega0^2 - 4 omega0^2 L(L+1) turns negative."""
    N = draw(st.sampled_from((1, 2, 3, 5, 8)))
    l = 0 if N == 1 else draw(st.integers(0, 3))
    LL1 = (l + (N - 3) / 2) * (l + (N - 1) / 2)
    omega0 = draw(st.floats(0.01, 0.99)) * (min(1.0, 0.5 / np.sqrt(LL1)) if LL1 > 0 else 1.0)
    g0 = draw(st.floats(0.0, 0.99)) * min(3.0, (1 - 4 * omega0 ** 2 * LL1) / (8 * omega0 ** 2))
    return ModelParams(N=N, l=l, omega0=omega0, g0=g0)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_LADDERS)), _valid_params(), _strip_points)
def test_closed_form_ladders_are_the_literal_ones(name, p, zs):
    derive_params(p)  # a valid point
    build, inner_sign = _LADDERS[name]
    closed, literal = build(p), symmetry._ladder_quadratic(p, inner_sign)
    assert set(closed.offsets) == set(literal.offsets) == {0j, 1j, -1j, 2j, -2j}
    assert set(closed.singular_points) == set(literal.singular_points) == {0, 1j, -1j, -2j}
    z = np.array(zs)
    assume(np.min(np.abs(z[:, None] - np.array([0, 1j, -1j, -2j]))) > 1e-2)
    assert _table_mismatch(closed, literal, z) < 1e-12


def test_closed_form_comparison_catches_a_wrong_coefficient():
    # negative control: u(rho + i) replaced by u(rho) in c_{+2i}
    Ap = build_A_plus(P)
    well = 2 * P.g0 + D.L * (D.L + 1)

    def u(z):
        return 1 + P.omega0 ** 2 * z * (z + 1j) + well / (z * (z + 1j))

    def wrong_table(z):
        table = Ap.coefficients(z).copy()
        table[Ap.offsets.index(2j)] = -u(z) ** 2 / (8 * P.omega0)
        return table

    wrong = LinearOperator(Ap.offsets, wrong_table, Ap.singular_points)
    z = np.array([0.3 + 0.2j, 1.0, 2.5 - 1.0j, 7.0 + 0.5j])
    assert _table_mismatch(Ap, symmetry._ladder_quadratic(P, -1.0), z) < 1e-12
    assert _table_mismatch(wrong, symmetry._ladder_quadratic(P, -1.0), z) > 1e-2


def test_closed_form_ladders_proved_exactly():
    """The literal (omega0 rho -+ iP)^2 - w/(1 + rho^2), over 2 omega0,
    multiplied out in exact arithmetic for symbolic couplings, is the
    five-offset closed form of build_A_plus, offset by offset."""
    sp = pytest.importorskip("sympy")
    z = sp.Symbol("z")
    w0, g0, L = sp.symbols("omega0 g0 L", positive=True)
    I, half = sp.I, sp.Rational(1, 2)

    def compose2(a, b):
        out = {}
        for ta, ca in a.items():
            for tb, cb in b.items():
                out[ta + tb] = out.get(ta + tb, 0) + ca * cb.subs(z, z + ta)
        return out

    def add(a, b):
        return {t: a.get(t, 0) + b.get(t, 0) for t in set(a) | set(b)}

    well = 2 * g0 + L * (L + 1)
    M = w0 ** 2 * z * (z + I) / 2 + (g0 + L * (L + 1) / 2) / (z * (z + I))
    momentum = {I: -(half + M), -I: half}  # P = -[sinh(i d) + M e^{i d}]

    def u(x):
        return 1 + w0 ** 2 * x * (x + I) + well / (x * (x + I))

    for sign in (+1, -1):  # +1: A+ = (omega0 rho - iP)^2 ...
        B = add({0: w0 * z}, {t: -sign * I * c for t, c in momentum.items()})
        literal = {t: c / (2 * w0) for t, c in add(compose2(B, B), {0: -well / (1 + z ** 2)}).items()}
        closed = {
            -2 * I: -1 / (8 * w0),
            -I: -sign * I * (2 * z - I) / 4,
            0: (3 * w0 ** 2 * z ** 2 + 1) / (4 * w0) - well / (4 * w0 * (1 + z ** 2)),
            I: sign * I * (2 * z + I) * u(z) / 4,
            2 * I: -u(z) * u(z + I) / (8 * w0),
        }
        assert set(literal) == set(closed)
        for t in closed:
            assert sp.cancel(literal[t] - closed[t]) == 0, (sign, t)


@pytest.mark.parametrize("point", [(3, 1, 0.1, 1.0), (2, 0, 0.05, 0.1), (5, 1, 0.05, 1.0),
                                   (8, 1, 0.05, 1.0), (3, 0, 1.0, 0.1)])
def test_hamiltonian_ladder_commutator_vanishes_on_the_tables(point):
    # [H, A+-] -+ 2 omega0 A+- as one stencil: every coefficient is rounding
    p = ModelParams(*point)
    derive_params(p)  # a valid point
    H = hamiltonian_reduced(p)
    rng = np.random.default_rng(11)
    z = rng.uniform(-15, 15, 40) + 1j * rng.uniform(-2, 2, 40)
    for A, sign in ((build_A_plus(p), 1.0), (build_A_minus(p), -1.0)):
        HA = compose(H, A)
        residual = op_sum(HA, compose(scale(-1.0), A, H), compose(scale(-sign * 2 * p.omega0), A))
        size = np.max(np.abs(np.asarray(HA.coefficients(z))), axis=0)
        assert set(residual.offsets) == set(HA.offsets)
        assert np.max(np.abs(residual.coefficients(z)) / size) < 1e-13


def test_ladder_tables_build_no_composite(monkeypatch):
    def refuse(*args):
        raise AssertionError("operators._product called")

    monkeypatch.setattr(operators, "_product", refuse)
    f = radial_wavefunction(P, 1).fn
    for build in (build_A_plus, build_A_minus):
        A = build(P)
        assert A.coefficients(PTS.astype(complex)).shape == (5, len(PTS))
        assert np.all(np.isfinite(A.apply(f)(PTS)))
