import numpy as np
import pytest

from relsingosc.operators import (
    AnalyticFunction,
    compose,
    identity_op,
    linear_combination,
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
    generate_state_via_ladder,
    k_lower_pointwise,
    k_raise_pointwise,
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
    f = linear_combination([0.7, -0.2 + 0.1j], [states[0].fn, states[1].fn])
    lhs = op.apply(f)(PTS)
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
    explicit = build_momentum(P, route="explicit")
    comm = build_momentum(P, route="commutator")
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
    fns = [
        linear_combination([1.0, 0.5, -0.25, 0.125], [states[n].fn for n in range(4)]),
        linear_combination([0.3 + 0.4j, -0.7, 0.2j, 0.1], [states[n].fn for n in range(4)]),
    ]
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
