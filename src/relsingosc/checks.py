"""Named verification checks over the model, shared by the CLI and the test
suite.

Grid-scoped checks take one validated parameter point (through a context
that caches the eigenstates and operators for that point); global checks
carry their own fixed parameter sets. Every check reduces to a single
scalar residual compared against a tolerance, with the convention that
smaller is always better: negative controls (which must observe a LARGE
residual) report the margin ratio threshold/observed against tolerance 1.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import planewaves, specfun
from .operators import (
    AnalyticFunction,
    compose,
    identity_op,
    images,
    op_sum,
    scale,
    taylor_limit_check,
)
from .oscillator import (
    RHO_SAMPLES,
    InvalidParametersError,
    ModelParams,
    RadialBasis,
    derive_params,
    eigen_residual,
    energy,
    hamiltonian_radial_N,
    hamiltonian_reduced,
    image_residual,
    nonrel_energy,
    quasipotential_scaled,
    radial_basis,
    radial_wavefunction,
)
from .quadrature import DecayHint, cdh_gram, integrate_halfline
from .symmetry import (
    LadderCoefficients,
    build_a_minus,
    build_a_plus,
    build_A_minus,
    build_A_plus,
    build_momentum,
    casimir,
    commutator_residual,
    generate_basis_via_ladder,
    momentum_commutator,
)

__all__ = [
    "CheckOutcome",
    "CheckDef",
    "GridContext",
    "CHECKS",
    "DEFAULT_GRID",
    "default_grid_points",
    "run_point",
    "run_global",
    "NEGATIVE_CONTROL_THRESHOLD",
]

NEGATIVE_CONTROL_THRESHOLD = 1e-3
_GUARD = 1e-300

# default verification grid; invalid combinations are auto-skipped
DEFAULT_GRID = {
    "dims": (2, 3, 5, 8),
    "l": (0, 1, 2),
    "n_max": 5,
    "omega0": (0.05, 0.2, 1.0),
    "g0": (0.1, 1.0),
}

# fixed superposition coefficients for commutator test functions
_SUPERPOSITIONS = np.array([
    (1.0, 0.5, -0.25, 0.125),
    (0.3 + 0.4j, -0.7, 0.2j, 0.1),
])


@dataclass(frozen=True)
class CheckOutcome:
    """One report entry; status 'skipped' entries carry a reason instead of
    numbers, and status 'error' entries (the check raised or returned a
    non-finite residual) carry residual None, passed False and the error as
    reason.

    params is a plain snapshot dict {N, l, omega0, g0} (None for global checks)
    so outcomes serialize directly.
    """

    check_id: str
    params: dict | None
    residual: float | None
    tolerance: float | None
    passed: bool | None
    runtime_ms: float
    status: str = "ran"
    reason: str = ""


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    scope: str  # "grid" or "global"
    default_tol: float
    runner: Callable
    description: str


class GridContext:
    """Per-parameter-point cache of the eigenbasis and the operators.

    A check reads the states as rows of one basis, `basis(top)` = R_0..R_top,
    and applies each operator to all rows at once. Each check asks for the
    rows it reads (R_0..R_nmax, R_0..R_3 for the superpositions, one more
    than the ladder rows for ladder-action).

    Each row is a polynomial from the recurrence that also builds the
    Gauss-CDH rule, times an envelope, so `gram()` certifies the envelope;
    `h_rows()` and `ladder_basis()` (which reads only R_0) certify the
    polynomial part.
    """

    def __init__(self, params: ModelParams, n_max: int = 5, rho_samples=RHO_SAMPLES):
        self.params = params
        self.n_max = int(n_max)
        self.rho_samples = tuple(rho_samples)
        self.derived = derive_params(params)
        self._bases: dict[int, RadialBasis] = {}
        self._ladder_basis: RadialBasis | None = None
        self._ops: dict[str, object] = {}
        self._gram: tuple[float, float] | None = None
        self._h_image: np.ndarray | None = None

    def basis(self, top: int) -> RadialBasis:
        """R_0..R_top evaluated directly, stacked on a leading axis."""
        if top not in self._bases:
            self._bases[top] = radial_basis(self.params, top)
        return self._bases[top]

    def ladder_basis(self) -> RadialBasis:
        """R_0..R_top, top = min(4, n_max), built as (K+)^n R_0 in one pass;
        shared by the state-generation checks."""
        if self._ladder_basis is None:
            self._ladder_basis = generate_basis_via_ladder(self.params, min(4, self.n_max))
        return self._ladder_basis

    def op(self, name: str):
        if name not in self._ops:
            builders = {
                "H": lambda: hamiltonian_reduced(self.params),
                "a-": lambda: build_a_minus(self.params),
                "a+": lambda: build_a_plus(self.params),
                "A-": lambda: build_A_minus(self.params),
                "A+": lambda: build_A_plus(self.params),
                "P": lambda: build_momentum(self.params),
            }
            self._ops[name] = builders[name]()
        return self._ops[name]

    def gram(self) -> tuple[float, float]:
        """(max |G_M - I|, max |G_{M+1} - G_M|) for the Gram matrices G_M of
        R_0..R_nmax by the M- and (M+1)-point Gauss-CDH rules, M = n_max + 1.

        Both rules are exact for the true states, so the first entry is the
        orthonormality defect of the evaluated states and the second the
        rounding (or the departure of a state from the polynomial form) that
        one more node exposes."""
        if self._gram is None:
            M = self.n_max + 1
            fns = [self.basis(self.n_max).fn]
            G = cdh_gram(fns, self.derived.cdh, M)
            G_next = cdh_gram(fns, self.derived.cdh, M + 1)
            self._gram = (float(np.max(np.abs(G - np.eye(M)))),
                          float(np.max(np.abs(G_next - G))))
        return self._gram

    def h_rows(self, shift: float = 0.0) -> np.ndarray:
        """The eigen-residual of H against E_n + shift, one per row of
        basis(n_max), from the one (H R, R) pair at the samples cached here."""
        basis = self.basis(self.n_max)
        if self._h_image is None:
            self._h_image = images((self.op("H"), identity_op()), basis.fn)(
                np.asarray(self.rho_samples, dtype=float))
        return image_residual(*self._h_image, (basis.energies + shift)[:, None])

    def energy_of(self, n: int) -> float:
        return energy(n, self.derived, self.params.omega0)

    def superpositions(self) -> AnalyticFunction:
        """The fixed superpositions of R_0..R_3, one per row: coefficient
        vectors on the rows of the basis."""
        rows = self.basis(3).fn
        return AnalyticFunction(lambda z: np.tensordot(_SUPERPOSITIONS, rows(z), 1),
                                rows.strip_halfwidth, rows.singular_points)


# --------------------------------------------------------------------------
# grid-scoped checks
# --------------------------------------------------------------------------

def _worst(residuals) -> float:
    """Largest residual (0 for none); unlike the builtin max, a nan anywhere
    is kept, so _run_check reports it as an error instead of dropping it."""
    return float(np.max(residuals, initial=0.0))


def _eigen_rows(op, basis: RadialBasis, points):
    """The eigen-residual of op, one per row of basis, from one image of
    the basis."""
    return eigen_residual(op, basis.fn, basis.energies[:, None], points)


def check_eigen_residual(ctx: GridContext) -> float:
    return _worst(ctx.h_rows())


def check_eigen_negative_control(ctx: GridContext) -> float:
    """Perturb E by 0.1 omega0; the eigen-residual must EXCEED the threshold.

    Reported residual is threshold/observed so that pass <=> residual <= 1.
    """
    observed = ctx.h_rows(0.1 * ctx.params.omega0)
    # np.min and np.maximum keep a nan, where the builtins would drop it
    return NEGATIVE_CONTROL_THRESHOLD / np.maximum(np.min(observed), _GUARD)


def check_orthonormality(ctx: GridContext) -> float:
    return ctx.gram()[0]


def check_orthonormality_quadrature_error(ctx: GridContext) -> float:
    return ctx.gram()[1]


def check_factorization(ctx: GridContext) -> float:
    sigma = ctx.derived.alpha + ctx.derived.nu
    op = compose(scale(ctx.params.omega0), op_sum(
        compose(ctx.op("a+"), ctx.op("a-")),
        compose(scale(sigma), identity_op()),
    ))
    return _worst(_eigen_rows(op, ctx.basis(ctx.n_max), ctx.rho_samples))


def check_commutator_hamiltonian_ladder(ctx: GridContext) -> float:
    """[H, A+-] = +-2 omega0 A+- pointwise on eigenbasis superpositions."""
    H = ctx.op("H")
    fns = [ctx.superpositions()]
    pts = ctx.rho_samples
    two_w = 2.0 * ctx.params.omega0
    r_plus = commutator_residual(H, ctx.op("A+"), compose(scale(two_w), ctx.op("A+")), fns, pts)
    r_minus = commutator_residual(H, ctx.op("A-"), compose(scale(-two_w), ctx.op("A-")), fns, pts)
    return _worst((r_plus, r_minus))


def check_commutator_ladder_pair(ctx: GridContext) -> float:
    """[A-, A+] on eigencomponents, in exact coefficient arithmetic:

        f(E_{n+1}) kappa_{n+1}^2 - f(E_n) kappa_n^2
            = omega0 E_n { 1 + (2/omega0^2)(E_n^2 - 1) }.
    """
    lc = LadderCoefficients.from_params(ctx.params, ctx.derived)
    om0 = ctx.params.omega0
    resids = []
    for n in range(ctx.n_max + 1):
        e_n = ctx.energy_of(n)
        lhs = lc.f_energy(n + 1) * lc.kappa(n + 1) ** 2
        if n > 0:
            lhs -= lc.f_energy(n) * lc.kappa(n) ** 2
        rhs = om0 * e_n * (1.0 + 2.0 / om0 ** 2 * (e_n ** 2 - 1.0))
        resids.append(abs(lhs - rhs) / (abs(rhs) + _GUARD))
    return _worst(resids)


def check_su11_ladder_bracket(ctx: GridContext) -> float:
    """kappa_{n+1}^2 - kappa_n^2 = 2n + alpha + nu, exactly, n <= 50."""
    lc = LadderCoefficients.from_params(ctx.params, ctx.derived)
    sigma = ctx.derived.alpha + ctx.derived.nu
    resids = []
    for n in range(51):
        lhs = lc.kappa(n + 1) ** 2 - lc.kappa(n) ** 2
        rhs = 2 * n + sigma
        resids.append(abs(lhs - rhs) / abs(rhs))
    return _worst(resids)


def check_casimir(ctx: GridContext) -> float:
    """K0(K0 - 1) - K+ K- = s(s-1) I entry by entry on R_0..R_3, hence on
    every superposition of them."""
    s = ctx.derived.s
    target = s * (s - 1.0)
    deviation = casimir(ctx.params, 4) - target * np.eye(4)
    return _worst(np.abs(deviation) / (abs(target) + _GUARD))


def _pointwise_match(got, want, floor_scale: float) -> float:
    """Max |got-want| / (|want| + 1e-3 * scale): relative, with a floor that
    keeps accidental proximity to a polynomial node from dividing by ~0."""
    got = np.asarray(got)
    want = np.asarray(want)
    den = np.abs(want) + 1e-3 * floor_scale + _GUARD
    return float(np.max(np.abs(got - want) / den))


def check_ladder_action(ctx: GridContext) -> float:
    """Pointwise K+ R_n vs kappa_{n+1} R_{n+1} and K- R_n vs kappa_n R_{n-1},
    n <= 4, with K+- the spectral scalars times the A+- images; the images
    and the plain values come from one read of the basis."""
    lc = LadderCoefficients.from_params(ctx.params, ctx.derived)
    pts = np.asarray(ctx.rho_samples)
    top = min(4, ctx.n_max)
    ups, downs, vals = images((ctx.op("A+"), ctx.op("A-"), identity_op()),
                              ctx.basis(top + 1).fn)(pts)
    resids = []
    for n in range(top + 1):
        up = lc.spectral_scalar(n + 1) * ups[n]
        want_up = lc.kappa(n + 1) * vals[n + 1]
        resids.append(_pointwise_match(up, want_up, float(np.max(np.abs(want_up)))))
        down = lc.spectral_scalar(n) * downs[n]
        if n == 0:
            resids.append(float(np.max(np.abs(down))) / float(np.max(np.abs(vals[0]))))
        else:
            want_dn = lc.kappa(n) * vals[n - 1]
            resids.append(_pointwise_match(down, want_dn, float(np.max(np.abs(want_dn)))))
    return _worst(resids)


def check_state_generation(ctx: GridContext) -> float:
    """Ladder-generated R_n vs direct evaluation, pointwise, n <= 4."""
    pts = np.asarray(ctx.rho_samples)
    top = min(4, ctx.n_max)
    want = np.asarray(ctx.basis(top).fn(pts))
    got = np.asarray(ctx.ladder_basis().fn(pts))
    return _worst([_pointwise_match(got[n], want[n], float(np.max(np.abs(want[n]))))
                   for n in range(1, top + 1)])


def check_state_generation_norm(ctx: GridContext) -> float:
    """|norm - 1| of ladder-generated states, n <= 4, by the Gauss-CDH rule
    with top + 1 nodes, exact for the true states up to n = top."""
    ladder = ctx.ladder_basis()
    G = cdh_gram([ladder.fn], ctx.derived.cdh, ladder.top + 1)
    return _worst(np.abs(np.diag(G)[1:] - 1.0))


def check_reduction_chain(ctx: GridContext) -> float:
    """psi = multiplier * R satisfies the unreduced N-dimensional radial
    eigen-equation at the sample points, n <= 2."""
    p = ctx.params
    basis = ctx.basis(min(2, ctx.n_max))
    rows = basis.fn

    def psi_eval(z):
        return planewaves.reduction_multiplier(z, p.N) * rows(z)

    psi = dataclasses.replace(basis, fn=AnalyticFunction(psi_eval, rows.strip_halfwidth))
    return _worst(_eigen_rows(hamiltonian_radial_N(p), psi, ctx.rho_samples))


def check_momentum_routes(ctx: GridContext) -> float:
    """Explicit momentum operator vs its commutator definition i[H, rho]."""
    pts = np.asarray(ctx.rho_samples)
    st = radial_wavefunction(ctx.params, 0)
    explicit = np.asarray(ctx.op("P").apply(st.fn)(pts))
    comm = np.asarray(momentum_commutator(ctx.params).apply(st.fn)(pts))
    den = np.abs(explicit) + _GUARD
    return float(np.max(np.abs(explicit - comm) / den))


# --------------------------------------------------------------------------
# global checks (own fixed parameter sets)
# --------------------------------------------------------------------------

def _loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def check_nonrel_spectrum_limit() -> float:
    """(E_0 - 1)/omega0 approaches the nonrelativistic value linearly in omega0."""
    omegas = (0.1, 0.05, 0.025)
    resids = []
    for (N, l, g0) in ((3, 0, 0.1), (3, 1, 1.0), (5, 1, 0.5)):
        devs = []
        for om0 in omegas:
            p = ModelParams(N=N, l=l, omega0=om0, g0=g0)
            d = derive_params(p)
            devs.append(abs((energy(0, d, om0) - 1.0) / om0 - nonrel_energy(0, d.L, g0)))
        resids.append(abs(_loglog_slope(omegas, devs) - 1.0))
    return _worst(resids)


def check_taylor_limit() -> float:
    """(cosh(i lam d) - 1) f + lam^2 f''/2 scales as lam^4 on Gaussians."""
    pts = np.linspace(-2.0, 2.0, 9)
    cases = (
        (lambda z: np.exp(-z ** 2), lambda x: (4 * x ** 2 - 2) * np.exp(-x ** 2)),
        (lambda z: np.exp(-0.5 * (z - 1.0) ** 2),
         lambda x: ((x - 1.0) ** 2 - 1.0) * np.exp(-0.5 * (x - 1.0) ** 2)),
    )
    lams = (0.1, 0.05, 0.025)
    resids = []
    for f, fpp in cases:
        devs = [taylor_limit_check(f, fpp, lam, pts) for lam in lams]
        resids.append(abs(_loglog_slope(lams, devs) - 4.0))
    return _worst(resids)


def _planewave_samples():
    thetas = np.linspace(0.3, np.pi - 0.3, 7)
    return [(rho, th) for rho in (1.0, 3.0, 10.0) for th in thetas]


def check_planewave_eigenvalue() -> float:
    samples = _planewave_samples()
    resids = []
    for N in (2, 3, 5):
        for chi in (0.2, 0.5, 1.0):
            pw = planewaves.PlaneWaveParams(chi=chi, N=N)
            resids.append(planewaves.free_hamiltonian_residual(pw, samples))
    return _worst(resids)


def check_planewave_eigenvalue_rest() -> float:
    samples = _planewave_samples()
    resids = []
    for N in (2, 3, 5):
        pw = planewaves.PlaneWaveParams(chi=0.0, N=N)
        resids.append(planewaves.free_hamiltonian_residual(pw, samples))
    return _worst(resids)


def check_planewave_nonrel_limit() -> float:
    lams = (1e-2, 5e-3, 2.5e-3)
    devs = [planewaves.xi_nonrel_deviation(1.3, 2.0, 0.4, lam) for lam in lams]
    return abs(_loglog_slope(lams, devs) - 1.0)


def check_quasipotential_limit() -> float:
    """Interaction operator approaches omega^2 r^2/2 + g/r^2 linearly in the step."""
    f = AnalyticFunction(lambda z: np.exp(-0.25 * z ** 2), np.inf)
    radii = np.asarray((0.8, 1.5, 3.0))
    lams = (1e-2, 1e-3)
    devs = []
    for lam in lams:
        op = quasipotential_scaled(1.0, 1.0, 5, lam)
        got = np.asarray(op.apply(f)(radii))
        want = (0.5 * radii ** 2 + 1.0 / radii ** 2) * f(radii)
        devs.append(float(np.max(np.abs(got - want))))
    return abs(_loglog_slope(lams, devs) - 1.0)


def check_gamma_identities() -> float:
    """Functional equation and reflection formula at seeded random points."""
    rng = np.random.default_rng(20260810)
    re = rng.uniform(0.1, 50.0, size=1000)
    im = rng.uniform(-50.0, 50.0, size=1000)
    z = re + 1j * im
    func = np.abs(np.exp(specfun.log_gamma(z + 1.0) - specfun.log_gamma(z) - np.log(z)) - 1.0)

    re2 = rng.uniform(-4.0, 4.0, size=500)
    re2 = np.where(np.abs(re2 - np.round(re2)) < 0.05, re2 + 0.1, re2)
    im2 = rng.uniform(-20.0, 20.0, size=500)
    w = re2 + 1j * im2
    refl = np.abs(np.exp(specfun.log_gamma(w) + specfun.log_gamma(1.0 - w)
                         + np.log(np.sin(np.pi * w) / np.pi)) - 1.0)
    return _worst((np.max(func), np.max(refl)))


def check_cdh_norms() -> float:
    """Closed-form orthogonality norms h_n, n <= 4, vs adaptive Gauss-Legendre.

    One vector integral per parameter triple, [S_n(x^2)^2 for n <= 4] times
    w(x) / 2 pi under the n = 4 envelope, each entry converged on its own.
    It uses the real `cdh_poly` sum and Legendre panels, so it certifies h_n
    independently of the recurrence behind the states and the Gauss-CDH rule.
    """
    triples = (
        specfun.CdhParams(0.5, 0.5, 0.5),
        specfun.CdhParams(1.3, 2.1, 0.4),
        specfun.CdhParams(2.603388468743137, 10.301824164386872, 0.5),
    )
    degrees = range(5)
    resids = []
    for p in triples:
        hint = DecayHint(power=2 * (p.a + p.b + p.c) + 4 * degrees[-1], rate=math.pi)
        vals, _ = integrate_halfline(
            lambda x: np.array([specfun.cdh_poly(n, x ** 2, p) for n in degrees]) ** 2
            * specfun.cdh_weight(x, p) / (2 * math.pi),
            hint,
        )
        closed = np.array([specfun.cdh_norm(n, p) for n in degrees])
        resids.extend(np.abs(vals / closed - 1.0))
    return _worst(resids)


def check_reduction_weight_identity() -> float:
    """w_3 = 1 and |multiplier|^2 w_N rho^(N-1) = 1 on the real axis."""
    rhos = np.asarray((0.2, 0.7, 1.3, 4.0, 9.5))
    resids = [np.max(np.abs(planewaves.weight_wN(rhos, 3) - 1.0))]
    for N in (2, 3, 5, 8):
        m = planewaves.reduction_multiplier(rhos, N)
        w = planewaves.weight_wN(rhos, N)
        prod = np.abs(m) ** 2 * w * rhos ** (N - 1)
        resids.append(np.max(np.abs(prod - 1.0)))
    return _worst(resids)


# --------------------------------------------------------------------------
# registry and runners
# --------------------------------------------------------------------------

def _grid(check_id, tol, runner, description):
    return CheckDef(check_id, "grid", tol, runner, description)


def _global(check_id, tol, runner, description):
    return CheckDef(check_id, "global", tol, runner, description)


CHECKS: dict[str, CheckDef] = {c.check_id: c for c in [
    _grid("eigen-residual", 1e-9, check_eigen_residual,
          "H R_n = E_n R_n pointwise, n <= n_max (certifies the polynomial part)"),
    _grid("eigen-negative-control", 1.0, check_eigen_negative_control,
          "perturbing E by 0.1 omega0 must raise the residual above 1e-3 "
          "(reports threshold/observed)"),
    _grid("orthonormality", 1e-6, check_orthonormality,
          "Gram matrix of R_0..R_nmax vs identity (Gauss-CDH rule with n_max+1 "
          "nodes, exact for the true states; certifies the envelope against the "
          "CDH weight and h_0)"),
    _grid("orthonormality-quadrature-error", 1e-8, check_orthonormality_quadrature_error,
          "change of that Gram matrix under one more Gauss-CDH node"),
    _grid("factorization", 1e-8, check_factorization,
          "omega0 (a+ a- + alpha + nu) R_n = E_n R_n pointwise"),
    _grid("commutator-hamiltonian-ladder", 1e-7, check_commutator_hamiltonian_ladder,
          "[H, A+-] = +-2 omega0 A+- on superpositions"),
    _grid("commutator-ladder-pair", 1e-8, check_commutator_ladder_pair,
          "[A-, A+] eigenvalues vs the cubic-in-H right side (coefficient arithmetic)"),
    _grid("su11-ladder-bracket", 1e-12, check_su11_ladder_bracket,
          "kappa_{n+1}^2 - kappa_n^2 = 2n + alpha + nu, n <= 50"),
    _grid("casimir-bargmann", 1e-10, check_casimir,
          "Casimir K0(K0-1) - K+K- equals s(s-1) I as a matrix on R_0..R_3"),
    _grid("ladder-action", 1e-7, check_ladder_action,
          "pointwise K+- R_n vs kappa R_{n+-1}, n <= 4"),
    _grid("state-generation", 1e-7, check_state_generation,
          "ladder-generated R_n matches direct evaluation pointwise, n <= 4 "
          "(certifies the polynomial part: the ladder reads only R_0)"),
    _grid("state-generation-norm", 1e-6, check_state_generation_norm,
          "ladder-generated R_n has unit norm by the Gauss-CDH rule, n <= 4"),
    _grid("reduction-chain", 1e-8, check_reduction_chain,
          "multiplier-mapped R_n solves the unreduced N-dimensional equation"),
    _grid("momentum-routes", 1e-9, check_momentum_routes,
          "explicit momentum operator vs its commutator definition"),
    _global("nonrel-spectrum-limit", 0.3, check_nonrel_spectrum_limit,
            "log-log slope 1 of the spectrum deviation in omega0"),
    _global("taylor-limit", 0.3, check_taylor_limit,
            "log-log slope 4 of the small-step kinetic residual"),
    _global("planewave-eigenvalue", 1e-6, check_planewave_eigenvalue,
            "free-Hamiltonian eigenvalue residual, N in {2,3,5}, chi in {0.2,0.5,1}"),
    _global("planewave-eigenvalue-rest", 1e-12, check_planewave_eigenvalue_rest,
            "free-Hamiltonian residual at chi = 0"),
    _global("planewave-nonrel-limit", 0.3, check_planewave_nonrel_limit,
            "log-log slope 1 of the plane-wave deviation in lambda_bar"),
    _global("quasipotential-limit", 0.3, check_quasipotential_limit,
            "log-log slope 1 of the interaction-operator deviation in the step"),
    _global("gamma-identities", 1e-11, check_gamma_identities,
            "gamma functional equation and reflection formula at random points"),
    _global("cdh-norms", 1e-8, check_cdh_norms,
            "closed-form polynomial norms h_n vs Gauss-Legendre quadrature of the "
            "float cdh_poly sum, n <= 4 (independent of the recurrence)"),
    _global("reduction-weight-identity", 1e-12, check_reduction_weight_identity,
            "w_3 = 1 and |multiplier|^2 w_N rho^(N-1) = 1"),
]}


def default_grid_points(grid: dict | None = None):
    """Cartesian product of the grid lists, as (N, l, omega0, g0) tuples."""
    g = dict(DEFAULT_GRID)
    if grid:
        g.update(grid)
    return [
        (N, l, om0, g0)
        for N in g["dims"]
        for l in g["l"]
        for om0 in g["omega0"]
        for g0 in g["g0"]
    ]


def _make_params(point):
    N, l, om0, g0 = point
    p = ModelParams(N=int(N), l=int(l), omega0=float(om0), g0=float(g0))
    derive_params(p)  # validates the spectrum regime
    return p


def _snapshot(point) -> dict:
    N, l, om0, g0 = point
    return {"N": int(N), "l": int(l), "omega0": float(om0), "g0": float(g0)}


def _run_check(cid: str, snap: dict | None, tol: float, runner: Callable) -> CheckOutcome:
    """One outcome; an exception or a non-finite residual becomes an error
    entry with residual None, so the report never holds inf or nan."""
    start = time.perf_counter()
    try:
        residual = float(runner())
        reason = "" if math.isfinite(residual) else f"error: non-finite residual {residual}"
    except Exception as exc:  # noqa: BLE001 - individual failures must not crash the run
        reason = f"error: {type(exc).__name__}: {exc}"
    runtime_ms = (time.perf_counter() - start) * 1e3
    if reason:
        return CheckOutcome(cid, snap, None, tol, False, runtime_ms, status="error", reason=reason)
    return CheckOutcome(cid, snap, residual, tol, residual <= tol, runtime_ms)


def run_point(point, check_ids, tolerances: dict[str, float] | None = None,
              n_max: int = 5, rho_samples=RHO_SAMPLES) -> list[CheckOutcome]:
    """Run the selected grid-scoped checks at one grid point.

    Invalid parameter combinations produce one skipped outcome per check
    with the validation reason; check exceptions become error entries.
    """
    tolerances = tolerances or {}
    grid_ids = [cid for cid in check_ids if CHECKS[cid].scope == "grid"]
    snap = _snapshot(point)
    try:
        params = _make_params(point)
    except InvalidParametersError as exc:
        return [
            CheckOutcome(cid, snap, None, None, None, 0.0,
                         status="skipped", reason=f"skipped: {exc}")
            for cid in grid_ids
        ]

    ctx = GridContext(params, n_max=n_max, rho_samples=rho_samples)
    outcomes = []
    for cid in grid_ids:
        cdef = CHECKS[cid]
        tol = tolerances.get(cid, cdef.default_tol)
        outcomes.append(_run_check(cid, snap, tol, lambda: cdef.runner(ctx)))
    return outcomes


def run_global(check_ids, tolerances: dict[str, float] | None = None) -> list[CheckOutcome]:
    tolerances = tolerances or {}
    outcomes = []
    for cid in check_ids:
        cdef = CHECKS[cid]
        if cdef.scope != "global":
            continue
        tol = tolerances.get(cid, cdef.default_tol)
        outcomes.append(_run_check(cid, None, tol, cdef.runner))
    return outcomes
