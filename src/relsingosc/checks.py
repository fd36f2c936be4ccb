"""Named verification checks over the model, shared by the CLI and the test
suite.

Grid-scoped checks take the validated points of a grid together, through a
context that holds one eigenbasis and one image table for all of them (the
points stacked on an array axis), and return one residual per point; global
checks carry their own fixed parameter sets and return one residual. Each
residual is compared against a tolerance, with the convention that smaller
is always better: negative controls (which must observe a LARGE residual)
report the margin ratio threshold/observed against tolerance 1.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from . import planewaves, specfun
from .operators import (
    AnalyticFunction,
    compose,
    identity_op,
    images,
    multiply_by,
    op_sum,
    scale,
    taylor_limit_check,
)
from .oscillator import (
    RHO_SAMPLES,
    InvalidParametersError,
    ModelParams,
    PointStack,
    RadialBasis,
    degree_axis,
    derive_params,
    energy,
    hamiltonian_radial_N,
    hamiltonian_reduced,
    nonrel_energy,
    quasipotential_scaled,
    radial_basis,
    radial_wavefunction,
    relative_residual,
    _GUARD,
)
from .quadrature import DEFAULT_RHO_MAX, cdh_gram, halfline_rule
from .symmetry import (
    LadderCoefficients,
    build_a_minus,
    build_a_plus,
    build_A_minus,
    build_A_plus,
    build_momentum,
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
    "run_grid",
    "run_global",
    "NEGATIVE_CONTROL_THRESHOLD",
]

NEGATIVE_CONTROL_THRESHOLD = 1e-3

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
    """Grid-wide cache of one eigenbasis and its image table for every point.

    The points are validated ModelParams, stacked on a points axis
    (`PointStack`): every coupling is a (P, 1) column, and the states and
    operators are read at the samples broadcast to shape (P, samples), so
    one evaluation serves the whole grid and each value is the one the
    point gets alone. A single ModelParams is the batch of one.

    The basis is R_0..R_top, top = max(n_max, min(n_max, 4) + 1, 3), which
    holds the rows of every reader: n <= n_max for the eigen checks, R_0..R_3
    for the superpositions, and R_n, R_{n+1} for ladder-action, n < top.
    `table()` maps the name of each operator of the pointwise identities to
    its image of the whole basis at the samples, shape (rows, P, samples),
    all from one read of the basis (`images`), and every pointwise check
    reduces blocks of its rows, the degree n being the leading array axis.
    `momentum-routes` reads its own R_0, and the ladder checks their
    ladder-built rows; the coefficient checks read no state, only the ladder
    scalars on arrays of degrees. Each check returns one residual per point.

    Each row is a polynomial from the recurrence that also builds the
    Gauss-CDH rule, times an envelope, so `gram()` certifies the envelope;
    the H rows of the table and `ladder_basis()` (which reads only R_0)
    certify the polynomial part.
    """

    def __init__(self, points, n_max: int = 5, rho_samples=RHO_SAMPLES):
        self.points = (points,) if isinstance(points, ModelParams) else tuple(points)
        self.params = PointStack(self.points)
        self.derived = self.params.derived
        self.n_max = int(n_max)
        self.top = max(self.n_max, min(self.n_max, 4) + 1, 3)
        self.rho_samples = tuple(rho_samples)
        pts = np.asarray(self.rho_samples, dtype=float)
        # the samples as points of the stack, shape (P, samples)
        self.samples = np.broadcast_to(pts, (len(self.points),) + pts.shape)
        self._basis: RadialBasis | None = None
        self._table: dict[str, np.ndarray] | None = None
        self._ladder_basis: RadialBasis | None = None
        self._gram: tuple[np.ndarray, np.ndarray] | None = None

    def point(self, i: int) -> GridContext:
        """The batch of point i alone, with the same settings."""
        return type(self)(self.points[i], self.n_max, self.rho_samples)

    def basis(self) -> RadialBasis:
        """R_0..R_top evaluated directly, stacked on a leading axis."""
        if self._basis is None:
            self._basis = radial_basis(self.params, self.top)
        return self._basis

    def table(self) -> dict[str, np.ndarray]:
        """Operator name -> its image of R_0..R_top at the samples, one row
        per state, shape (rows, P, samples); "R" is the basis itself."""
        if self._table is None:
            p, sigma = self.params, self.derived.alpha + self.derived.nu
            H, A_plus, A_minus = hamiltonian_reduced(p), build_A_plus(p), build_A_minus(p)
            multiplier = multiply_by(lambda z: planewaves.reduction_multiplier(z, p.N),
                                     singular_points=(0.0,))
            ops = {
                "R": identity_op(),
                "H": H,
                "factorized H": compose(scale(p.omega0), op_sum(
                    compose(build_a_plus(p), build_a_minus(p)), scale(sigma))),
                "A+": A_plus,
                "A-": A_minus,
                "H A+": compose(H, A_plus),
                "A+ H": compose(A_plus, H),
                "H A-": compose(H, A_minus),
                "A- H": compose(A_minus, H),
                "H_N m": compose(hamiltonian_radial_N(p), multiplier),
            }
            self._table = dict(zip(ops, images(tuple(ops.values()), self.basis().fn)(
                self.samples)))
        return self._table

    def ladder_basis(self) -> RadialBasis:
        """R_0..R_top, top = min(4, n_max), built as (K+)^n R_0 in one pass;
        shared by the state-generation checks."""
        if self._ladder_basis is None:
            self._ladder_basis = generate_basis_via_ladder(self.params, min(4, self.n_max))
        return self._ladder_basis

    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        """(max |G_M - I|, max |G_{M+1} - G_M|) at each point, for the Gram
        matrices G_M of R_0..R_nmax by the M- and (M+1)-point Gauss-CDH
        rules, M = n_max + 1.

        Both rules are exact for the true states, so the first entry is the
        orthonormality defect of the evaluated states and the second the
        rounding (or the departure of a state from the polynomial form) that
        one more node exposes."""
        if self._gram is None:
            M = self.n_max + 1
            rows = self.basis().fn
            fns = [lambda x: rows(x)[:M]]
            G = cdh_gram(fns, self.derived.cdh, M)
            G_next = cdh_gram(fns, self.derived.cdh, M + 1)
            self._gram = (np.max(np.abs(G - np.eye(M)), axis=(-2, -1)),
                          np.max(np.abs(G_next - G), axis=(-2, -1)))
        return self._gram


# --------------------------------------------------------------------------
# grid-scoped checks: each returns one residual per point
# --------------------------------------------------------------------------

def _worst(residuals) -> float:
    """Largest residual (0 for none); unlike the builtin max, a nan anywhere
    is kept, so the runner reports it as an error instead of dropping it."""
    return float(np.max(residuals, initial=0.0))


def _worst_per_point(*parts) -> np.ndarray:
    """Largest residual at each point. Each part holds residuals with the
    points axis last (the sample axis already reduced); a part with no rows
    gives 0, and a nan anywhere is kept, as in `_worst`."""
    return reduce(np.maximum, (r.max(axis=tuple(range(r.ndim - 1)), initial=0.0)
                               for r in map(np.asarray, parts)))


def _eigen_defects(ctx: GridContext, name: str, shift=0.0) -> np.ndarray:
    """The eigen-residual of the named image against E_n + shift, one per
    row n <= n_max of the table and point: shape (n_max + 1, P)."""
    k = ctx.n_max + 1
    table = ctx.table()
    energies = ctx.basis().energies[:k] + shift
    return relative_residual(table[name][:k], energies * table["R"][:k])


def check_eigen_residual(ctx: GridContext) -> np.ndarray:
    return _worst_per_point(_eigen_defects(ctx, "H"))


def check_eigen_negative_control(ctx: GridContext) -> np.ndarray:
    """Perturb E by 0.1 omega0; the eigen-residual must EXCEED the threshold.

    Reported residual is threshold/observed so that pass <=> residual <= 1.
    """
    observed = _eigen_defects(ctx, "H", 0.1 * ctx.params.omega0)
    # np.min and np.maximum keep a nan, where the builtins would drop it
    return NEGATIVE_CONTROL_THRESHOLD / np.maximum(np.min(observed, axis=0), _GUARD)


def check_orthonormality(ctx: GridContext) -> np.ndarray:
    return ctx.gram()[0]


def check_orthonormality_quadrature_error(ctx: GridContext) -> np.ndarray:
    return ctx.gram()[1]


def check_factorization(ctx: GridContext) -> np.ndarray:
    return _worst_per_point(_eigen_defects(ctx, "factorized H"))


def check_commutator_hamiltonian_ladder(ctx: GridContext) -> np.ndarray:
    """[H, A+-] = +-2 omega0 A+- pointwise on eigenbasis superpositions: the
    fixed coefficient vectors on R_0..R_3 applied to those rows of the
    H A+-, A+- H and A+- images. The residual is relative to the largest of
    the three terms at each point."""
    table = ctx.table()
    two_w = 2.0 * ctx.params.omega0
    resids = []
    for sign, a in ((1.0, "A+"), (-1.0, "A-")):
        # one (2, 4) x (4, samples) product per point, as the point alone
        # makes it (one product over every point's samples rounds otherwise)
        xy, yx, r = ((_SUPERPOSITIONS @ table[name][:4].swapaxes(0, 1)).swapaxes(0, 1)
                     for name in (f"H {a}", f"{a} H", a))
        r = sign * two_w * r
        den = np.maximum(np.maximum(np.abs(xy), np.abs(yx)), np.abs(r)) + _GUARD
        resids.append(np.max(np.abs(xy - yx - r) / den, axis=-1))
    return _worst_per_point(*resids)


def check_commutator_ladder_pair(ctx: GridContext) -> np.ndarray:
    """[A-, A+] on eigencomponents, in exact coefficient arithmetic:

        f(E_{n+1}) kappa_{n+1}^2 - f(E_n) kappa_n^2
            = omega0 E_n { 1 + (2/omega0^2)(E_n^2 - 1) }.
    """
    lc = LadderCoefficients.from_params(ctx.params, ctx.derived)
    om0 = ctx.params.omega0
    rung = degree_axis(ctx.params, ctx.n_max + 2, 1)
    # the n = 0 row subtracts f(E_0) kappa_0^2 = 0, so f(E_0) is never formed
    lhs = np.diff(lc.f_energy(rung) * lc.kappa(rung) ** 2, axis=0, prepend=0.0)
    e_n = energy(rung - 1, ctx.derived, om0)
    rhs = om0 * e_n * (1.0 + 2.0 / om0 ** 2 * (e_n ** 2 - 1.0))
    return _worst_per_point(relative_residual(lhs, rhs))


def check_su11_ladder_bracket(ctx: GridContext) -> np.ndarray:
    """kappa_{n+1}^2 - kappa_n^2 = 2n + alpha + nu, exactly, n <= 50."""
    n = degree_axis(ctx.params, 52)
    kappa2 = LadderCoefficients.from_params(ctx.params, ctx.derived).kappa(n) ** 2
    rhs = 2 * n[:-1] + (ctx.derived.alpha + ctx.derived.nu)
    return _worst_per_point(relative_residual(np.diff(kappa2, axis=0), rhs))


def check_casimir(ctx: GridContext) -> np.ndarray:
    """K0(K0 - 1) - K+ K- = s(s-1) I entry by entry on R_0..R_3, hence on
    every superposition of them. The matrices are diagonal, K0 = n + s and
    (K+ K-)_nn = kappa_n^2, so the diagonal of `symmetry.casimir` is
    (n + s)((n + s) - 1) - kappa_n kappa_n, taken here on the degree axis
    in the order the matrix products take it; the off-diagonal entries are
    exact zeros."""
    n = degree_axis(ctx.params, 4)
    s = ctx.derived.s
    kappa = LadderCoefficients.from_params(ctx.params, ctx.derived).kappa(n)
    return _worst_per_point(relative_residual((n + s) * ((n + s) - 1.0) - kappa * kappa,
                                              s * (s - 1.0)))


def _pointwise_match(got, want) -> np.ndarray:
    """Max |got-want| / (|want| + 1e-3 max|want|) over the samples (last
    axis), max|want| taken per row and point: relative, with a floor that
    keeps accidental proximity to a polynomial node from dividing by ~0."""
    mod = np.abs(want)
    den = mod + 1e-3 * np.max(mod, axis=-1, keepdims=True) + _GUARD
    return np.max(np.abs(got - want) / den, axis=-1)


def check_ladder_action(ctx: GridContext) -> np.ndarray:
    """Pointwise K+ R_n vs kappa_{n+1} R_{n+1} and K- R_n vs kappa_n R_{n-1},
    n < top, with K+- the spectral scalars times the A+- blocks of the table;
    K- R_0 = 0 is measured against max|R_0|."""
    lc = LadderCoefficients.from_params(ctx.params, ctx.derived)
    table = ctx.table()
    vals, n = table["R"], degree_axis(ctx.params, ctx.top + 1)
    kappa, scalar = lc.kappa(n), lc.spectral_scalar(n)
    up = scalar[1:] * table["A+"][:-1]
    down = scalar[:-1] * table["A-"][:-1]
    return _worst_per_point(
        _pointwise_match(up, kappa[1:] * vals[1:]),
        np.max(np.abs(down[0]), axis=-1) / np.max(np.abs(vals[0]), axis=-1),
        _pointwise_match(down[1:], kappa[1:-1] * vals[:-2]),
    )


def check_state_generation(ctx: GridContext) -> np.ndarray:
    """Ladder-generated R_n vs direct evaluation, pointwise, n <= 4."""
    rows = slice(1, min(4, ctx.n_max) + 1)
    got = ctx.ladder_basis().fn(ctx.samples)
    return _worst_per_point(_pointwise_match(got[rows], ctx.table()["R"][rows]))


def check_state_generation_norm(ctx: GridContext) -> np.ndarray:
    """|norm - 1| of ladder-generated states, n <= 4, by the Gauss-CDH rule
    with top + 1 nodes, exact for the true states up to n = top."""
    ladder = ctx.ladder_basis()
    G = cdh_gram([ladder.fn], ctx.derived.cdh, ladder.top + 1)
    return _worst_per_point(np.abs(np.diagonal(G, axis1=-2, axis2=-1)[:, 1:] - 1.0).T)


def check_reduction_chain(ctx: GridContext) -> np.ndarray:
    """psi = multiplier * R satisfies the unreduced N-dimensional radial
    eigen-equation at the sample points, n <= 2: the H_N m rows of the
    table against E_n m R_n."""
    k = min(2, ctx.n_max) + 1
    # the table first: at a singular sample it raises before m divides by zero
    table = ctx.table()
    m = planewaves.reduction_multiplier(ctx.samples, ctx.params.N)
    return _worst_per_point(relative_residual(table["H_N m"][:k],
                                              ctx.basis().energies[:k] * (m * table["R"][:k])))


def check_momentum_routes(ctx: GridContext) -> np.ndarray:
    """Explicit momentum operator vs its commutator definition i[H, rho]."""
    p = ctx.params
    st = radial_wavefunction(p, 0)
    explicit, comm = images((build_momentum(p), momentum_commutator(p)), st.fn)(ctx.samples)
    return _worst_per_point(relative_residual(comm, explicit))


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


def _planewave_columns(chis) -> planewaves.PlaneWaveParams:
    """Every (N, chi) for N in (2, 3, 5) and chi in chis, as (P, 1) columns."""
    N, chi = np.meshgrid((2, 3, 5), chis, indexing="ij")
    return planewaves.PlaneWaveParams(chi=chi.reshape(-1, 1), N=N.reshape(-1, 1))


def check_planewave_eigenvalue() -> float:
    pw = _planewave_columns((0.2, 0.5, 1.0))
    return _worst(planewaves.free_hamiltonian_residual(pw, _planewave_samples()))


def check_planewave_eigenvalue_rest() -> float:
    pw = _planewave_columns((0.0,))
    return _worst(planewaves.free_hamiltonian_residual(pw, _planewave_samples()))


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


# The fixed inputs of `cdh-norms`: three CDH triples as (3, 1) columns, and
# the degrees n <= _CDH_NORM_TOP.
_CDH_NORM_TRIPLES = specfun.CdhParams(
    np.array([[0.5], [1.3], [2.603388468743137]]),
    np.array([[0.5], [2.1], [10.301824164386872]]),
    np.array([[0.5], [0.4], [0.5]]),
)
_CDH_NORM_TOP = 4


def _cdh_norm_integrand(x) -> np.ndarray:
    """S_n(x^2)^2 w(x) / 2 pi for n <= _CDH_NORM_TOP at each triple of
    _CDH_NORM_TRIPLES, shape (degrees, triples, len(x)): one cdh_poly call
    per degree and one cdh_weight call."""
    p = _CDH_NORM_TRIPLES
    polys = np.stack([specfun.cdh_poly(n, x ** 2, p) for n in range(_CDH_NORM_TOP + 1)])
    return polys ** 2 * specfun.cdh_weight(x, p) / (2 * math.pi)


def check_cdh_norms() -> float:
    """Closed-form orthogonality norms h_n, n <= 4, vs one fixed Gauss-Legendre rule.

    The rule has width-1 panels of 32 nodes on [0, DEFAULT_RHO_MAX]; that
    truncation is what `choose_rho_max` gives the n = 4 envelope of the
    largest triple. It is the first level of the refinement loop of
    `integrate_halfline`, and its convergence for these fixed inputs (every
    entry against the halved-panel rule) is shown once, in the tests,
    instead of on every run. It uses the real `cdh_poly` sum, so it
    certifies h_n independently of the recurrence behind the states and the
    Gauss-CDH rule.
    """
    rule = halfline_rule(DEFAULT_RHO_MAX)
    vals = np.sum(rule.weights * _cdh_norm_integrand(rule.nodes), axis=-1)
    closed = np.stack([specfun.cdh_norm(n, _CDH_NORM_TRIPLES)[:, 0]
                       for n in range(_CDH_NORM_TOP + 1)])
    return _worst(np.abs(vals / closed - 1.0))


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


# The registry. A grid runner takes a GridContext and returns one residual
# per point, in the context's order; a global runner takes nothing and
# returns one residual. Runners are looked up here at call time.
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
          "pointwise K+- R_n vs kappa R_{n+-1}, every n < top = max(n_max, min(n_max, 4) + 1, 3)"),
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
            "closed-form polynomial norms h_n vs one fixed Gauss-Legendre rule on "
            "the float cdh_poly sum, n <= 4, three triples (independent of the "
            "recurrence)"),
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
        residual, reason = float(runner()), ""
    except Exception as exc:  # noqa: BLE001 - individual failures must not crash the run
        residual, reason = math.nan, f"error: {type(exc).__name__}: {exc}"
    return _outcome(cid, snap, tol, residual, reason, (time.perf_counter() - start) * 1e3)


def _outcome(cid, snap, tol, residual: float, reason: str, runtime_ms: float) -> CheckOutcome:
    if not (reason or math.isfinite(residual)):
        reason = f"error: non-finite residual {residual}"
    if reason:
        return CheckOutcome(cid, snap, None, tol, False, runtime_ms, status="error", reason=reason)
    return CheckOutcome(cid, snap, residual, tol, residual <= tol, runtime_ms)


def _run_grid_check(cid: str, ctx: GridContext, snaps: list, tol: float) -> list[CheckOutcome]:
    """One outcome per point of ctx, from one run of the check on the whole
    grid; the runner is looked up at call time. If it raises on several
    points, it runs again on each point as a batch of one, so every point
    gets its own residual or its own error, and a non-finite residual is an
    error of its point only. Each point is charged an equal share of the
    batch's time, plus the time of its own run if it had one."""
    start = time.perf_counter()
    try:
        residuals = np.asarray(CHECKS[cid].runner(ctx), dtype=float).reshape(len(snaps)).tolist()
        reasons = [""] * len(snaps)
    except Exception as exc:  # noqa: BLE001 - individual failures must not crash the run
        if len(snaps) > 1:
            share = (time.perf_counter() - start) * 1e3 / len(snaps)
            return [dataclasses.replace(o, runtime_ms=o.runtime_ms + share)
                    for i, snap in enumerate(snaps)
                    for o in _run_grid_check(cid, ctx.point(i), [snap], tol)]
        residuals, reasons = [math.nan], [f"error: {type(exc).__name__}: {exc}"]
    share = (time.perf_counter() - start) * 1e3 / len(snaps)
    return [_outcome(cid, snap, tol, r, why, share)
            for snap, r, why in zip(snaps, residuals, reasons)]


def run_grid(points, check_ids, tolerances: dict[str, float] | None = None,
             n_max: int = 5, rho_samples=RHO_SAMPLES) -> list[CheckOutcome]:
    """Run the selected grid-scoped checks at every grid point, one
    evaluation per check for the whole grid.

    Each point is validated on its own; an invalid one produces one skipped
    outcome per check with the validation reason. The valid points are
    stacked into one GridContext, and every check reduces to one outcome
    per point (check exceptions become error entries of the points that
    raise them). Outcomes come point by point, in the order of points.
    """
    tolerances = tolerances or {}
    grid_ids = [cid for cid in check_ids if CHECKS[cid].scope == "grid"]
    per_point: list[list[CheckOutcome]] = []
    valid, snaps, slots = [], [], []
    for point in points:
        snap = _snapshot(point)
        try:
            valid.append(_make_params(point))
        except InvalidParametersError as exc:
            per_point.append([
                CheckOutcome(cid, snap, None, None, None, 0.0,
                             status="skipped", reason=f"skipped: {exc}")
                for cid in grid_ids
            ])
            continue
        snaps.append(snap)
        slots.append([])
        per_point.append(slots[-1])
    if valid and grid_ids:
        ctx = GridContext(valid, n_max=n_max, rho_samples=rho_samples)
        for cid in grid_ids:
            tol = tolerances.get(cid, CHECKS[cid].default_tol)
            for slot, outcome in zip(slots, _run_grid_check(cid, ctx, snaps, tol)):
                slot.append(outcome)
    return [o for outcomes in per_point for o in outcomes]


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
