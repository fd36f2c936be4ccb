"""Physics core of the relativistic singular oscillator model.

Internal unit system: the Compton wavelength, hbar, the mass, and c are all
1, so the radial coordinate rho = r / lambda_bar is dimensionless, energies
are in units of mc^2, and the two model couplings enter as

    omega0 = hbar * omega / (m c^2)      (oscillator strength)
    g0     = m * g / hbar^2              (inverse-square coupling)

The reduced radial Hamiltonian is the finite-difference operator

    H = cosh(i d/drho)
        + [ L(L+1) / (2 rho^(2)) + omega0^2 rho^(2) / 2 + g0 / rho^(2) ] e^{i d/drho}

with rho^(2) = rho (rho + i) the generalized square and L = l + (N-3)/2 the
effective angular momentum after reducing the N-dimensional radial problem.
Its eigenfunctions combine a generalized degree, an oscillating power of
omega0, a gamma factor, and a continuous dual Hahn polynomial; the spectrum
is E_n = omega0 (2n + alpha + nu).
"""

from __future__ import annotations

import functools
import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import specfun
from .operators import (
    AnalyticFunction,
    LinearOperator,
    compose,
    cosh_shift,
    identity_op,
    images,
    multiply_by,
    op_sum,
    shift,
    sinh_shift,
    _stack,
)
from .quadrature import DecayHint

__all__ = [
    "ModelParams",
    "DerivedParams",
    "PointStack",
    "RadialState",
    "RadialBasis",
    "InvalidParametersError",
    "derive_params",
    "degree_axis",
    "energy",
    "nonrel_energy",
    "radial_wavefunction",
    "radial_basis",
    "norm_constant",
    "state_decay_hint",
    "quasipotential_op",
    "quasipotential_scaled",
    "hamiltonian_reduced",
    "hamiltonian_radial_N",
    "eigen_residual",
    "relative_residual",
    "RHO_SAMPLES",
    "STATE_STRIP_HALFWIDTH",
]

# residual sample points: away from the removable zero at rho = 0 and from
# the deep tail where |R| underflows
RHO_SAMPLES = (0.3, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)

# declared analyticity strip of eigenfunctions: wide enough for the deepest
# operator chains in use (commutators: 4 units; ladder generation: 2 per rung)
STATE_STRIP_HALFWIDTH = 18.0

# added to the denominator of every relative residual: keeps a zero
# reference value from dividing by zero
_GUARD = 1e-300
_LN2 = math.log(2.0)


class InvalidParametersError(ValueError):
    """Model parameters outside the real-spectrum regime (or plain invalid)."""


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs: dimension N, orbital quantum number l, couplings."""

    N: int
    l: int
    omega0: float
    g0: float

    def __post_init__(self):
        if self.N < 1 or self.N != int(self.N):
            raise InvalidParametersError(f"dimension N must be a positive integer, got {self.N}")
        if self.l < 0 or self.l != int(self.l):
            raise InvalidParametersError(f"orbital number l must be a non-negative integer, got {self.l}")
        if self.N == 1 and self.l != 0:
            raise InvalidParametersError("N = 1 requires l = 0")
        if not self.omega0 > 0:
            raise InvalidParametersError(f"omega0 must be positive, got {self.omega0}")

    @property
    def L(self) -> float:
        return self.l + (self.N - 3) / 2.0


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from ModelParams: effective L, alpha, nu, Bargmann s."""

    L: float
    alpha: float
    nu: float
    s: float
    D: float

    @functools.cached_property
    def cdh(self) -> specfun.CdhParams:
        """The continuous dual Hahn triple (alpha, nu, 1/2) of the radial states."""
        return specfun.CdhParams(self.alpha, self.nu, 0.5)


class PointStack:
    """Validated parameter points stacked on a points axis.

    Each point is a ModelParams checked and derived on its own; the stack
    holds their couplings (N, l, omega0, g0, L) and their DerivedParams
    fields as (P, 1) columns, which broadcast against a trailing sample
    axis. The state and operator builders (`radial_basis`,
    `radial_wavefunction`, the Hamiltonians, and in `symmetry` the a+-,
    A+-, momentum and ladder-basis builders) take a stack in place of a
    ModelParams; their functions are then read at points of shape
    (..., P, samples), point i at row i, so one evaluation serves the whole
    grid. A point alone and a row of a stack run the same elementwise
    arithmetic (`specfun` has one path for scalars and columns), so each
    point gets the digits it gets alone.
    """

    def __init__(self, points):
        self.points = tuple(points)
        if not self.points:
            raise ValueError("a point stack needs at least one point")
        rows = [derive_params(p) for p in self.points]

        def column(values):
            return np.array(list(values), dtype=float)[:, None]

        self.N, self.l, self.omega0, self.g0, self.L = (
            column(getattr(p, name) for p in self.points)
            for name in ("N", "l", "omega0", "g0", "L"))
        self.derived = DerivedParams(*(column(getattr(d, f) for d in rows)
                                       for f in ("L", "alpha", "nu", "s", "D")))


def derive_params(p: ModelParams | PointStack) -> DerivedParams:
    """Compute alpha/nu from the couplings (a stack's are derived per point
    when it is built, and returned as columns).

    With D = 1 - 8 g0 omega0^2 - 4 omega0^2 L(L+1),

        alpha = 1/2 + sqrt(1 + (2/omega0^2)(1 - sqrt(D))) / 2
        nu    = 1/2 + sqrt(1 + (2/omega0^2)(1 + sqrt(D))) / 2

    The alpha radicand is formed as 1 + 2(8 g0 + 4 L(L+1))/(1 + sqrt(D)),
    the same number without the cancellation in 1 - sqrt(D), which would
    cost about eps/omega0^2 of relative accuracy.
    Both square roots are taken real-positive; parameters where D < 0 or the
    alpha radicand goes negative (oscillatory collapse regime) are rejected
    with a diagnostic rather than continued into the complex plane.
    """
    if isinstance(p, PointStack):
        return p.derived
    L = p.L
    w2 = p.omega0 ** 2
    D = 1.0 - 8.0 * p.g0 * w2 - 4.0 * w2 * L * (L + 1.0)
    if D < 0:
        raise InvalidParametersError(
            f"discriminant-negative: D = {D:.6g} < 0 for omega0={p.omega0}, g0={p.g0}, L={L}"
        )
    sD = np.sqrt(D)
    rad_alpha = 1.0 + 2.0 * (8.0 * p.g0 + 4.0 * L * (L + 1.0)) / (1.0 + sD)
    rad_nu = 1.0 + (2.0 / w2) * (1.0 + sD)
    if rad_alpha < 0:
        raise InvalidParametersError(
            f"alpha radicand negative ({rad_alpha:.6g}) for omega0={p.omega0}, g0={p.g0}, L={L}"
        )
    alpha = 0.5 + 0.5 * np.sqrt(rad_alpha)
    nu = 0.5 + 0.5 * np.sqrt(rad_nu)
    if not alpha > 0:
        raise InvalidParametersError(f"derived alpha = {alpha} not positive")
    return DerivedParams(L=L, alpha=float(alpha), nu=float(nu),
                         s=float((alpha + nu) / 2.0), D=float(D))


def degree_axis(p: ModelParams | PointStack, stop: int, start: int = 0) -> np.ndarray:
    """The degrees start..stop-1 as an integer array that broadcasts against
    the parameters: shape (k,) for one point, (k, 1, 1) for a stack, whose
    values then carry the points axis next to the samples."""
    return np.arange(start, stop).reshape((-1,) + (1,) * np.ndim(p.omega0))


def energy(n, d: DerivedParams, omega0: float):
    """Bound-state energy E_n = omega0 (2n + alpha + nu) in units of mc^2, for
    one degree n or elementwise for an integer array of degrees."""
    return omega0 * (2 * n + d.alpha + d.nu)


def nonrel_energy(n: int, L: float, g0: float) -> float:
    """(E - mc^2)/(hbar omega) in the omega0 -> 0 limit: 2n + 1 + sqrt((L+1/2)^2 + 2 g0)."""
    rad = (L + 0.5) ** 2 + 2.0 * g0
    if rad < 0:
        raise InvalidParametersError(f"(L+1/2)^2 + 2 g0 = {rad:.6g} < 0")
    return 2 * n + 1 + float(np.sqrt(rad))


@dataclass(frozen=True)
class RadialState:
    """A normalized radial eigenfunction with its quantum numbers and energy."""

    params: ModelParams
    derived: DerivedParams
    n: int
    energy: float
    norm_const: float
    fn: AnalyticFunction

    def __call__(self, rho):
        return self.fn(rho)


def _state_rows(p: ModelParams, d: DerivedParams, lowest: int, top: int):
    """R_lowest..R_top, stacked on a new leading axis, as an AnalyticFunction
    that also reads itself on offsets (`shifted`):

        R_n(rho) = sqrt(2) s_n(rho^2) E(rho),
        E(rho) = (-rho)^(alpha) exp(ln Gamma(nu + i rho) + i rho ln omega0 - ln(h_0) / 2),

    with s_n = S_n(rho^2; alpha, nu, 1/2) sqrt(h_0 / h_n) the rows of
    `specfun.cdh_orthonormal`. The 1/Gamma(i rho) inside the generalized
    degree makes every state vanish at rho = 0 (and at rho = i k); the
    only true poles sit at rho = i(alpha + k), i(nu + k) on the imaginary
    axis. Only h_0 enters, in logs, so no state overflows where h_n does.

    On offsets, the s_n are taken at every stacked point, and E once per
    class of offsets a whole multiple of i apart (`_classes`), at the
    member nearest the real axis; the other members follow from it by the
    exact ratios of `_envelope_lattice`, so offset 0 is read as `ev` reads
    it and the shifted values share the rounding of their base.
    """
    alpha, nu, cdh = d.alpha, d.nu, d.cdh
    om0 = p.omega0
    log_om0 = np.log(om0)
    log_scale = 0.5 * (_LN2 - specfun.cdh_log_norm(0, cdh))

    def envelope(r):
        return specfun.generalized_degree(-r, alpha) * np.exp(
            specfun.log_gamma(nu + 1j * r) + 1j * r * log_om0 + log_scale)

    def ev(rho):
        r = np.asarray(rho, dtype=complex)
        return envelope(r) * specfun.cdh_orthonormal(top, r ** 2, cdh, lowest)

    def shifted(taus):
        classes = _classes(taus)

        def ev_shifted(z):
            r = _stack(z, taus)
            env = np.empty(r.shape, dtype=complex)
            for base, members, ks in classes:
                w = 1j * r[base]
                bad = _lattice_poles(w, ks.max(), alpha, nu)
                with np.errstate(all="ignore") if bad is not None else nullcontext():
                    lattice = _envelope_lattice(envelope(r[base]), w, ks, alpha, nu, om0)
                env[members] = lattice[ks - ks.min()]
                if bad is not None:  # a gamma pole on the lattice: read directly there
                    for i in members:
                        env[i] = np.where(bad, envelope(r[i]), env[i])
            return env * specfun.cdh_orthonormal(top, r ** 2, cdh, lowest)

        return ev_shifted

    return AnalyticFunction(ev, STATE_STRIP_HALFWIDTH, shifted=shifted)


def _classes(taus) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The offsets split into classes whose members lie a whole multiple of
    i apart, as (base, members, ks): members are the indices into taus, base
    the index of the member with the least |Im tau| (the upper one on a
    tie), and taus[member] = taus[base] + i k. An offset with a real part
    is a class of its own."""
    groups: dict = {}
    for i, t in enumerate(complex(t) for t in taus):
        groups.setdefault(t.imag % 1.0 if t.real == 0 else (i,), []).append(i)
    out = []
    for members in groups.values():
        ys = [complex(taus[i]).imag for i in members]
        y0 = min(ys, key=lambda y: (abs(y), -y))
        ks = [y - y0 for y in ys]
        if all(k.is_integer() for k in ks):
            out.append((members[ys.index(y0)], np.array(members), np.array(ks, dtype=int)))
        else:  # not on one lattice after all: each offset alone
            out.extend((i, np.array([i]), np.zeros(1, dtype=int)) for i in members)
    return out


def _envelope_lattice(base, w, ks, alpha, nu, om0) -> np.ndarray:
    """E at r + i k for k = min(ks)..max(ks), stacked on a new leading axis,
    from base = E(r) and w = i r:

        E(r + i k) / E(r + i (k - 1)) = (w - k) / ((alpha + w - k)(nu + w - k) omega0)

    (Gamma(x + 1) = x Gamma(x), DLMF 5.5.1), so the rows above the base are
    running products of these factors, those below running products of
    their inverses, each in the order a loop would take them."""
    kmin, kmax = int(ks.min()), int(ks.max())
    b = -kmin
    out = np.empty((kmax - kmin + 1,) + w.shape, dtype=complex)
    out[b] = base
    tail = (1,) * w.ndim
    if kmax:
        up = out[b + 1:]
        np.subtract(w, np.arange(1, kmax + 1).reshape((-1,) + tail), out=up)
        np.divide(up, (alpha + up) * (nu + up) * om0, out=up)
        np.cumprod(out[b:], axis=0, out=out[b:])
    if kmin:
        down = out[b - 1::-1]
        np.add(w, np.arange(-kmin).reshape((-1,) + tail), out=down)
        np.divide((alpha + down) * (nu + down) * om0, down, out=down)
        np.cumprod(out[b::-1], axis=0, out=out[b::-1])
    return out


def _lattice_poles(w, kmax: int, alpha, nu):
    """Where the lattice from w meets a gamma pole, as a mask over w, or
    None when it meets none: one of w, alpha + w, nu + w is an integer
    <= kmax, which needs a real w, i.e. a base point on the imaginary axis."""
    if not (w.imag == 0).any():
        return None
    bad = False
    for x in (w, alpha + w, nu + w):
        bad = bad | ((x.imag == 0) & (x.real == np.floor(x.real)) & (x.real <= kmax))
    return bad if np.any(bad) else None


def state_decay_hint(d: DerivedParams, n_max: int) -> DecayHint:
    """Envelope for |R_m R_n| integrands: rho^(2 alpha + 2 nu - 1 + 4 n) e^(-pi rho)."""
    return DecayHint(power=2 * d.alpha + 2 * d.nu - 1 + 4 * n_max)


def norm_constant(n: int, d: DerivedParams) -> float | np.ndarray:
    """C_n = sqrt(2/h_n), with h_n the continuous dual Hahn norm at (alpha, nu, 1/2),
    so that R_n = C_n S_n(rho^2) E(rho) sqrt(h_0 / 2). It does not enter the
    values of the states. Where h_n is a float this is
    sqrt(2 / specfun.cdh_norm(n, d.cdh)) bit for bit; where h_n overflows
    one, it is formed from log h_n."""
    log_h = specfun.cdh_log_norm(n, d.cdh)
    with np.errstate(over="ignore"):
        h = np.exp(log_h)
    return np.where(h < np.inf, np.sqrt(2.0 / h), np.exp(0.5 * (_LN2 - log_h)))[()]


def _check_degree(n) -> int:
    if n < 0 or n != int(n):
        raise ValueError("radial quantum number n must be a non-negative integer")
    return int(n)


def radial_wavefunction(p: ModelParams, n: int) -> RadialState:
    """The unit-norm bound state R_n: the recurrence of `radial_basis` run
    to degree n, with the envelope multiplied into row n only, so its values
    equal row n of radial_basis(p, top) bit for bit for every top >= n."""
    n = _check_degree(n)
    d = derive_params(p)
    rows = _state_rows(p, d, n, n)

    def ev(rho):
        out = rows.fn(rho)[0]
        return out if np.ndim(rho) else complex(out)

    def shifted(taus):
        read = rows.shifted(taus)
        return lambda z: read(z)[0]

    return RadialState(
        params=p, derived=d, n=n, energy=energy(n, d, p.omega0), norm_const=norm_constant(n, d),
        fn=AnalyticFunction(ev, STATE_STRIP_HALFWIDTH, shifted=shifted),
    )


@dataclass(frozen=True)
class RadialBasis:
    """The bound states R_0..R_top: fn(rho) holds R_n(rho) in row n of a new
    leading axis, and energies[n] belongs to row n."""

    params: ModelParams
    derived: DerivedParams
    energies: np.ndarray
    fn: AnalyticFunction

    @property
    def top(self) -> int:
        return len(self.energies) - 1


def radial_basis(p: ModelParams | PointStack, top: int) -> RadialBasis:
    """R_0..R_top stacked: one evaluation computes the envelope once and
    every row in one pass of the recurrence, so row n equals
    radial_wavefunction(p, n).fn bit for bit. For a stack, the values at
    points of shape (..., P, samples) are (top + 1, ..., P, samples) and
    the energies (top + 1, P, 1)."""
    top = _check_degree(top)
    d = derive_params(p)
    return RadialBasis(
        params=p, derived=d, energies=energy(degree_axis(p, top + 1), d, p.omega0),
        fn=_state_rows(p, d, 0, top),
    )


def hamiltonian_reduced(p: ModelParams) -> LinearOperator:
    """Reduced dimensionless radial Hamiltonian (energies in mc^2):

        cosh(i d) + [L(L+1)/(2 rho^(2)) + omega0^2 rho^(2)/2 + g0/rho^(2)] e^{i d}.

    Singular at rho = 0 and rho = -i, where rho^(2) vanishes.
    """
    LL1 = p.L * (p.L + 1.0)
    half_w2 = 0.5 * p.omega0 ** 2
    g0 = p.g0

    def factor(z):
        r2 = z * (z + 1j)
        return (LL1 / 2.0 + g0) / r2 + half_w2 * r2

    return op_sum(
        cosh_shift(),
        compose(multiply_by(factor, singular_points=(0.0, -1.0j)), shift(1.0j)),
    )


def quasipotential_scaled(omega: float, g: float, N: int, lam: float) -> LinearOperator:
    """Interaction operator with an explicit step lam (Compton wavelength):

        { m omega^2 r (r + i lam)^2 / [2 (r - i lam (N-3)/2)]
          + g / (r [r - i lam (N-3)/2]) } e^{i lam d/dr}

    with m = hbar = 1. As lam -> 0 on fixed smooth functions this tends to
    multiplication by omega^2 r^2 / 2 + g / r^2, deviation O(lam).
    """
    off = 1j * lam * (N - 3) / 2.0

    def factor(r):
        shifted = r - off
        return (0.5 * omega ** 2 * r * (r + 1j * lam) ** 2 / shifted
                + g / (r * shifted))

    return compose(multiply_by(factor, singular_points=_points(0.0, off)), shift(1j * lam))


def _points(*values) -> tuple:
    """Singular points as scalars: a column (one value per stacked point)
    gives each of its distinct values."""
    return tuple(v for x in values for v in (np.unique(x).tolist() if np.ndim(x) else (x,)))


def quasipotential_op(p: ModelParams) -> LinearOperator:
    """Dimensionless quasipotential (internal units, step 1)."""
    return quasipotential_scaled(p.omega0, p.g0, p.N, 1.0)


def hamiltonian_radial_N(p: ModelParams) -> LinearOperator:
    """Unreduced N-dimensional radial Hamiltonian (free part plus quasipotential):

        cosh(i d) + i(N-1)/(2 rho) sinh(i d)
        + l(l+N-2) / (rho [2 rho - i(N-3)]) e^{i d} + V.

    At N = 3 this collapses to the three-dimensional radial operator with
    sinh coefficient i/rho and centrifugal term l(l+1)/(2 rho^2).
    """
    N, l = p.N, p.l
    cent = l * (l + N - 2)

    def sinh_coeff(z):
        return 1j * (N - 1) / (2.0 * z)

    def cent_coeff(z):
        return cent / (z * (2.0 * z - 1j * (N - 3)))

    return op_sum(
        cosh_shift(),
        compose(multiply_by(sinh_coeff, singular_points=(0.0,)), sinh_shift()),
        compose(multiply_by(cent_coeff, singular_points=_points(0.0, 1j * (N - 3) / 2.0)),
                shift(1.0j)),
        quasipotential_op(p),
    )


def eigen_residual(op: LinearOperator, state_fn: AnalyticFunction, e_value,
                   points=RHO_SAMPLES):
    """Max relative pointwise residual |(op f)(rho) - E f(rho)| / (|E f(rho)| + guard)
    over the points: a float for one state; for a function with leading axes
    (a basis, with e_value one energy per row as shape (rows, 1)), one
    residual per row. The image and the values come from one read of f."""
    image, values = images((op, identity_op()), state_fn)(np.asarray(points, dtype=float))
    return relative_residual(image, e_value * values)


def relative_residual(got, want):
    """max |got - want| / (|want| + 1e-300) over the last axis: a float
    where that leaves no axis, else one residual per leading index."""
    out = np.max(np.abs(got - want) / (np.abs(want) + _GUARD), axis=-1)
    return float(out) if out.ndim == 0 else out
