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
)
from .quadrature import DecayHint

__all__ = [
    "ModelParams",
    "DerivedParams",
    "RadialState",
    "RadialBasis",
    "InvalidParametersError",
    "derive_params",
    "energy",
    "nonrel_energy",
    "wavefunction_profile",
    "radial_wavefunction",
    "radial_basis",
    "norm_constant",
    "state_decay_hint",
    "quasipotential_op",
    "quasipotential_scaled",
    "hamiltonian_reduced",
    "hamiltonian_radial_N",
    "eigen_residual",
    "image_residual",
    "RHO_SAMPLES",
    "STATE_STRIP_HALFWIDTH",
]

# residual sample points: away from the removable zero at rho = 0 and from
# the deep tail where |R| underflows
RHO_SAMPLES = (0.3, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)

# declared analyticity strip of eigenfunctions: wide enough for the deepest
# operator chains in use (commutators: 4 units; ladder generation: 2 per rung)
STATE_STRIP_HALFWIDTH = 18.0

_RESIDUAL_GUARD = 1e-300
# exp(x) is a finite float exactly when x <= log(DBL_MAX)
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


class InvalidParametersError(ValueError):
    """Model parameters outside the real-spectrum regime (or plain invalid)."""

    def __init__(self, message, *, omega0=None, g0=None, L=None):
        super().__init__(message)
        self.omega0 = omega0
        self.g0 = g0
        self.L = L


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

    @property
    def cdh(self) -> specfun.CdhParams:
        """The continuous dual Hahn triple (alpha, nu, 1/2) of the radial states."""
        return specfun.CdhParams(self.alpha, self.nu, 0.5)


def derive_params(p: ModelParams) -> DerivedParams:
    """Compute alpha/nu from the couplings.

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
    L = p.L
    w2 = p.omega0 ** 2
    D = 1.0 - 8.0 * p.g0 * w2 - 4.0 * w2 * L * (L + 1.0)
    if D < 0:
        raise InvalidParametersError(
            f"discriminant-negative: D = {D:.6g} < 0 for omega0={p.omega0}, g0={p.g0}, L={L}",
            omega0=p.omega0, g0=p.g0, L=L,
        )
    sD = np.sqrt(D)
    rad_alpha = 1.0 + 2.0 * (8.0 * p.g0 + 4.0 * L * (L + 1.0)) / (1.0 + sD)
    rad_nu = 1.0 + (2.0 / w2) * (1.0 + sD)
    if rad_alpha < 0:
        raise InvalidParametersError(
            f"alpha radicand negative ({rad_alpha:.6g}) for omega0={p.omega0}, g0={p.g0}, L={L}",
            omega0=p.omega0, g0=p.g0, L=L,
        )
    alpha = 0.5 + 0.5 * np.sqrt(rad_alpha)
    nu = 0.5 + 0.5 * np.sqrt(rad_nu)
    if not alpha > 0:
        raise InvalidParametersError(
            f"derived alpha = {alpha} not positive", omega0=p.omega0, g0=p.g0, L=L
        )
    return DerivedParams(L=L, alpha=float(alpha), nu=float(nu),
                         s=float((alpha + nu) / 2.0), D=float(D))


def energy(n: int, d: DerivedParams, omega0: float) -> float:
    """Bound-state energy E_n = omega0 (2n + alpha + nu) in units of mc^2."""
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


def _envelope(p: ModelParams, d: DerivedParams):
    """The n-independent factor (-rho)^(alpha) omega0^(i rho) Gamma(nu + i rho)
    of every eigenfunction, as a function of complex rho."""
    alpha, nu, log_om0 = d.alpha, d.nu, np.log(p.omega0)

    def ev(r):
        degree = specfun.generalized_degree(-r, alpha)
        return degree * np.exp(specfun.log_gamma(nu + 1j * r) + 1j * r * log_om0)

    return ev


def wavefunction_profile(p: ModelParams, n: int, d: DerivedParams | None = None) -> AnalyticFunction:
    """Unnormalized eigenfunction profile

        (-rho)^(alpha) * omega0^(i rho) * Gamma(nu + i rho) * S_n(rho^2; alpha, nu, 1/2)

    evaluated through log-gamma differences so the gamma ratio stays finite
    everywhere in the strip. The 1/Gamma(i rho) factor makes the profile
    vanish at rho = 0 (and at rho = i k on the imaginary axis); the only
    true poles sit at rho = i(alpha + k), i(nu + k), also on the imaginary
    axis, so evaluation anywhere with Re rho != 0 is safe.
    """
    if n < 0 or n != int(n):
        raise ValueError("radial quantum number n must be a non-negative integer")
    d = d or derive_params(p)
    envelope, cdh = _envelope(p, d), d.cdh

    def ev(rho):
        r = np.asarray(rho, dtype=complex)
        out = envelope(r) * specfun.cdh_poly(n, r ** 2, cdh)
        return out if np.ndim(rho) else complex(out)

    return AnalyticFunction(ev, STATE_STRIP_HALFWIDTH)


def state_decay_hint(d: DerivedParams, n_max: int) -> DecayHint:
    """Envelope for |R_m R_n| integrands: rho^(2 alpha + 2 nu - 1 + 4 n) e^(-pi rho)."""
    return DecayHint(power=2 * d.alpha + 2 * d.nu - 1 + 4 * n_max)


def norm_constant(n: int, d: DerivedParams) -> float:
    """C_n = sqrt(2/h_n), with h_n the continuous dual Hahn norm at (alpha, nu, 1/2);
    raises where h_n overflows a float (nu >~ 100, omega0 <~ 0.01) instead of
    returning 0."""
    log_h = specfun.cdh_log_norm(n, d.cdh)
    if not log_h <= _LOG_FLOAT_MAX:
        raise InvalidParametersError(f"norm constant sqrt(2/h_{n}) is not finite and positive: "
                                     f"h_{n} = exp({log_h:.6g}) overflows for "
                                     f"alpha={d.alpha:.6g}, nu={d.nu:.6g}")
    return float(np.sqrt(2.0 / np.exp(log_h)))


def radial_wavefunction(p: ModelParams, n: int) -> RadialState:
    """Unit-norm bound state norm_constant(n, d) * wavefunction_profile(p, n, d)."""
    d = derive_params(p)
    profile = wavefunction_profile(p, n, d)
    c = norm_constant(n, d)
    return RadialState(
        params=p, derived=d, n=int(n), energy=energy(n, d, p.omega0), norm_const=c,
        fn=AnalyticFunction(lambda rho: c * profile.fn(rho), profile.strip_halfwidth,
                            profile.singular_points),
    )


@dataclass(frozen=True)
class RadialBasis:
    """The bound states R_0..R_top: fn(rho) holds R_n(rho) in row n of a new
    leading axis, and energies[n], norm_consts[n] belong to row n."""

    params: ModelParams
    derived: DerivedParams
    energies: np.ndarray
    norm_consts: np.ndarray
    fn: AnalyticFunction

    @property
    def top(self) -> int:
        return len(self.energies) - 1


def radial_basis(p: ModelParams, top: int) -> RadialBasis:
    """R_0..R_top stacked: one evaluation computes the envelope once and every
    S_n in one pass of the `cdh_polys` sum, so row n equals
    radial_wavefunction(p, n).fn bit for bit. Raises for the first n whose
    norm constant overflows, as radial_wavefunction(p, n) does."""
    if top < 0 or top != int(top):
        raise ValueError("top must be a non-negative integer")
    top = int(top)
    d = derive_params(p)
    c = np.array([norm_constant(n, d) for n in range(top + 1)])
    envelope, cdh = _envelope(p, d), d.cdh

    def ev(rho):
        r = np.asarray(rho, dtype=complex)
        rows = envelope(r) * specfun.cdh_polys(top, r ** 2, cdh)
        return c.reshape((-1,) + (1,) * r.ndim) * rows

    return RadialBasis(
        params=p, derived=d, energies=np.array([energy(n, d, p.omega0) for n in range(top + 1)]),
        norm_consts=c, fn=AnalyticFunction(ev, STATE_STRIP_HALFWIDTH),
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

    sing = (0.0, off) if N != 3 else (0.0,)
    return compose(multiply_by(factor, singular_points=sing), shift(1j * lam))


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
    cent = float(l * (l + N - 2))

    def sinh_coeff(z):
        return 1j * (N - 1) / (2.0 * z)

    def cent_coeff(z):
        return cent / (z * (2.0 * z - 1j * (N - 3)))

    return op_sum(
        cosh_shift(),
        compose(multiply_by(sinh_coeff, singular_points=(0.0,)), sinh_shift()),
        compose(multiply_by(cent_coeff, singular_points=(0.0, 1j * (N - 3) / 2.0)),
                shift(1.0j)),
        quasipotential_op(p),
    )


def eigen_residual(op: LinearOperator, state_fn: AnalyticFunction, e_value,
                   points=RHO_SAMPLES):
    """Max relative pointwise residual |(op f)(rho) - E f(rho)| / (|E f(rho)| + guard)
    over the points: a float for one state; for a function with leading axes
    (a basis, with e_value one energy per row as shape (rows, 1)), one
    residual per row. The image and the values come from one read of f."""
    pts = np.asarray(points, dtype=float)
    return image_residual(*images((op, identity_op()), state_fn)(pts), e_value)


def image_residual(image, values, e_value):
    """eigen_residual from op f and f already taken at the points (last axis)."""
    rhs = e_value * values
    out = np.max(np.abs(image - rhs) / (np.abs(rhs) + _RESIDUAL_GUARD), axis=-1)
    return float(out) if out.ndim == 0 else out
