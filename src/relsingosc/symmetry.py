"""Dynamical symmetry layer: factorization operators, generalized momentum,
ladder operators, and the su(1,1) realization they generate.

The algebra is realized twice and the two must agree:

* pointwise, by the finite-difference operators A+- acting on evaluable
  wavefunctions, and
* on the eigenbasis, where K+ R_n = kappa_{n+1} R_{n+1} with
  kappa_n = sqrt(n (n + alpha + nu - 1)), K- = (K+)^T and the compact
  generator K0 R_n = (n + s) R_n: `su11_generators` returns the three as
  matrices on R_0..R_{size-1}.

Functions of the Hamiltonian (the f^(-1/2) factors converting A+- into
unit-normalized ladder maps) have no closed pointwise form for a
finite-difference operator; they are realized spectrally, i.e. as scalars
on eigencomponents (`LadderCoefficients.spectral_scalar`). With the
normalization constants fixed positive real, the measured proportionality
constants of A+- come out negative real, so the pointwise ladder maps carry
an explicit extra minus sign to keep every ladder constant positive (a pure
convention; the algebra is unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    AnalyticFunction,
    LinearOperator,
    compose,
    multiply_by,
    op_sum,
    scale,
    shift,
    sinh_shift,
)
from .oscillator import (
    DerivedParams,
    ModelParams,
    RadialState,
    derive_params,
    energy,
    hamiltonian_reduced,
    norm_constant,
    radial_wavefunction,
)

__all__ = [
    "LadderCoefficients",
    "LadderDiagnosticError",
    "build_a_minus",
    "build_a_plus",
    "build_momentum",
    "build_A_minus",
    "build_A_plus",
    "su11_generators",
    "k_raise_pointwise",
    "k_lower_pointwise",
    "casimir",
    "commutator_residual",
    "generate_state_via_ladder",
]

_GUARD = 1e-300
# largest n of the pointwise (K+)^n route; each rung consumes two units of
# the strip of R_0
MAX_RUNGS = 8


class LadderDiagnosticError(RuntimeError):
    """f(E_n) not positive; the spectral square root is undefined there."""


@dataclass(frozen=True)
class LadderCoefficients:
    """Scalar ladder data on the eigenbasis.

    kappa(n) = sqrt(n (n + alpha + nu - 1)) with kappa(0) = 0;
    f_energy(n) = omega0^2 (2n + 2 alpha - 1)(2n + 2 nu - 1), the value of
    f(E_n) = [E_n + omega0(alpha - nu - 1)][E_n + omega0(nu - alpha - 1)].
    """

    alpha: float
    nu: float
    omega0: float

    def kappa(self, n: int) -> float:
        if n <= 0:
            return 0.0
        return float(np.sqrt(n * (n + self.alpha + self.nu - 1.0)))

    def f_energy(self, n: int) -> float:
        val = self.omega0 ** 2 * (2 * n + 2 * self.alpha - 1.0) * (2 * n + 2 * self.nu - 1.0)
        if val <= 0:
            raise LadderDiagnosticError(
                f"f(E_{n}) = {val:.6g} <= 0 for alpha={self.alpha}, nu={self.nu}"
            )
        return float(val)

    def spectral_scalar(self, n: int) -> float:
        """-f(E_n)^(-1/2), the spectral scalar turning A+- images into unit
        ladder steps. The minus sign fixes the ladder constants positive real
        (the raw proportionality constants of A+- are negative with positive
        norm constants and the principal-branch degree phase)."""
        return -1.0 / np.sqrt(self.f_energy(n))

    @classmethod
    def from_params(cls, p: ModelParams, d: DerivedParams | None = None):
        d = d or derive_params(p)
        return cls(alpha=d.alpha, nu=d.nu, omega0=p.omega0)


def _rho_times() -> LinearOperator:
    return multiply_by(lambda z: z)


def _factorization(p: ModelParams, sign: float) -> LinearOperator:
    """(1/sqrt(2 omega0)) [ e^{-(i/2) d} - omega0 (forward half-shift with the
    factor (nu + sign i rho)(1 + sign alpha/(i rho))) ]: inside the shift for
    sign = +1 (a-), outside it for sign = -1 (a+). Singular at rho = 0."""
    d = derive_params(p)
    alpha, nu, om0 = d.alpha, d.nu, p.omega0

    def factor(z):
        return (nu + sign * 1j * z) * (1.0 + sign * alpha / (1j * z))

    times = multiply_by(factor, singular_points=(0.0,))
    forward = (shift(0.5j), times) if sign > 0 else (times, shift(0.5j))
    pref = 1.0 / np.sqrt(2.0 * om0)
    return compose(scale(pref), op_sum(shift(-0.5j), compose(scale(-om0), *forward)))


def build_a_minus(p: ModelParams) -> LinearOperator:
    """Annihilation-side factorization operator (half-unit shifts):

        (1/sqrt(2 omega0)) [ e^{-(i/2) d} - omega0 e^{+(i/2) d} (nu + i rho)(1 + alpha/(i rho)) ]

    Note the multiplication factor sits inside the forward half-shift.
    """
    return _factorization(p, +1.0)


def build_a_plus(p: ModelParams) -> LinearOperator:
    """Creation-side factorization operator, Hermitian conjugate of build_a_minus:

        (1/sqrt(2 omega0)) [ e^{-(i/2) d} - omega0 (nu - i rho)(1 - alpha/(i rho)) e^{+(i/2) d} ]
    """
    return _factorization(p, -1.0)


def build_momentum(p: ModelParams, route: str = "explicit") -> LinearOperator:
    """Generalized momentum operator in units of mc.

    route="explicit":

        P = -[ sinh(i d) + ( omega0^2 rho^(2)/2 + (g0 + L(L+1)/2)/rho^(2) ) e^{i d} ]

    route="commutator": P = i [H, rho] built literally as operator chains.
    Both constructions agree pointwise (they are compared in the test
    suite); the explicit multiplication term enters with a plus sign, which
    is what the commutator identity fixes.
    """
    if route == "commutator":
        H = hamiltonian_reduced(p)
        rho_op = _rho_times()
        return compose(scale(1j), op_sum(compose(H, rho_op), compose(scale(-1.0), rho_op, H)))
    if route != "explicit":
        raise ValueError(f"unknown momentum route {route!r}")

    d = derive_params(p)
    c_inv = p.g0 + d.L * (d.L + 1.0) / 2.0
    half_w2 = 0.5 * p.omega0 ** 2

    def factor(z):
        r2 = z * (z + 1j)
        return half_w2 * r2 + c_inv / r2

    return compose(scale(-1.0), op_sum(
        sinh_shift(),
        compose(multiply_by(factor, singular_points=(0.0, -1.0j)), shift(1.0j)),
    ))


def _ladder_quadratic(p: ModelParams, inner_sign: float) -> LinearOperator:
    """(omega0 rho + inner_sign * i P)^2 - (2 g0 + L(L+1))/(1 + rho^2), as
    a literal compose of sums (no manual simplification), over 2 omega0."""
    d = derive_params(p)
    P = build_momentum(p)
    B = op_sum(compose(scale(p.omega0), _rho_times()), compose(scale(inner_sign * 1j), P))
    well = 2.0 * p.g0 + d.L * (d.L + 1.0)

    def well_factor(z):
        return -well / (1.0 + z * z)

    return compose(
        scale(1.0 / (2.0 * p.omega0)),
        op_sum(compose(B, B), multiply_by(well_factor, singular_points=(1j, -1j))),
    )


def build_A_minus(p: ModelParams) -> LinearOperator:
    """Lowering operator: (1/2 omega0)[(omega0 rho + iP)^2 - (2g0 + L(L+1))/(1+rho^2)].

    Consumes two units of strip (the momentum operator is applied twice).
    """
    return _ladder_quadratic(p, +1.0)


def build_A_plus(p: ModelParams) -> LinearOperator:
    """Raising operator: (1/2 omega0)[(omega0 rho - iP)^2 - (2g0 + L(L+1))/(1+rho^2)]."""
    return _ladder_quadratic(p, -1.0)


def su11_generators(p: ModelParams, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K+, K- and K0 as size x size matrices on R_0..R_{size-1}:

        K+ R_n = kappa_{n+1} R_{n+1},   K- = (K+)^T,   K0 R_n = (n + s) R_n,

    K0 being the Hamiltonian in units of 2 omega0. K+ is truncated: its
    image of R_{size-1} leaves the span and is dropped.
    """
    if size < 1 or size != int(size):
        raise ValueError("size must be a positive integer")
    d = derive_params(p)
    lc = LadderCoefficients.from_params(p, d)
    k_plus = np.diag([lc.kappa(n) for n in range(1, int(size))], -1)
    return k_plus, k_plus.T, np.diag(np.arange(size) + d.s)


def casimir(p: ModelParams, size: int) -> np.ndarray:
    """The Casimir K0(K0 - 1) - K+ K- as a size x size matrix; it equals
    s(s-1) I (K- acts first, so the truncation of K+ never shows)."""
    k_plus, k_minus, k0 = su11_generators(p, size)
    return k0 @ (k0 - np.eye(size)) - k_plus @ k_minus


def k_raise_pointwise(state: RadialState) -> AnalyticFunction:
    """K+ R_n as an evaluable function: the spectral scalar -f(E_{n+1})^(-1/2)
    times A+ R_n; equals kappa_{n+1} R_{n+1} up to the verified residual."""
    lc = LadderCoefficients.from_params(state.params, state.derived)
    Ap = build_A_plus(state.params)
    return compose(scale(lc.spectral_scalar(state.n + 1)), Ap).apply(state.fn)


def k_lower_pointwise(state: RadialState) -> AnalyticFunction:
    """K- R_n = -f(E_n)^(-1/2) A- R_n; equals kappa_n R_{n-1} (zero for n = 0)."""
    lc = LadderCoefficients.from_params(state.params, state.derived)
    Am = build_A_minus(state.params)
    return compose(scale(lc.spectral_scalar(state.n)), Am).apply(state.fn)


def commutator_residual(X: LinearOperator, Y: LinearOperator, rhs: LinearOperator,
                        testfns, points) -> float:
    """Max relative pointwise residual of (XY - YX - rhs) over test functions.

    The denominator is the largest of |XYf|, |YXf|, |rhs f| at each point
    (plus an underflow guard), so [X, X] against rhs = 0 is exactly zero.
    """
    pts = np.asarray(points, dtype=float)
    resids = []
    for f in testfns:
        xy = X.apply(Y.apply(f))(pts)
        yx = Y.apply(X.apply(f))(pts)
        r = rhs.apply(f)(pts)
        num = np.abs(xy - yx - r)
        den = np.maximum(np.maximum(np.abs(xy), np.abs(yx)), np.abs(r)) + _GUARD
        resids.append(np.max(num / den))
    return float(np.max(resids, initial=0.0))  # unlike the builtin max, keeps a nan


def generate_state_via_ladder(p: ModelParams, n: int) -> RadialState:
    """Build R_n = (K+)^n R_0 / (kappa_1 ... kappa_n) through the pointwise route.

    (K+)^n is the n-fold product of the raising operator with the spectral
    scalars multiplied out, one stencil with at most 4n + 1 offsets, and it
    is applied to R_0 once. The shift budget limits the pointwise route to
    n <= MAX_RUNGS.
    """
    if n < 0 or n != int(n):
        raise ValueError("n must be a non-negative integer")
    if n > MAX_RUNGS:
        raise ValueError(f"pointwise ladder route supports n <= {MAX_RUNGS}, got {n}")
    ground = radial_wavefunction(p, 0)
    if n == 0:
        return ground
    d = ground.derived
    lc = LadderCoefficients.from_params(p, d)
    pref = 1.0
    for k in range(1, n + 1):
        pref *= lc.spectral_scalar(k) / lc.kappa(k)
    chain = compose(scale(pref), *[build_A_plus(p)] * n)
    return RadialState(
        params=p, derived=d, n=int(n), energy=energy(n, d, p.omega0),
        norm_const=norm_constant(n, d), fn=chain.apply(ground.fn),
    )
