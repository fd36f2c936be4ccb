"""Dynamical symmetry layer: factorization operators, generalized momentum,
ladder operators, and the su(1,1) realization they generate.

Two complementary representations are used throughout and must agree:

* the pointwise operator calculus (finite-difference chains acting on
  evaluable wavefunctions), and
* exact coefficient arithmetic on the eigenbasis, where the raising and
  lowering maps act through kappa_n = sqrt(n (n + alpha + nu - 1)) and the
  compact generator is diagonal with eigenvalues n + s.

Functions of the Hamiltonian (the f^(-1/2) factors converting A+- into
unit-normalized ladder maps) have no closed pointwise form for a
finite-difference operator; they are realized spectrally, i.e. as scalars
on eigencomponents. With the normalization constants fixed positive real,
the measured proportionality constants of A+- come out negative real, so
the pointwise ladder maps carry an explicit extra minus sign to keep every
ladder constant positive (a pure convention; the algebra is unchanged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .operators import (
    AnalyticFunction,
    LinearOperator,
    compose,
    linear_combination,
    multiply_by,
    op_sum,
    scale,
    shift,
    sinh_shift,
)
from .oscillator import (
    STATE_STRIP_HALFWIDTH,
    DerivedParams,
    ModelParams,
    RadialState,
    derive_params,
    energy,
    hamiltonian_reduced,
    radial_wavefunction,
)
from . import specfun

__all__ = [
    "LadderCoefficients",
    "CoefficientState",
    "LadderDiagnosticError",
    "build_a_minus",
    "build_a_plus",
    "build_momentum",
    "build_A_minus",
    "build_A_plus",
    "K_action",
    "k_raise_pointwise",
    "k_lower_pointwise",
    "casimir",
    "commutator_residual",
    "generate_state_via_ladder",
]

_GUARD = 1e-300


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

    @classmethod
    def from_params(cls, p: ModelParams, d: DerivedParams | None = None):
        d = d or derive_params(p)
        return cls(alpha=d.alpha, nu=d.nu, omega0=p.omega0)


@dataclass(frozen=True)
class CoefficientState:
    """Finite expansion sum_n coeffs[n] R_n over the eigenbasis."""

    coeffs: Mapping[int, complex]
    params: ModelParams

    def __post_init__(self):
        clean = {int(n): complex(c) for n, c in self.coeffs.items() if c != 0}
        if any(n < 0 for n in clean):
            raise ValueError("coefficient indices must be non-negative")
        object.__setattr__(self, "coeffs", clean)

    def inner(self, other: "CoefficientState") -> complex:
        return sum(np.conj(c) * other.coeffs.get(n, 0.0) for n, c in self.coeffs.items())

    def norm_sq(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def as_function(self, states: Mapping[int, RadialState]) -> AnalyticFunction:
        """Pointwise evaluator sum c_n R_n(rho) from precomputed states."""
        ns = sorted(self.coeffs)
        return linear_combination([self.coeffs[n] for n in ns], [states[n].fn for n in ns])


def _rho_times() -> LinearOperator:
    return multiply_by(lambda z: z)


def build_a_minus(p: ModelParams) -> LinearOperator:
    """Annihilation-side factorization operator (half-unit shifts):

        (1/sqrt(2 omega0)) [ e^{-(i/2) d} - omega0 e^{+(i/2) d} (nu + i rho)(1 + alpha/(i rho)) ]

    Note the multiplication factor sits inside the forward half-shift.
    Singular at rho = 0.
    """
    d = derive_params(p)
    alpha, nu, om0 = d.alpha, d.nu, p.omega0

    def factor(z):
        return (nu + 1j * z) * (1.0 + alpha / (1j * z))

    pref = 1.0 / np.sqrt(2.0 * om0)
    return compose(scale(pref), op_sum(
        shift(-0.5j),
        compose(scale(-om0), shift(0.5j), multiply_by(factor, singular_points=(0.0,))),
    ))


def build_a_plus(p: ModelParams) -> LinearOperator:
    """Creation-side factorization operator, Hermitian conjugate of build_a_minus:

        (1/sqrt(2 omega0)) [ e^{-(i/2) d} - omega0 (nu - i rho)(1 - alpha/(i rho)) e^{+(i/2) d} ]
    """
    d = derive_params(p)
    alpha, nu, om0 = d.alpha, d.nu, p.omega0

    def factor(z):
        return (nu - 1j * z) * (1.0 - alpha / (1j * z))

    pref = 1.0 / np.sqrt(2.0 * om0)
    return compose(scale(pref), op_sum(
        shift(-0.5j),
        compose(scale(-om0), multiply_by(factor, singular_points=(0.0,)), shift(0.5j)),
    ))


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


def K_action(direction: str, state: CoefficientState) -> CoefficientState:
    """su(1,1) generators in coefficient space.

    '+' : c_n -> kappa_{n+1} c_n placed at n+1
    '-' : c_n -> kappa_n c_n placed at n-1 (the n = 0 component is annihilated)
    '0' : c_n -> (n + s) c_n   (the compact generator H/(2 omega0))
    """
    lc = LadderCoefficients.from_params(state.params)
    d = derive_params(state.params)
    out: dict[int, complex] = {}
    for n, c in state.coeffs.items():
        if direction == "+":
            out[n + 1] = out.get(n + 1, 0.0) + lc.kappa(n + 1) * c
        elif direction == "-":
            if n >= 1:
                out[n - 1] = out.get(n - 1, 0.0) + lc.kappa(n) * c
        elif direction == "0":
            out[n] = out.get(n, 0.0) + (n + d.s) * c
        else:
            raise ValueError(f"direction must be '+', '-', or '0', got {direction!r}")
    return CoefficientState(out, state.params)


def _spectral_ladder_scalar(state: RadialState, direction: str) -> float:
    """Spectral scalar turning A+- images into unit ladder steps: -f(E)^(-1/2).

    The minus sign fixes the ladder constants positive real (the raw
    proportionality constants of A+- are negative with positive norm
    constants and the principal-branch degree phase).
    """
    lc = LadderCoefficients.from_params(state.params, state.derived)
    n = state.n
    target = n + 1 if direction == "+" else n
    return -1.0 / np.sqrt(lc.f_energy(target))


def k_raise_pointwise(state: RadialState) -> AnalyticFunction:
    """K+ R_n as an evaluable function: the spectral scalar -f(E_{n+1})^(-1/2)
    times A+ R_n; equals kappa_{n+1} R_{n+1} up to the verified residual."""
    Ap = build_A_plus(state.params)
    return compose(scale(_spectral_ladder_scalar(state, "+")), Ap).apply(state.fn)


def k_lower_pointwise(state: RadialState) -> AnalyticFunction:
    """K- R_n = -f(E_n)^(-1/2) A- R_n; equals kappa_n R_{n-1} (zero for n = 0)."""
    Am = build_A_minus(state.params)
    return compose(scale(_spectral_ladder_scalar(state, "-")), Am).apply(state.fn)


def casimir(state: CoefficientState) -> complex:
    """Rayleigh quotient of the Casimir K0(K0 - 1) - K+ K- on a coefficient state.

    Equals s(s-1) on every component, hence on any superposition.
    """
    nsq = state.norm_sq()
    if nsq == 0:
        raise ValueError("casimir of the zero state is undefined")
    k0 = K_action("0", state)
    k0k0 = K_action("0", k0)
    kpkm = K_action("+", K_action("-", state))
    image = {}
    for n in set(k0k0.coeffs) | set(k0.coeffs) | set(kpkm.coeffs):
        image[n] = (k0k0.coeffs.get(n, 0.0) - k0.coeffs.get(n, 0.0)
                    - kpkm.coeffs.get(n, 0.0))
    return complex(state.inner(CoefficientState(image, state.params))) / nsq


def commutator_residual(X: LinearOperator, Y: LinearOperator, rhs: LinearOperator,
                        testfns, points) -> float:
    """Max relative pointwise residual of (XY - YX - rhs) over test functions.

    The denominator is the largest of |XYf|, |YXf|, |rhs f| at each point
    (plus an underflow guard), so [X, X] against rhs = 0 is exactly zero.
    """
    pts = np.asarray(points, dtype=float)
    worst = 0.0
    for f in testfns:
        xy = X.apply(Y.apply(f))(pts)
        yx = Y.apply(X.apply(f))(pts)
        r = rhs.apply(f)(pts)
        num = np.abs(xy - yx - r)
        den = np.maximum(np.maximum(np.abs(xy), np.abs(yx)), np.abs(r)) + _GUARD
        worst = max(worst, float(np.max(num / den)))
    return worst


def generate_state_via_ladder(p: ModelParams, n: int, max_rungs: int = 8) -> RadialState:
    """Build R_n = [n! (alpha+nu)_n]^(-1/2) (K+)^n R_0 through the pointwise route.

    (K+)^n is the n-fold product of the raising operator with the spectral
    scalars multiplied out, one stencil with at most 4n + 1 offsets, and it
    is applied to R_0 once. The shift budget limits the pointwise route to
    n <= max_rungs.
    """
    if n < 0 or n != int(n):
        raise ValueError("n must be a non-negative integer")
    if n > max_rungs:
        raise ValueError(f"pointwise ladder route supports n <= {max_rungs}, got {n}")
    ground = radial_wavefunction(p, 0)
    if n == 0:
        return ground
    d = ground.derived
    lc = LadderCoefficients.from_params(p, d)

    sigma_poch = float(np.real(specfun.pochhammer(d.alpha + d.nu, n)))
    pref = 1.0 / np.sqrt(math.factorial(n) * sigma_poch)
    for k in range(1, n + 1):
        pref *= -1.0 / np.sqrt(lc.f_energy(k))
    chain = compose(scale(pref), *[build_A_plus(p)] * n)

    # the constant of the state this chain reproduces, from the closed-form norm
    h_n = specfun.cdh_norm(n, specfun.CdhParams(d.alpha, d.nu, 0.5))
    return RadialState(
        params=p, derived=d, n=int(n), energy=energy(n, d, p.omega0),
        norm_const=float(np.sqrt(2.0 / h_n)), fn=chain.apply(ground.fn),
    )
