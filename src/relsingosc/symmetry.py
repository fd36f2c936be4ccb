"""Dynamical symmetry layer: factorization operators, generalized momentum,
ladder operators, and the su(1,1) realization they generate.

The ladder operators are defined as A+- = (1/2 omega0)[(omega0 rho -+ iP)^2
- (2 g0 + L(L+1))/(1 + rho^2)]. Multiplied out, each is a stencil with the
five offsets 0, +-i, +-2i whose coefficients are rational in rho, written
with u(rho) = 1 + omega0^2 rho(rho + i) + (2 g0 + L(L+1))/(rho(rho + i));
`build_A_plus` and `build_A_minus` evaluate that closed form, and the
literal construction of the definition stays as the reference they are
checked against, as `momentum_commutator` is for `build_momentum`.

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
    images,
    multiply_by,
    op_sum,
    powers,
    scale,
    shift,
    sinh_shift,
)
from .oscillator import (
    DerivedParams,
    ModelParams,
    RadialBasis,
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
    "momentum_commutator",
    "build_A_minus",
    "build_A_plus",
    "su11_generators",
    "k_raise_pointwise",
    "k_lower_pointwise",
    "casimir",
    "commutator_residual",
    "generate_basis_via_ladder",
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


def build_momentum(p: ModelParams) -> LinearOperator:
    """Generalized momentum operator in units of mc:

        P = -[ sinh(i d) + ( omega0^2 rho^(2)/2 + (g0 + L(L+1)/2)/rho^(2) ) e^{i d} ]

    It agrees pointwise with its definition i[H, rho] (`momentum_commutator`,
    compared in the test suite and the `momentum-routes` check); the
    multiplication term enters with a plus sign, which is what the
    commutator identity fixes.
    """
    c_inv = p.g0 + p.L * (p.L + 1.0) / 2.0
    half_w2 = 0.5 * p.omega0 ** 2

    def factor(z):
        r2 = z * (z + 1j)
        return half_w2 * r2 + c_inv / r2

    return compose(scale(-1.0), op_sum(
        sinh_shift(),
        compose(multiply_by(factor, singular_points=(0.0, -1.0j)), shift(1.0j)),
    ))


def momentum_commutator(p: ModelParams) -> LinearOperator:
    """The momentum by its definition P = i [H, rho], built literally as
    operator chains; the reference that `build_momentum` is checked against."""
    H = hamiltonian_reduced(p)
    rho_op = _rho_times()
    return compose(scale(1j), op_sum(compose(H, rho_op), compose(scale(-1.0), rho_op, H)))


def _ladder_quadratic(p: ModelParams, inner_sign: float) -> LinearOperator:
    """(omega0 rho + inner_sign * i P)^2 - (2 g0 + L(L+1))/(1 + rho^2), as
    a literal compose of sums (no manual simplification), over 2 omega0;
    the reference that the closed forms of `build_A_plus` (inner_sign = -1)
    and `build_A_minus` (+1) are checked against in the test suite."""
    P = build_momentum(p)
    B = op_sum(compose(scale(p.omega0), _rho_times()), compose(scale(inner_sign * 1j), P))
    well = 2.0 * p.g0 + p.L * (p.L + 1.0)

    def well_factor(z):
        return -well / (1.0 + z * z)

    return compose(
        scale(1.0 / (2.0 * p.omega0)),
        op_sum(compose(B, B), multiply_by(well_factor, singular_points=(1j, -1j))),
    )


def _ladder(p: ModelParams, sign: float) -> LinearOperator:
    """A+ (sign = +1) or A- (sign = -1): the five-offset stencil of
    build_A_plus, one coefficient table evaluated in closed form."""
    om0 = p.omega0
    w2 = om0 * om0
    well = 2.0 * p.g0 + p.L * (p.L + 1.0)
    far = -1.0 / (8.0 * om0)
    near = -0.25j * sign

    def u(z):
        r2 = z * (z + 1j)
        return 1.0 + w2 * r2 + well / r2

    def coefficients(z):
        out = np.empty((5,) + z.shape, dtype=complex)
        uz = u(z)
        out[0] = far
        out[1] = near * (2.0 * z - 1j)
        out[2] = (3.0 * w2 * z * z + 1.0) / (4.0 * om0) - well / (4.0 * om0 * (1.0 + z * z))
        out[3] = -near * (2.0 * z + 1j) * uz
        out[4] = far * uz * u(z + 1j)
        return out

    return LinearOperator((-2j, -1j, 0j, 1j, 2j), coefficients, (0.0, 1j, -1j, -2j))


def build_A_minus(p: ModelParams) -> LinearOperator:
    """Lowering operator: (1/2 omega0)[(omega0 rho + iP)^2 - (2g0 + L(L+1))/(1+rho^2)],
    the five-offset stencil of build_A_plus with the lower signs."""
    return _ladder(p, -1.0)


def build_A_plus(p: ModelParams) -> LinearOperator:
    """Raising operator: (1/2 omega0)[(omega0 rho - iP)^2 - (2g0 + L(L+1))/(1+rho^2)].

    Multiplied out, A+- is the five-offset stencil on {0, +-i, +-2i}
    (upper sign A+, lower sign A-)

        A+- = -1/(8 omega0) e^{-2i d} -+ i(2 rho - i)/4 e^{-i d}
              + (3 omega0^2 rho^2 + 1)/(4 omega0) - w/(4 omega0 (1 + rho^2))
              +- i(2 rho + i) u(rho)/4 e^{i d} - u(rho) u(rho + i)/(8 omega0) e^{2i d}

    with w = 2 g0 + L(L+1) and u(rho) = 1 + omega0^2 rho(rho + i)
    + w/(rho(rho + i)), and it is evaluated as that: one table of five
    coefficients, no composite. The literal construction of the definition
    (`_ladder_quadratic`) is the reference it is checked against. Consumes
    two units of strip; singular at rho = 0, +-i and -2i.
    """
    return _ladder(p, +1.0)


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

    XY and YX are applied as composed stencils, and the images XY f, YX f
    and rhs f come from one read of each test function on the union of
    their offsets (`images`). The denominator is the largest of |XYf|,
    |YXf|, |rhs f| at each point (plus an underflow guard), so [X, X]
    against rhs = 0 is exactly zero. Test functions may carry leading axes;
    every row counts.
    """
    pts = np.asarray(points, dtype=float)
    ops = (compose(X, Y), compose(Y, X), rhs)
    resids = []
    for f in testfns:
        xy, yx, r = images(ops, f)(pts)
        num = np.abs(xy - yx - r)
        den = np.maximum(np.maximum(np.abs(xy), np.abs(yx)), np.abs(r)) + _GUARD
        resids.append(np.max(num / den))
    return float(np.max(resids, initial=0.0))  # unlike the builtin max, keeps a nan


def generate_basis_via_ladder(p: ModelParams, top: int) -> RadialBasis:
    """R_0..R_top built as R_n = (K+)^n R_0 / (kappa_1 ... kappa_n), stacked.

    K+ is the raising operator A+ times the spectral scalar of each rung;
    the scalars are multiplied onto the rows of `powers(A+, top, R_0)`, so
    one evaluation reads R_0 once and builds the table of (A+)^n from that
    of (A+)^(n-1). (A+)^n has at most 4n + 1 offsets, and the shift budget
    limits the pointwise route to top <= MAX_RUNGS. Energies and norm
    constants are those of the direct states.
    """
    if top < 0 or top != int(top):
        raise ValueError("top must be a non-negative integer")
    if top > MAX_RUNGS:
        raise ValueError(f"pointwise ladder route supports n <= {MAX_RUNGS}, got {top}")
    top = int(top)
    ground = radial_wavefunction(p, 0)
    d = ground.derived
    lc = LadderCoefficients.from_params(p, d)
    prefs = np.cumprod([1.0] + [lc.spectral_scalar(k) / lc.kappa(k) for k in range(1, top + 1)])
    norm_consts = np.array([norm_constant(n, d) for n in range(top + 1)])
    rungs = powers(build_A_plus(p), top, ground.fn)

    def ev(z):
        rows = rungs.fn(z)
        return prefs.reshape((-1,) + (1,) * (rows.ndim - 1)) * rows

    return RadialBasis(
        params=p, derived=d, norm_consts=norm_consts,
        energies=np.array([energy(n, d, p.omega0) for n in range(top + 1)]),
        fn=AnalyticFunction(ev, rungs.strip_halfwidth, rungs.singular_points),
    )


def generate_state_via_ladder(p: ModelParams, n: int) -> RadialState:
    """R_n = (K+)^n R_0 / (kappa_1 ... kappa_n): row n of
    generate_basis_via_ladder(p, n)."""
    if n < 0 or n != int(n):
        raise ValueError("n must be a non-negative integer")
    if n == 0:
        return radial_wavefunction(p, 0)
    basis = generate_basis_via_ladder(p, n)
    fn = basis.fn
    return RadialState(
        params=p, derived=basis.derived, n=int(n), energy=float(basis.energies[n]),
        norm_const=float(basis.norm_consts[n]),
        fn=AnalyticFunction(lambda z: fn(z)[n], fn.strip_halfwidth, fn.singular_points),
    )
