"""Finite-difference operator calculus in stencil normal form.

Every operator of the model is a finite sum

    A = sum_j c_j(rho) e^{tau_j d/drho},    (A f)(rho) = sum_j c_j(rho) f(rho + tau_j),

so a LinearOperator stores exactly that: the distinct offsets tau_j and one
function returning all coefficients c_j at once. Shift operators act on
analytic functions by exact complex displacement (rho -> rho + tau), not by
discretized stencils: every function in scope (gamma products,
polynomials, plane waves) is analytic in a strip around the real axis, so
residual checks are limited only by rounding.

Each AnalyticFunction declares the half-width of the strip it is valid on;
each operator declares how much imaginary displacement it consumes
(shift_budget = max_j |Im tau_j|). Applying an operator checks the budget
against the strip and the image carries the reduced strip, so "how many
shifts can I still apply" is a checkable contract rather than a silent
wrong value.

Sums and products of operators are again stencils: op_sum merges equal
offsets and compose multiplies out (a b)_{tau+sigma}(rho) += a_tau(rho)
b_sigma(rho + tau). Operators are immutable and evaluation is re-entrant;
an image evaluates its argument once per call, on the stacked points
rho + tau_j.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "AnalyticFunction",
    "LinearOperator",
    "StripExhaustedError",
    "SingularPointError",
    "shift",
    "scale",
    "multiply_by",
    "identity_op",
    "op_sum",
    "compose",
    "cosh_shift",
    "sinh_shift",
    "linear_combination",
    "taylor_limit_check",
]

_BUDGET_SLACK = 1e-12  # tolerate rounding in strip bookkeeping comparisons


class StripExhaustedError(RuntimeError):
    """Operator chain consumes more imaginary displacement than the function's strip."""


class SingularPointError(ValueError):
    """Evaluation requested exactly at a declared isolated singular point."""


class AnalyticFunction:
    """An evaluable function of a complex coordinate, valid on |Im rho| <= strip_halfwidth.

    The evaluator must accept complex scalars and numpy arrays of any shape
    alike and be finite everywhere in the strip except at declared isolated
    points (typically on the imaginary axis, e.g. rho = 0 images).
    """

    __slots__ = ("fn", "strip_halfwidth", "singular_points")

    def __init__(self, fn: Callable, strip_halfwidth: float, singular_points: tuple = ()):
        if strip_halfwidth < 0:
            raise ValueError("strip_halfwidth must be non-negative")
        self.fn = fn
        self.strip_halfwidth = float(strip_halfwidth)
        self.singular_points = tuple(singular_points)

    def __call__(self, rho):
        return self.fn(rho)


def _as_function(f) -> AnalyticFunction:
    if isinstance(f, AnalyticFunction):
        return f
    raise TypeError(f"expected AnalyticFunction, got {type(f).__name__}")


def _check_singular(z, points):
    for p in points:
        if np.any(z == p):
            raise SingularPointError(f"evaluation at declared singular point {p}")


def _stack(z: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """The points z + tau_j, stacked along a new leading axis."""
    if not taus.any():  # the lone offset 0: a view, no copy
        return z[None]
    return z + taus.reshape((-1,) + (1,) * z.ndim)


def _moved(points, taus) -> tuple:
    """Where p sits as seen from rho when the function is read at rho + tau."""
    return tuple(p - t for p in points for t in taus)


def _merge(taus) -> tuple[tuple, Callable]:
    """Distinct offsets in order of first appearance, and a function that sums
    the rows of a table over taus into one row per distinct offset."""
    offsets = tuple(dict.fromkeys(taus))
    if len(offsets) == len(taus):
        return offsets, lambda parts: parts
    rows = [[i for i, t in enumerate(taus) if t == u] for u in offsets]
    return offsets, lambda parts: np.stack([reduce(np.add, (parts[i] for i in r)) for r in rows])


class LinearOperator:
    """The finite-difference operator sum_j c_j(rho) e^{tau_j d/drho}.

    offsets are the distinct displacements tau_j. coefficients(z) takes a
    complex array z of any shape and returns every c_j(z) at once, as an
    array with one more axis than z that broadcasts to (len(offsets),) +
    z.shape (constant coefficients keep length-1 axes). singular_points
    are the points where a coefficient is singular: evaluating an image
    there raises SingularPointError.
    """

    def __init__(self, offsets, coefficients: Callable, singular_points: tuple = ()):
        self.offsets = tuple(complex(t) for t in offsets)
        if not self.offsets:
            raise ValueError("an operator needs at least one offset")
        self.coefficients = coefficients
        self.singular_points = tuple(dict.fromkeys(singular_points))
        self.shift_budget = max(abs(t.imag) for t in self.offsets)

    def apply(self, f: AnalyticFunction) -> AnalyticFunction:
        """The image rho -> sum_j c_j(rho) f(rho + tau_j).

        Evaluating the image calls f once, on the points rho + tau_j
        stacked along a new leading axis.
        """
        f = _as_function(f)
        if f.strip_halfwidth + _BUDGET_SLACK < self.shift_budget:
            raise StripExhaustedError(
                f"operator needs strip {self.shift_budget}, function provides "
                f"{f.strip_halfwidth}"
            )
        taus = np.asarray(self.offsets)
        coefficients, points, inner = self.coefficients, self.singular_points, f.fn

        def ev(z):
            zz = np.asarray(z, dtype=complex)
            _check_singular(zz, points)
            values = np.asarray(inner(_stack(zz, taus)))
            out = np.einsum("j...,j...->...", coefficients(zz), values)
            return out if zz.ndim else out[()]

        strip = max(f.strip_halfwidth - self.shift_budget, 0.0)
        return AnalyticFunction(ev, strip, points + _moved(f.singular_points, self.offsets))


def _constant(taus, cs) -> LinearOperator:
    """The stencil sum_j cs[j] e^{taus[j] d/drho} with constant coefficients."""
    c = np.array(cs, dtype=complex)
    return LinearOperator(taus, lambda z: c.reshape((-1,) + (1,) * z.ndim))


def shift(tau) -> LinearOperator:
    """(shift(tau) f)(rho) = f(rho + tau); budget counts |Im tau| only."""
    return _constant((tau,), (1.0,))


def scale(c) -> LinearOperator:
    return _constant((0.0,), (c,))


def multiply_by(factor: Callable, singular_points: tuple = ()) -> LinearOperator:
    """Multiplication by a coordinate function, singular at singular_points."""
    def coefficients(z):
        return np.broadcast_to(np.asarray(factor(z), dtype=complex), z.shape)[None]

    return LinearOperator((0.0,), coefficients, tuple(singular_points))


def identity_op() -> LinearOperator:
    return shift(0.0)


def op_sum(*ops: LinearOperator) -> LinearOperator:
    """The sum of the operators, with equal offsets merged."""
    offsets, collect = _merge([t for op in ops for t in op.offsets])

    def coefficients(z):
        tables = [op.coefficients(z) for op in ops]
        shape = np.broadcast_shapes(*(t.shape[1:] for t in tables))
        return collect(np.concatenate([np.broadcast_to(t, t.shape[:1] + shape) for t in tables]))

    return LinearOperator(offsets, coefficients, sum((op.singular_points for op in ops), ()))


def _compose2(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    """a b as a stencil: (a b)_{tau+sigma}(rho) += a_tau(rho) b_sigma(rho + tau)."""
    ka, kb = len(a.offsets), len(b.offsets)
    offsets, collect = _merge([ta + tb for ta in a.offsets for tb in b.offsets])
    taus = np.asarray(a.offsets)

    def coefficients(z):
        ca = a.coefficients(z)
        products = ca[:, None] * np.swapaxes(b.coefficients(_stack(z, taus)), 0, 1)
        return collect(products.reshape((ka * kb,) + products.shape[2:]))

    return LinearOperator(offsets, coefficients,
                          a.singular_points + _moved(b.singular_points, a.offsets))


def compose(*ops: LinearOperator) -> LinearOperator:
    """compose(A, B, C) is the operator product A B C (C applied first).

    The product is folded from the left, so along a chain the composite is
    always the left operand: one evaluation computes its coefficient table
    once and evaluates the next factor's coefficients on its stacked
    offsets. An n-fold chain of k-offset factors then costs O(n^2 k)
    coefficient evaluations per point; with the composite on the right it
    would cost k^n.
    """
    return reduce(_compose2, ops)


def cosh_shift(step: float = 1.0) -> LinearOperator:
    """cosh(i step d/drho): f -> [f(rho + i step) + f(rho - i step)] / 2."""
    return _constant((1j * step, -1j * step), (0.5, 0.5))


def sinh_shift(step: float = 1.0) -> LinearOperator:
    """sinh(i step d/drho): f -> [f(rho + i step) - f(rho - i step)] / 2."""
    return _constant((1j * step, -1j * step), (0.5, -0.5))


def linear_combination(coeffs, fns: Sequence[AnalyticFunction]) -> AnalyticFunction:
    """Pointwise sum_i coeffs[i] * fns[i], carrying the tightest strip."""
    coeffs = [complex(c) for c in coeffs]
    fns = [_as_function(f) for f in fns]
    if len(coeffs) != len(fns) or not fns:
        raise ValueError("need matching, non-empty coefficient and function lists")
    strip = min(f.strip_halfwidth for f in fns)
    sing = sum((f.singular_points for f in fns), ())

    def ev(z):
        acc = coeffs[0] * fns[0].fn(z)
        for c, f in zip(coeffs[1:], fns[1:]):
            acc = acc + c * f.fn(z)
        return acc

    return AnalyticFunction(ev, strip, sing)


def taylor_limit_check(f: Callable, second_derivative: Callable, lambda_bar: float,
                       points) -> float:
    """Max over points of |(cosh(i lam d) - 1) f + lam^2 f''/2|.

    For entire test functions this residual scales as O(lambda_bar^4),
    certifying that the symmetric displacement average reproduces the
    ordinary second-derivative kinetic term in the small-step limit.
    """
    pts = np.asarray(points, dtype=float)
    lam = float(lambda_bar)
    avg = 0.5 * (np.asarray(f(pts + 1j * lam)) + np.asarray(f(pts - 1j * lam)))
    resid = avg - f(pts) + 0.5 * lam ** 2 * np.asarray(second_derivative(pts))
    return float(np.max(np.abs(resid)))
