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
an image reads its argument once per call, on the stacked points
rho + tau_j, and on a long grid once per block of the grid's last axis
(`_BLOCK_POINTS`). A function may also say how to read itself on a set of
offsets (`shifted`): the radial states reach the offsets of one class,
those a whole multiple of i apart, from one evaluation of their gamma
envelope, and an image then asks for that read in place of evaluating
the function on every stacked point.

A function's values may carry leading axes: f(rho) of shape lead +
rho.shape holds one function per index of lead, a basis R_0..R_K say.
Coefficients depend on rho only, so an image passes the leading axes
through, and one application acts on every row at once. `images` gives
the images of several operators, and `powers` the rows f, A f, ...,
A^top f, each from one read of f on the union of the offsets.
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
    "images",
    "powers",
    "cosh_shift",
    "sinh_shift",
    "taylor_limit_check",
]

_BUDGET_SLACK = 1e-12  # tolerate rounding in strip bookkeeping comparisons

# An image reads its argument on blocks of the last axis of its points, of
# about this many stacked points at most where that axis is long enough (a
# block keeps every index of the leading axes, such as the parameter points
# of a verify grid). A complex array of a block (64 KiB) stays below glibc
# malloc's 128 KiB mmap threshold, so a read reuses memory the allocator
# holds instead of faulting in fresh pages (read in one piece, a 2048-point
# [H, A+] took up to 1,400 page faults, whose cost grows when other
# processes run), and its temporaries stay in cache. Nor does an array of a
# state's block reach the 256 KiB at which numpy reuses a temporary in
# place, swapping the operands of a product: each point gets, bit for bit,
# what it gets in a grid of its own.
_BLOCK_POINTS = 4096


class StripExhaustedError(RuntimeError):
    """Operator chain consumes more imaginary displacement than the function's strip."""


class SingularPointError(ValueError):
    """Evaluation requested exactly at a declared isolated singular point."""


class AnalyticFunction:
    """An evaluable function of a complex coordinate, valid on |Im rho| <= strip_halfwidth.

    The evaluator must accept complex scalars and numpy arrays of any shape
    alike and be finite everywhere in the strip except at declared isolated
    points (typically on the imaginary axis, e.g. rho = 0 images). Its
    values have shape lead + rho.shape, lead () for one function, and
    each depends on its own rho only, so an image may read the function on
    blocks of its points.

    shifted, if given, is called once per image with the image's offsets
    taus, an array, and returns an evaluator of z that gives what
    fn(z + taus_j stacked on a new axis) gives, shape lead + (len(taus),)
    + z.shape, by a route of its own; without it an image evaluates fn on
    the stacked points.
    """

    __slots__ = ("fn", "strip_halfwidth", "singular_points", "shifted")

    def __init__(self, fn: Callable, strip_halfwidth: float, singular_points: tuple = (),
                 *, shifted: Callable | None = None):
        if strip_halfwidth < 0:
            raise ValueError("strip_halfwidth must be non-negative")
        self.fn = fn
        self.strip_halfwidth = float(strip_halfwidth)
        self.singular_points = tuple(singular_points)
        self.shifted = shifted

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
        stacked along a new axis (once per block of a long grid); leading
        axes of f's values pass through.
        """
        coefficients = self.coefficients
        return _read_once(_as_function(f), [self.offsets], self.singular_points,
                          lambda zz: [coefficients(zz)], _lone_row)


def _check_budget(f: AnalyticFunction, budget: float) -> None:
    if f.strip_halfwidth + _BUDGET_SLACK < budget:
        raise StripExhaustedError(
            f"operator needs strip {budget}, function provides {f.strip_halfwidth}"
        )


def _offsets_first(values, ndim: int) -> np.ndarray:
    """f's values on stacked points, shape lead + (offsets,) + z.shape, with
    the offset axis moved to the front; einsum broadcasts the coefficient
    table, shape (offsets,) + z.shape, against the rest from the right."""
    values = np.asarray(values)
    if values.ndim > ndim + 1:
        values = np.moveaxis(values, -ndim - 1, 0)
    return values


def _lone_row(rows):
    return rows[0]


def _read_once(f: AnalyticFunction, offset_lists, points: tuple, tables: Callable,
               finish: Callable) -> AnalyticFunction:
    """The images sum_j t_j(rho) f(rho + tau_j) of several stencils, from one
    read of f on the union of their offsets.

    offset_lists[k] holds the offsets of stencil k and tables(z) returns its
    coefficient tables in the same order; finish combines the list of
    images (np.stack for a stacked result). The function must cover the
    largest |Im tau| of the union, and evaluation at any of points raises.
    f is read through its `shifted` evaluator where it has one, and on a
    grid of more than _BLOCK_POINTS stacked points once per block of its
    last axis, in blocks of nearly equal width.
    """
    offsets = tuple(dict.fromkeys(t for taus in offset_lists for t in taus))
    budget = max(abs(t.imag) for t in offsets)
    _check_budget(f, budget)
    index = {t: i for i, t in enumerate(offsets)}
    rows = [slice(None) if tuple(taus) == offsets else np.array([index[t] for t in taus])
            for taus in offset_lists]
    taus = np.asarray(offsets)
    points = tuple(dict.fromkeys(points))
    if f.shifted is not None:
        inner = f.shifted(taus)
    else:
        fn = f.fn

        def inner(zz):
            return fn(_stack(zz, taus))

    def read(zz):
        values = _offsets_first(inner(zz), zz.ndim)
        return finish([np.einsum("j...,j...->...", t, values[r]) for t, r in zip(tables(zz), rows)])

    def ev(z):
        zz = np.asarray(z, dtype=complex)
        _check_singular(zz, points)
        if zz.ndim == 0:
            return read(zz)[()]
        width = zz.shape[-1]
        blocks = min(-(-len(offsets) * zz.size // _BLOCK_POINTS), width)
        if blocks <= 1:
            return read(zz)
        edges = width * np.arange(blocks + 1) // blocks
        parts = [read(zz[..., a:b]) for a, b in zip(edges[:-1], edges[1:])]
        return np.concatenate(parts, axis=-1)

    strip = max(f.strip_halfwidth - budget, 0.0)
    return AnalyticFunction(ev, strip, points + _moved(f.singular_points, offsets))


def _constant(taus, cs) -> LinearOperator:
    """The stencil sum_j cs[j] e^{taus[j] d/drho} with constant coefficients;
    a coefficient may be an array (one value per stacked parameter point)
    that broadcasts against the trailing axes of the points."""
    c = np.array(cs, dtype=complex)
    lead, tail = c.shape[:1], c.shape[1:]
    return LinearOperator(taus, lambda z: c.reshape(lead + (1,) * (z.ndim - len(tail)) + tail))


def shift(tau) -> LinearOperator:
    """(shift(tau) f)(rho) = f(rho + tau); budget counts |Im tau| only."""
    return _constant((tau,), (1.0,))


def scale(c) -> LinearOperator:
    return _constant((0.0,), (c,))


def multiply_by(factor: Callable, singular_points: tuple = ()) -> LinearOperator:
    """Multiplication by a coordinate function, singular at singular_points."""
    def coefficients(z):
        c = np.asarray(factor(z), dtype=complex)
        return (c if c.shape == z.shape else np.broadcast_to(c, z.shape))[None]

    return LinearOperator((0.0,), coefficients, tuple(singular_points))


def identity_op() -> LinearOperator:
    return shift(0.0)


def op_sum(*ops: LinearOperator) -> LinearOperator:
    """The sum of the operators, with equal offsets merged."""
    offsets, collect = _merge([t for op in ops for t in op.offsets])

    def coefficients(z):
        tables = [op.coefficients(z) for op in ops]
        shape = np.broadcast_shapes(*(t.shape[1:] for t in tables))
        return collect(np.concatenate([t if t.shape[1:] == shape else
                                       np.broadcast_to(t, t.shape[:1] + shape) for t in tables]))

    return LinearOperator(offsets, coefficients, sum((op.singular_points for op in ops), ()))


def _product(a: LinearOperator, b: LinearOperator) -> tuple[LinearOperator, Callable]:
    """a b as a stencil, (a b)_{tau+sigma}(rho) += a_tau(rho) b_sigma(rho + tau),
    and the rule extend(ca, z) giving its table at z from a's table ca at z."""
    ka, kb = len(a.offsets), len(b.offsets)
    offsets, collect = _merge([ta + tb for ta in a.offsets for tb in b.offsets])
    taus = np.asarray(a.offsets)

    def extend(ca, z):
        products = ca[:, None] * np.swapaxes(b.coefficients(_stack(z, taus)), 0, 1)
        return collect(products.reshape((ka * kb,) + products.shape[2:]))

    ab = LinearOperator(offsets, lambda z: extend(a.coefficients(z), z),
                        a.singular_points + _moved(b.singular_points, a.offsets))
    return ab, extend


def compose(*ops: LinearOperator) -> LinearOperator:
    """compose(A, B, C) is the operator product A B C (C applied first).

    The product is folded from the left, so along a chain the composite is
    always the left operand: one evaluation computes its coefficient table
    once and evaluates the next factor's coefficients on its stacked
    offsets. An n-fold chain of k-offset factors then costs O(n^2 k)
    coefficient evaluations per point; with the composite on the right it
    would cost k^n.
    """
    return reduce(lambda a, b: _product(a, b)[0], ops)


def images(ops: Sequence[LinearOperator], f: AnalyticFunction) -> AnalyticFunction:
    """The images op f of every op in ops, stacked on a new leading axis.

    f is read once per evaluation, on the union of the operators' offsets,
    and every row contracts its own coefficient table with those values,
    so row k equals ops[k].apply(f) at rounding level; leading axes of f's
    values go after the operator axis. The strip budget is the largest of
    the operators', and evaluating at a singular point of any of them
    raises, as apply does.
    """
    ops = tuple(ops)
    if not ops:
        raise ValueError("images needs at least one operator")
    return _read_once(_as_function(f), [op.offsets for op in ops],
                      sum((op.singular_points for op in ops), ()),
                      lambda zz: [op.coefficients(zz) for op in ops], np.stack)


def powers(op: LinearOperator, top: int, f: AnalyticFunction) -> AnalyticFunction:
    """The rows f, op f, ..., op^top f, stacked on a new leading axis.

    op^n is the left-folded product of compose, and one evaluation builds
    the tables of op^1..op^top in turn, each from the one before, so it
    costs what the table of op^top alone costs. f is read once, as images
    reads it, on every offset of the powers stacked together, and leading
    axes of its values go after the power axis.
    """
    if top < 0 or top != int(top):
        raise ValueError("top must be a non-negative integer")
    top = int(top)
    chains, rules = [op][:top], []
    while len(chains) < top:
        chain, extend = _product(chains[-1], op)
        chains.append(chain)
        rules.append(extend)

    one = identity_op()

    def tables(zz):
        out = [one.coefficients(zz)]
        if chains:
            out.append(op.coefficients(zz))
        for extend in rules:
            out.append(extend(out[-1], zz))
        return out

    points = chains[-1].singular_points if chains else ()
    return _read_once(_as_function(f), [(0j,)] + [c.offsets for c in chains], points,
                      tables, np.stack)


def cosh_shift(step: float = 1.0) -> LinearOperator:
    """cosh(i step d/drho): f -> [f(rho + i step) + f(rho - i step)] / 2."""
    return _constant((1j * step, -1j * step), (0.5, 0.5))


def sinh_shift(step: float = 1.0) -> LinearOperator:
    """sinh(i step d/drho): f -> [f(rho + i step) - f(rho - i step)] / 2."""
    return _constant((1j * step, -1j * step), (0.5, -0.5))


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
