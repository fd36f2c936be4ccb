"""Half-line integration for Gram matrices, norm certificates and projections.

Composite Gauss-Legendre panels on [0, rho_max] with adaptive refinement.
The integrands in scope (wavefunction products, gamma-weight profiles) are
smooth with a removable zero at the origin and power-times-exponential
tails, so fixed-width panels plus an envelope-driven truncation point beat
variable transformations. Every integral is reported together with an
error estimate taken from the last panel-refinement difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .operators import AnalyticFunction

__all__ = [
    "DecayHint",
    "QuadratureRule",
    "QuadratureConvergenceError",
    "choose_rho_max",
    "halfline_rule",
    "integrate_halfline",
    "inner_product",
    "gram_matrix",
]

DEFAULT_RHO_MAX = 60.0
NODES_PER_PANEL = 32
TAIL_LOG_DROP = 43.0  # e^-43 ~ 2e-19: envelope tail below 1e-16 of the peak
SAFETY_MARGIN = 10.0  # extra rho units absorbing polynomial prefactors
# nodes per integrand call: an operator image evaluates its argument on all
# of its offsets at once (17 for a four-rung ladder state), so blocks bound
# the working memory of one call
EVAL_BLOCK = 2048


class QuadratureConvergenceError(RuntimeError):
    """Panel refinement stalled above the requested tolerance."""


@dataclass(frozen=True)
class DecayHint:
    """Envelope descriptor |f(rho)| <= C * rho^power * exp(-rate*rho)."""

    power: float
    rate: float = math.pi

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("decay rate must be positive")


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule on [0, truncation_rho_max]."""

    nodes: np.ndarray
    weights: np.ndarray
    truncation_rho_max: float
    est_error: float  # a-priori envelope tail bound used to place rho_max

    def __post_init__(self):
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")

    def integrate_with_mass(self, f) -> tuple[complex, float]:
        """(integral, L1 mass); the mass floors convergence tolerances for
        integrands that cancel to ~0."""
        vals = _evaluate_on(f, self.nodes)
        return (complex(np.sum(self.weights * vals)),
                float(np.sum(self.weights * np.abs(vals))))


def _evaluate_on(f, nodes: np.ndarray) -> np.ndarray:
    """f at the nodes, called on blocks of at most EVAL_BLOCK nodes."""
    return np.concatenate([
        np.broadcast_to(np.asarray(f(block)), block.shape)
        for block in np.split(nodes, range(EVAL_BLOCK, len(nodes), EVAL_BLOCK))
    ])


def choose_rho_max(hint: DecayHint | None) -> float:
    """Truncation point where the envelope tail is negligible relative to its peak."""
    if hint is None:
        return DEFAULT_RHO_MAX
    power, rate = max(hint.power, 0.0), hint.rate
    peak = max(power / rate, 1.0)
    log_peak = power * math.log(peak) - rate * peak
    # solve power*ln(rho) - rate*rho = log_peak - TAIL_LOG_DROP by fixed point
    rho = peak + TAIL_LOG_DROP / rate
    for _ in range(50):
        new = (power * math.log(rho) - log_peak + TAIL_LOG_DROP) / rate
        if abs(new - rho) < 1e-9:
            rho = new
            break
        rho = new
    return max(DEFAULT_RHO_MAX, math.ceil(rho + SAFETY_MARGIN))


def halfline_rule(rho_max: float, panels_per_unit: int = 1,
                  nodes_per_panel: int = NODES_PER_PANEL) -> QuadratureRule:
    x, w = leggauss(nodes_per_panel)
    n_panels = int(math.ceil(rho_max * panels_per_unit))
    width = rho_max / n_panels
    starts = width * np.arange(n_panels)
    nodes = (starts[:, None] + (x[None, :] + 1.0) * (width / 2.0)).ravel()
    weights = np.tile(w * (width / 2.0), n_panels)
    tail = math.exp(-TAIL_LOG_DROP)
    return QuadratureRule(nodes, weights, float(rho_max), tail)


def _refined_value(f, rho_max: float, rel_tol: float, abs_tol: float,
                   max_refine: int):
    prev, _ = halfline_rule(rho_max, 1).integrate_with_mass(f)
    for level in range(1, max_refine + 1):
        cur, mass = halfline_rule(rho_max, 2 ** level).integrate_with_mass(f)
        diff = abs(cur - prev)
        if diff <= max(rel_tol * max(abs(cur), mass), abs_tol):
            return cur, diff
        prev = cur
    raise QuadratureConvergenceError(
        f"refinement stalled: last change {diff:.3e} above tolerance "
        f"(rel {rel_tol:.1e}, abs {abs_tol:.1e})"
    )


def integrate_halfline(f, decay_hint: DecayHint | None = None, *,
                       rel_tol: float = 1e-11, abs_tol: float = 1e-15,
                       max_refine: int = 4) -> tuple[float, float]:
    """Integrate a real integrand on [0, inf).

    Returns (value, est_error) where est_error is the change under the last
    panel doubling. Raises QuadratureConvergenceError if refinement stalls.
    """
    rho_max = choose_rho_max(decay_hint)
    val, err = _refined_value(f, rho_max, rel_tol, abs_tol, max_refine)
    return float(val.real), err


def inner_product(fn1: AnalyticFunction, fn2: AnalyticFunction,
                  decay_hint: DecayHint | None = None, *,
                  rel_tol: float = 1e-11, abs_tol: float = 1e-15,
                  max_refine: int = 4) -> tuple[complex, float]:
    """<fn1, fn2> = integral of conj(fn1(rho)) * fn2(rho) over rho in [0, inf)."""

    def integrand(rho):
        return np.conj(fn1(rho)) * fn2(rho)

    rho_max = choose_rho_max(decay_hint)
    val, err = _refined_value(integrand, rho_max, rel_tol, abs_tol, max_refine)
    return val, err


def gram_matrix(fns, decay_hint: DecayHint | None = None) -> tuple[np.ndarray, float]:
    """All pairwise inner products, evaluating each function once per node set.

    Returns (G, est_error) with G[i, j] = <fns[i], fns[j]> and est_error the
    largest entrywise change under panel doubling.
    """
    fns = list(fns)
    rho_max = choose_rho_max(decay_hint)

    def assemble(panels_per_unit):
        rule = halfline_rule(rho_max, panels_per_unit)
        vals = np.vstack([_evaluate_on(f, rule.nodes) for f in fns])
        return (np.conj(vals) * rule.weights) @ vals.T

    coarse = assemble(1)
    fine = assemble(2)
    return fine, float(np.max(np.abs(fine - coarse)))
