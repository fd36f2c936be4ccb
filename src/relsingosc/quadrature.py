"""Half-line integration for Gram matrices and norm certificates.

Two independent rules live here.

* The Gauss rule of the continuous dual Hahn (CDH) weight
  (`cdh_gauss_rule`, `cdh_gram`). Every radial state is a CDH polynomial
  at (alpha, nu, 1/2) times an envelope whose squared modulus is a
  multiple of that weight, so conj(R_m) R_n / weight is a polynomial of
  degree m + n in rho^2, integrated exactly by the M-point rule for
  m, n <= M - 1. The
  rule's weights come from the recurrence of the states
  (`specfun.cdh_orthonormal`), so its discrete orthogonality makes the
  polynomial part of a Gram matrix the identity for any Jacobi matrix: it
  certifies the envelope against `cdh_weight` and h_0 (`orthonormality`).
  `eigen-residual` and `state-generation` certify the polynomial part, and
  `cdh-norms` the norms h_n through `cdh_poly` and the rule below.
* Composite Gauss-Legendre panels on [0, rho_max] with one adaptive
  refinement loop (`integrate_halfline`, `gram_matrix`). The integrands in
  scope (polynomial-times-weight profiles, wavefunction products) are
  smooth with a removable zero at the origin and power-times-exponential
  tails, so fixed-width panels plus an envelope-driven truncation point
  beat variable transformations. Panels are doubled until every entry of
  the result has converged, and the last change is reported as the error
  estimate. It assumes nothing about the integrand and stays the
  independent reference (`cdh-norms` and the tests).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .specfun import CdhParams, cdh_jacobi, cdh_log_norm, cdh_log_weight, cdh_orthonormal

__all__ = [
    "DecayHint",
    "QuadratureConvergenceError",
    "choose_rho_max",
    "halfline_rule",
    "integrate_halfline",
    "gram_matrix",
    "cdh_gauss_rule",
    "cdh_gram",
]

DEFAULT_RHO_MAX = 60.0
NODES_PER_PANEL = 32
TAIL_LOG_DROP = 43.0  # e^-43 ~ 2e-19: envelope tail below 1e-16 of the peak
SAFETY_MARGIN = 10.0  # extra rho units absorbing polynomial prefactors


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


class _Rule(NamedTuple):
    nodes: np.ndarray
    weights: np.ndarray


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


@functools.cache
def _legendre_panel() -> tuple[np.ndarray, np.ndarray]:
    """The NODES_PER_PANEL-point Legendre rule on [-1, 1], built on first use."""
    return leggauss(NODES_PER_PANEL)


def halfline_rule(rho_max: float, panels_per_unit: int = 1) -> _Rule:
    """Composite Gauss-Legendre rule on [0, rho_max] with NODES_PER_PANEL
    nodes per panel, as (nodes, weights), all from one cached Legendre rule."""
    x, w = _legendre_panel()
    n_panels = int(math.ceil(rho_max * panels_per_unit))
    width = rho_max / n_panels
    starts = width * np.arange(n_panels)
    nodes = (starts[:, None] + (x[None, :] + 1.0) * (width / 2.0)).ravel()
    return _Rule(nodes, np.tile(w * (width / 2.0), n_panels))


def _refine(sums, decay_hint: DecayHint | None, rel_tol: float = 1e-11,
            abs_tol: float = 1e-15, max_refine: int = 4):
    """The refinement loop of every Legendre integral.

    sums(rule) returns (value, mass): arrays of one shape holding the rule's
    sums of the integrand and of its modulus. Panels are doubled until every
    entry changes by at most max(rel_tol * max(|value|, mass), abs_tol). The
    mass floors the test for entries that cancel to ~0, and testing each
    entry on its own keeps a large entry from letting a small one pass
    unconverged. Returns (value, largest entrywise change).
    """
    rho_max = choose_rho_max(decay_hint)
    prev, _ = sums(halfline_rule(rho_max, 1))
    for level in range(1, max_refine + 1):
        cur, mass = sums(halfline_rule(rho_max, 2 ** level))
        diff = np.abs(cur - prev)
        if np.all(diff <= np.maximum(rel_tol * np.maximum(np.abs(cur), mass), abs_tol)):
            return cur, float(np.max(diff))
        prev = cur
    raise QuadratureConvergenceError(
        f"refinement stalled: last change {np.max(diff):.3e} above tolerance "
        f"(rel {rel_tol:.1e}, abs {abs_tol:.1e})"
    )


def integrate_halfline(f, decay_hint: DecayHint | None = None, *,
                       rel_tol: float = 1e-11, abs_tol: float = 1e-15,
                       max_refine: int = 4):
    """Integrate a real integrand on [0, inf).

    f(nodes) may carry leading axes, shape (..., len(nodes)): each entry is
    integrated and must converge on its own. Returns (value, est_error),
    value of f's leading shape, est_error the largest change under the last
    panel doubling. Raises QuadratureConvergenceError if refinement stalls.
    """
    def sums(rule):
        vals = np.asarray(f(rule.nodes))
        return (np.sum(rule.weights * vals, axis=-1).real,
                np.sum(rule.weights * np.abs(vals), axis=-1))

    return _refine(sums, decay_hint, rel_tol, abs_tol, max_refine)


def gram_matrix(fns, decay_hint: DecayHint | None = None) -> tuple[np.ndarray, float]:
    """All pairwise inner products <f_i, f_j> = integral of conj(f_i) f_j on
    [0, inf), evaluating each function once per node set.

    Returns (G, est_error) with est_error the largest entrywise change under
    the last panel doubling. Raises QuadratureConvergenceError if refinement
    stalls.
    """
    fns = list(fns)

    def sums(rule):
        vals = np.vstack([np.asarray(f(rule.nodes)) for f in fns])
        mods = np.abs(vals)
        return (np.conj(vals) * rule.weights) @ vals.T, (mods * rule.weights) @ mods.T

    return _refine(sums, decay_hint)


def cdh_gauss_rule(M: int, p: CdhParams) -> tuple[np.ndarray, np.ndarray]:
    """M-point Gauss rule of the continuous dual Hahn weight, as (x_k, log lambda_k).

    sum_k lambda_k g(x_k^2) equals the integral of g(x^2) cdh_weight(x, p) / (2 pi)
    over x in [0, inf) for every polynomial g of degree <= 2M - 1. The
    y_k = x_k^2 are the eigenvalues of the Jacobi matrix (`specfun.cdh_jacobi`)
    and lambda_k = h_0 / sum_{j<M} s_j(y_k)^2 the Christoffel numbers, with
    s_j the rows of `specfun.cdh_orthonormal`: accurate relative to each
    weight, where eigenvector (Golub-Welsch) weights are accurate only
    relative to the largest (Gautschi, Orthogonal Polynomials (2004), 1.4).
    The weights are returned as logs, so that h_0 may exceed a float.
    """
    if M < 1 or M != int(M):
        raise ValueError("number of Gauss nodes must be a positive integer")
    diag, off = cdh_jacobi(int(M), p)
    # dense eigvalsh of an M x M matrix, M ~ n_max: scipy.linalg's tridiagonal
    # solver would cost its import (~6 MB resident) in every process
    y = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    s = cdh_orthonormal(int(M) - 1, y, p)
    return np.sqrt(y), cdh_log_norm(0, p) - np.log(np.sum(s * s, axis=0))


def cdh_gram(fns, p: CdhParams, M: int) -> np.ndarray:
    """G[i, j] = integral of conj(f_i) f_j over [0, inf) by the M-point
    Gauss-CDH rule: sum_k lambda_k conj(f_i) f_j (x_k) 2 pi / cdh_weight(x_k),
    with the ratio lambda_k / cdh_weight(x_k) formed in logs.

    Each of fns is one function or a block of rows (values with leading
    axes, a basis say); the f_i are all their rows in order. Exact when
    every conj(f_i) f_j / cdh_weight is a polynomial of degree <= 2M - 1 in
    x^2, as for the radial states R_0..R_{M-1} at (alpha, nu, 1/2); each
    of fns is evaluated once, at the M nodes only.
    """
    x, log_lam = cdh_gauss_rule(M, p)
    weights = np.exp(log_lam + math.log(2.0 * math.pi) - cdh_log_weight(x, p))
    vals = np.concatenate([np.asarray(f(x), dtype=complex).reshape(-1, len(x)) for f in fns])
    return (np.conj(vals) * weights) @ vals.T
