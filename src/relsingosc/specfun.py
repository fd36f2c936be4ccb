"""Scalar special-function kernels: complex gamma machinery, generalized
degrees, and continuous dual Hahn polynomials.

Everything here is pure and stateless. Functions accept complex scalars or
numpy arrays and return the matching kind. Accuracy is the binding
constraint (>= 12 significant digits on the verification domain), not
speed; the complex gamma backend is scipy.special.loggamma, which meets
that bar, and all ratio-type quantities are computed in log space so that
huge/tiny gamma values never overflow intermediate results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma as _loggamma

__all__ = [
    "CdhParams",
    "GammaPoleError",
    "DegreeLimitError",
    "log_gamma",
    "gamma_ratio",
    "generalized_degree",
    "cdh_poly",
    "cdh_jacobi",
    "cdh_orthonormal",
    "cdh_log_weight",
    "cdh_weight",
    "cdh_log_norm",
    "cdh_norm",
]

# degree guard for cdh_poly: beyond this the terminating sum can lose all
# significance to cancellation
MAX_CDH_DEGREE = 200


class GammaPoleError(ValueError):
    """log_gamma evaluated at a non-positive integer."""


class DegreeLimitError(ValueError):
    """cdh_poly degree exceeds the supported range."""


def _as_complex_array(z):
    return np.asarray(z, dtype=complex)


def _restore(out: np.ndarray, like) -> complex | np.ndarray:
    """Return a python-friendly scalar when the input was scalar."""
    if np.ndim(like) == 0:
        return complex(out[()])
    return out


def _nonpositive_integer_mask(z: np.ndarray) -> np.ndarray:
    return (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))


def log_gamma(z) -> complex | np.ndarray:
    """Principal branch of log Gamma(z).

    Raises GammaPoleError if any input is a non-positive integer.
    """
    zz = _as_complex_array(z)
    if np.any(_nonpositive_integer_mask(zz)):
        raise GammaPoleError("log_gamma pole at non-positive integer argument")
    return _restore(np.asarray(_loggamma(zz)), z)


def gamma_ratio(z, delta) -> complex | np.ndarray:
    """Gamma(z + delta) / Gamma(z), finite wherever the ratio is.

    For integer delta this is the exact rational product, valid through the
    poles of both gammas. For non-integer delta, poles of Gamma(z) give a
    clean 0 (the 1/Gamma(z) factor wins) and everything else goes through
    log-gamma differences, so the ratio never overflows even when either
    gamma alone would.
    """
    zz = _as_complex_array(z)
    d = complex(delta)
    if d.imag == 0.0 and d.real == np.floor(d.real) and abs(d.real) <= 256:
        k = int(d.real)
        out = np.ones_like(zz)
        if k >= 0:
            for j in range(k):
                out = out * (zz + j)
        else:
            den = np.ones_like(zz)
            for j in range(1, -k + 1):
                den = den * (zz - j)
            out = out / den
        return _restore(out, z)

    pole = _nonpositive_integer_mask(zz)
    safe = np.where(pole, 1.0, zz)
    out = np.exp(_loggamma(safe + d) - _loggamma(safe))
    out = np.where(pole, 0.0, out)
    return _restore(np.asarray(out), z)


def generalized_degree(rho, delta) -> complex | np.ndarray:
    """Finite-difference power rho^(delta) = i^delta Gamma(-i rho + delta)/Gamma(-i rho).

    i^delta uses the principal branch exp(i pi delta / 2). The mirrored form
    (-rho)^(delta) used in the reduced wavefunctions is obtained by passing
    the negated argument. Satisfies rho^(0) = 1, rho^(1) = rho and the
    functional equation rho^(delta+1) = rho^(delta) * i(-i rho + delta).
    """
    rr = _as_complex_array(rho)
    d = complex(delta)
    phase = np.exp(1j * np.pi * d / 2)
    out = phase * _as_complex_array(gamma_ratio(-1j * rr, d))
    return _restore(out, rho)


@dataclass(frozen=True)
class CdhParams:
    """Continuous dual Hahn parameter triple (a, b, c).

    The denominator Pochhammer factors (a+b)_k and (a+c)_k must be nonzero
    for all orders, which a+b > 0 and a+c > 0 guarantee. Positivity of all
    three is only needed for the orthogonality weight/norm.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a + self.b > 0 and self.a + self.c > 0):
            raise ValueError(
                f"require a+b > 0 and a+c > 0, got a={self.a}, b={self.b}, c={self.c}"
            )

    def require_positive(self):
        if not (self.a > 0 and self.b > 0 and self.c > 0):
            raise ValueError(
                f"operation requires a, b, c > 0, got ({self.a}, {self.b}, {self.c})"
            )


def _check_degree(n) -> int:
    if n < 0 or n != int(n):
        raise ValueError("degree must be a non-negative integer")
    if n > MAX_CDH_DEGREE:
        raise DegreeLimitError(f"cdh_poly degree {n} exceeds limit {MAX_CDH_DEGREE}")
    return int(n)


def cdh_poly(n: int, xsq, p: CdhParams) -> float | complex | np.ndarray:
    """Continuous dual Hahn polynomial S_n(x^2; a, b, c) at x^2 = xsq, as the
    terminating hypergeometric sum

        S_n = (a+b)_n (a+c)_n
              * sum_k (-n)_k (a+ix)_k (a-ix)_k / [(a+b)_k (a+c)_k k!],

    with (a+ix)_k (a-ix)_k = prod_j ((a+j)^2 + x^2), accumulated in
    ascending k with Kahan compensation, in the arithmetic of xsq: real xsq
    gives a float (array), complex xsq a complex one. The sum loses digits
    to cancellation as n grows; the states use `cdh_orthonormal`, and this
    sum is its independent reference (`cdh-norms` and the tests).
    """
    n = _check_degree(n)
    x2 = np.asarray(xsq)
    x2 = x2.astype(complex if np.iscomplexobj(x2) else float)
    a, b, c = p.a, p.b, p.c
    total = np.zeros_like(x2)
    comp = np.zeros_like(x2)  # Kahan carry
    term = np.ones_like(x2)
    for k in range(n + 1):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        term = term * ((k - n) * ((a + k) ** 2 + x2)) / (
            (a + b + k) * (a + c + k) * (k + 1)
        )
    total = math.prod((a + b + j) * (a + c + j) for j in range(n)) * total
    return total if np.ndim(xsq) else total.item()


def cdh_jacobi(M: int, p: CdhParams) -> tuple[list[float], list[float]]:
    """Diagonal d_0..d_{M-1} and off-diagonal b_1..b_{M-1} of the Jacobi matrix
    of the continuous dual Hahn polynomials in y = x^2 (KLS 9.3), as floats:
    d_n = A_n + C_n - a^2 and b_n = sqrt(A_{n-1} C_n) = sqrt(h_n / h_{n-1}),
    with A_n = (n+a+b)(n+a+c) and C_n = n(n+b+c-1)."""
    p.require_positive()
    a, b, c = p.a, p.b, p.c
    diag, off = [], []
    for n in range(int(M)):
        A = (n + a + b) * (n + a + c)
        diag.append(A + n * (n + b + c - 1.0) - a * a)
        if n + 1 < M:
            off.append(math.sqrt(A * (n + 1) * (n + b + c)))
    return diag, off


def cdh_orthonormal(top: int, xsq, p: CdhParams, lowest: int = 0) -> np.ndarray:
    """Rows lowest..top of s_n(x^2) = S_n(x^2; a, b, c) sqrt(h_0 / h_n), stacked
    on a new leading axis, in the arithmetic of xsq: s_0 = 1, and the
    s_n / sqrt(h_0) are orthonormal under cdh_weight / (2 pi).

    Forward recurrence on `cdh_jacobi`, b_{n+1} s_{n+1} = (d_n - x^2) s_n
    - b_n s_{n-1}: stable at real x^2 and at the shifted points where the
    states are read, where the polynomials are the dominant solution (Gil,
    Segura & Temme, Numerical Methods for Special Functions (2007), ch. 4).
    Each row is the same floating-point computation for every `lowest`.
    """
    if not (0 <= lowest <= top and top == int(top) and lowest == int(lowest)):
        raise ValueError("degrees must be integers with 0 <= lowest <= top")
    diag, off = cdh_jacobi(int(top) + 1, p)
    y = np.asarray(xsq)
    y = y.astype(complex if np.iscomplexobj(y) else float)
    rows = []
    prev, cur = None, np.ones_like(y)
    for n in range(int(top) + 1):
        if n >= lowest:
            rows.append(cur)
        if n < top:
            nxt = (diag[n] - y) * cur
            if n:
                nxt -= off[n - 1] * prev
            nxt *= 1.0 / off[n]  # a product: complex division costs ~6 times as much
            prev, cur = cur, nxt
    return rows[0][np.newaxis] if len(rows) == 1 else np.stack(rows)


def cdh_log_weight(x, p: CdhParams) -> float | np.ndarray:
    """log of the orthogonality weight |Gamma(a+ix) Gamma(b+ix) Gamma(c+ix) / Gamma(2ix)|^2
    for x > 0 and a, b, c > 0, finite also where the weight over- or
    underflows. |Gamma(2ix)|^2 is the reflection formula pi / (2x sinh 2 pi x)."""
    p.require_positive()
    xx = np.asarray(x, dtype=float)
    if np.any(xx <= 0):
        raise ValueError("cdh_weight requires x > 0")
    z = 1j * xx
    lg = (_loggamma(p.a + z) + _loggamma(p.b + z) + _loggamma(p.c + z)).real
    # log |Gamma(2ix)|^2 = log(pi/x) - 2 pi x - log1p(-exp(-4 pi x))
    log_den = np.log(np.pi / xx) - 2.0 * np.pi * xx - np.log1p(-np.exp(-4.0 * np.pi * xx))
    out = 2.0 * lg - log_den
    return float(out[()]) if np.ndim(x) == 0 else out


def cdh_weight(x, p: CdhParams) -> float | np.ndarray:
    """Orthogonality weight exp(cdh_log_weight(x, p)): positive, decaying like a
    power of x times exp(-pi x), so envelope-based tail truncation is safe."""
    out = np.exp(cdh_log_weight(x, p))
    return float(out) if np.ndim(x) == 0 else out


def cdh_log_norm(n: int, p: CdhParams) -> float:
    """log h_n of the closed-form orthogonality norm of S_n under
    cdh_weight/(2 pi) on [0, inf):

        h_n = Gamma(n+a+b) Gamma(n+a+c) Gamma(n+b+c) n!

    Finite wherever the parameters are valid, also where h_n itself
    overflows a float.
    """
    p.require_positive()
    if n < 0 or n != int(n):
        raise ValueError("order must be a non-negative integer")
    a, b, c = p.a, p.b, p.c
    return (math.lgamma(n + a + b) + math.lgamma(n + a + c) + math.lgamma(n + b + c)
            + math.lgamma(n + 1.0))


def cdh_norm(n: int, p: CdhParams) -> float:
    """Closed-form orthogonality norm h_n = exp(cdh_log_norm(n, p)); raises
    OverflowError where h_n exceeds the float range."""
    return math.exp(cdh_log_norm(n, p))
