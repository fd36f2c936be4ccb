"""Special-function kernels: complex gamma machinery, generalized degrees,
and continuous dual Hahn polynomials.

Everything here is pure and stateless. Functions accept complex scalars or
numpy arrays and return the matching kind. Parameters (a gamma-ratio shift,
a CDH triple) may also be arrays that broadcast against the argument, one
value per stacked parameter point. A scalar and a column take the same
path, one elementwise expression, so each stacked point gets the digits it
gets alone. Accuracy is the binding constraint (>= 12 significant digits on
the verification domain), not speed; the gamma backends are
scipy.special.loggamma (complex) and gammaln (real), which meet that bar,
and all ratio-type quantities are computed in log space so that huge/tiny
gamma values never overflow intermediate results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln as _gammaln
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
    """A gamma evaluated at a pole: log_gamma at a non-positive integer, or
    gamma_ratio where Gamma(z + delta) has a pole and Gamma(z) does not."""


class DegreeLimitError(ValueError):
    """cdh_poly degree exceeds the supported range."""


def _as_complex_array(z):
    return np.asarray(z, dtype=complex)


def _restore(out) -> complex | np.ndarray:
    """A python complex for a 0-d result (all inputs scalar), else the array."""
    return complex(out[()]) if np.ndim(out) == 0 else out


def _nonpositive_integer_mask(z: np.ndarray) -> np.ndarray:
    # real and at most 0 and whole: z equals min(floor(Re z), 0)
    return z == np.minimum(np.floor(z.real), 0.0)


def log_gamma(z) -> complex | np.ndarray:
    """Principal branch of log Gamma(z).

    Raises GammaPoleError if any input is a non-positive integer.
    """
    zz = _as_complex_array(z)
    if np.count_nonzero(_nonpositive_integer_mask(zz)):
        raise GammaPoleError("log_gamma pole at non-positive integer argument")
    return _restore(_loggamma(zz))


def gamma_ratio(z, delta) -> complex | np.ndarray:
    """Gamma(z + delta) / Gamma(z), finite wherever the ratio is.

    delta broadcasts against z, and each entry takes the route its own
    value takes. For integer delta this is the exact rational product,
    valid through the poles of both gammas. For non-integer delta, poles of
    Gamma(z) give a clean 0 (the 1/Gamma(z) factor wins) and everything else
    goes through log-gamma differences, so the ratio never overflows even
    when either gamma alone would. Where Gamma(z + delta) alone has a pole,
    the ratio is infinite and GammaPoleError names the argument; that is
    looked for only where the result is not finite.
    """
    zz = _as_complex_array(z)
    d = np.asarray(delta, dtype=complex)
    whole = (d == np.floor(d.real)) & (np.abs(d.real) <= 256)
    n_whole = np.count_nonzero(whole)
    out = None
    if n_whole < whole.size:
        frac = np.where(whole, 0.5, d) if n_whole else d  # integers: taken below
        pole = _nonpositive_integer_mask(zz)
        if np.count_nonzero(pole):
            safe = np.where(pole, 1.0, zz)
            out = np.where(pole, 0.0, np.exp(_loggamma(safe + frac) - _loggamma(safe)))
        else:
            out = np.exp(_loggamma(zz + frac) - _loggamma(zz))
        if not np.isfinite(out).all():
            arg = np.broadcast_to(zz + frac, out.shape)
            bad = _nonpositive_integer_mask(arg) & ~pole & ~whole
            if np.count_nonzero(bad):
                raise GammaPoleError(f"gamma_ratio pole: Gamma(z + delta) at non-positive "
                                     f"integer argument z + delta = {arg[bad][0].real:g}")
    if n_whole:
        k = np.where(whole, d.real, 0.0).astype(int)
        ratio = np.ones(np.broadcast(zz, d).shape, dtype=complex)
        for j in range(k.max()):
            np.multiply(ratio, zz + j, out=ratio, where=j < k)
        if (lowest := k.min()) < 0:
            den = np.ones_like(ratio)
            for j in range(1, 1 - lowest):
                np.multiply(den, zz - j, out=den, where=j <= -k)
            ratio = ratio / den
        out = ratio if out is None else np.where(whole, ratio, out)
    return _restore(out)


def generalized_degree(rho, delta) -> complex | np.ndarray:
    """Finite-difference power rho^(delta) = i^delta Gamma(-i rho + delta)/Gamma(-i rho).

    i^delta uses the principal branch exp(i pi delta / 2). The mirrored form
    (-rho)^(delta) used in the reduced wavefunctions is obtained by passing
    the negated argument. Satisfies rho^(0) = 1, rho^(1) = rho and the
    functional equation rho^(delta+1) = rho^(delta) * i(-i rho + delta).
    """
    d = np.asarray(delta, dtype=complex)
    return _restore(np.exp(1j * np.pi * d / 2) * gamma_ratio(-1j * _as_complex_array(rho), d))


def _all(cond) -> bool:
    return cond if isinstance(cond, bool) else bool(np.all(cond))


@dataclass(frozen=True)
class CdhParams:
    """Continuous dual Hahn parameter triple (a, b, c).

    The denominator Pochhammer factors (a+b)_k and (a+c)_k must be nonzero
    for all orders, which a+b > 0 and a+c > 0 guarantee. Positivity of all
    three is only needed for the orthogonality weight/norm. Each may be
    an array, one triple per stacked parameter point.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not _all((self.a + self.b > 0) & (self.a + self.c > 0)):
            raise ValueError(
                f"require a+b > 0 and a+c > 0, got a={self.a}, b={self.b}, c={self.c}"
            )
        # checked here once: the kernels ask at every call
        object.__setattr__(self, "_positive", _all((self.a > 0) & (self.b > 0) & (self.c > 0)))

    def require_positive(self):
        if not self._positive:
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
    # parameter columns: S_0 spans them too
    shape = np.broadcast_shapes(x2.shape, np.shape(a), np.shape(b), np.shape(c))
    total = np.zeros(shape, x2.dtype)
    comp = np.zeros(shape, x2.dtype)  # Kahan carry
    term = np.ones(shape, x2.dtype)
    for k in range(n + 1):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        term = term * ((k - n) * ((a + k) ** 2 + x2)) / (
            (a + b + k) * (a + c + k) * (k + 1)
        )
    total = math.prod((a + b + j) * (a + c + j) for j in range(n)) * total
    return total if total.ndim else total.item()


def cdh_jacobi(M: int, p: CdhParams) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal d_0..d_{M-1} and off-diagonal b_1..b_{M-1} of the Jacobi matrix
    of the continuous dual Hahn polynomials in y = x^2 (KLS 9.3), as arrays
    with n on the leading axis (shape (M,) for a scalar triple, (M, P, 1)
    for (P, 1) columns): d_n = A_n + C_n - a^2 and
    b_n = sqrt(A_{n-1} C_n) = sqrt(h_n / h_{n-1}), with
    A_n = (n+a+b)(n+a+c) and C_n = n(n+b+c-1)."""
    p.require_positive()
    a, b, c = p.a, p.b, p.c
    n = np.arange(int(M)).reshape((-1,) + (1,) * np.broadcast(a, b, c).ndim)
    na, nbc = n + a, n + b + c
    A = (na + b) * (na + c)
    return A + n * (nbc - 1.0) - a * a, np.sqrt(A[:-1] * n[1:] * nbc[:-1])


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
    inv = 1.0 / off  # products below: complex division costs ~6 times as much
    y = np.asarray(xsq)
    y = np.asarray(y, dtype=complex if np.iscomplexobj(y) else float)
    # parameter columns: s_0 spans them too
    cur = np.ones(np.broadcast(y, diag[0]).shape, y.dtype)
    # a lone row is the last buffer itself
    rows = np.empty((int(top) + 1 - int(lowest),) + cur.shape, y.dtype) if lowest < top else None
    # three buffers in rotation, each product with its operands in the order
    # of (d_n - x^2) s_n - b_n s_{n-1}
    prev, nxt = np.empty_like(cur), np.empty_like(cur)
    for n in range(int(top) + 1):
        if rows is not None and n >= lowest:
            rows[n - lowest] = cur
        if n < top:
            np.subtract(diag[n], y, out=nxt)
            nxt *= cur
            if n:
                np.multiply(off[n - 1], prev, out=prev)
                nxt -= prev
            nxt *= inv[n]
            prev, cur, nxt = cur, nxt, prev
    return cur[np.newaxis] if rows is None else rows


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


def cdh_log_norm(n: int, p: CdhParams) -> float | np.ndarray:
    """log h_n of the closed-form orthogonality norm of S_n under
    cdh_weight/(2 pi) on [0, inf):

        h_n = Gamma(n+a+b) Gamma(n+a+c) Gamma(n+b+c) n!

    Finite wherever the parameters are valid, also where h_n itself
    overflows a float; elementwise for array parameters.
    """
    p.require_positive()
    if n < 0 or n != int(n):
        raise ValueError("order must be a non-negative integer")
    a, b, c = p.a, p.b, p.c
    return _gammaln(n + a + b) + _gammaln(n + a + c) + _gammaln(n + b + c) + _gammaln(n + 1.0)


def cdh_norm(n: int, p: CdhParams) -> float | np.ndarray:
    """Closed-form orthogonality norm h_n = exp(cdh_log_norm(n, p)),
    elementwise for array parameters; raises OverflowError where h_n exceeds
    the float range."""
    with np.errstate(over="ignore"):
        h = np.exp(cdh_log_norm(n, p))
    if not np.isfinite(h).all():
        raise OverflowError(f"continuous dual Hahn norm h_{n} exceeds the float range")
    return h
