"""Scalar special-function kernels: complex gamma machinery, generalized
degrees, and continuous dual Hahn polynomials.

Everything here is pure and stateless. Functions accept complex scalars or
numpy arrays and return the matching kind. Accuracy is the binding
constraint (>= 12 significant digits on the verification domain), not
speed; the gamma backends are scipy.special.loggamma / rgamma, which meet
that bar, and all ratio-type quantities are computed in log space so that
huge/tiny gamma values never overflow intermediate results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma as _loggamma, rgamma as _rgamma

__all__ = [
    "CdhParams",
    "GammaPoleError",
    "DegreeLimitError",
    "log_gamma",
    "reciprocal_gamma",
    "pochhammer",
    "gamma_ratio",
    "generalized_degree",
    "cdh_poly",
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


def reciprocal_gamma(z) -> complex | np.ndarray:
    """Entire function 1/Gamma(z); exactly 0 at non-positive integers."""
    zz = _as_complex_array(z)
    return _restore(np.asarray(_rgamma(zz)), z)


def pochhammer(a, n: int) -> complex | np.ndarray:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0 or n != int(n):
        raise ValueError("pochhammer order must be a non-negative integer")
    aa = _as_complex_array(a)
    out = np.ones_like(aa)
    for j in range(int(n)):
        out = out * (aa + j)
    return _restore(out, a)


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


def cdh_poly(n: int, xsq, p: CdhParams) -> complex | np.ndarray:
    """Continuous dual Hahn polynomial S_n(x^2; a, b, c) at x^2 = xsq.

    Evaluated as the terminating hypergeometric sum

        S_n = (a+b)_n (a+c)_n
              * sum_k (-n)_k (a+ix)_k (a-ix)_k / [(a+b)_k (a+c)_k k!],

    where (a+ix)_k (a-ix)_k = prod_j ((a+j)^2 + x^2) depends on x^2 only.
    Ascending-k accumulation with Kahan compensation. For real xsq the
    result is real up to rounding and is returned with the (tiny) imaginary
    part truncated.
    """
    if n < 0 or n != int(n):
        raise ValueError("degree must be a non-negative integer")
    if n > MAX_CDH_DEGREE:
        raise DegreeLimitError(f"cdh_poly degree {n} exceeds limit {MAX_CDH_DEGREE}")
    n = int(n)
    x2 = _as_complex_array(xsq)
    a, b, c = p.a, p.b, p.c

    total = np.zeros_like(x2)
    comp = np.zeros_like(x2)  # Kahan carry
    term = np.ones_like(x2)
    for k in range(n + 1):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        term = term * ((-(n - k)) * ((a + k) ** 2 + x2)) / (
            (a + b + k) * (a + c + k) * (k + 1)
        )
    pref = complex(pochhammer(a + b, n) * pochhammer(a + c, n))
    total = pref * total

    if not np.iscomplexobj(np.asarray(xsq)):
        out = total.real
        if np.ndim(xsq) == 0:
            return float(out[()])
        return out
    return _restore(total, xsq)


def cdh_weight(x, p: CdhParams) -> float | np.ndarray:
    """Orthogonality weight |Gamma(a+ix) Gamma(b+ix) Gamma(c+ix) / Gamma(2ix)|^2.

    Defined for x > 0 and a, b, c > 0; strictly positive there and decaying
    like a power of x times exp(-2 pi x)... fast enough that tail truncation
    estimates based on that envelope are safe.
    """
    p.require_positive()
    xx = np.asarray(x, dtype=float)
    if np.any(xx <= 0):
        raise ValueError("cdh_weight requires x > 0")
    z = 1j * xx
    lg = _loggamma(p.a + z) + _loggamma(p.b + z) + _loggamma(p.c + z) - _loggamma(2 * z)
    out = np.exp(2.0 * lg.real)
    if np.ndim(x) == 0:
        return float(out[()])
    return out


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
    lg = (
        _loggamma(n + a + b)
        + _loggamma(n + a + c)
        + _loggamma(n + b + c)
        + _loggamma(n + 1.0)
    )
    return float(np.real(lg))


def cdh_norm(n: int, p: CdhParams) -> float:
    """Closed-form orthogonality norm h_n = exp(cdh_log_norm(n, p))."""
    return float(np.exp(cdh_log_norm(n, p)))
