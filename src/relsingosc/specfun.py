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
    "cdh_polys",
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


def _check_degree(n) -> int:
    if n < 0 or n != int(n):
        raise ValueError("degree must be a non-negative integer")
    if n > MAX_CDH_DEGREE:
        raise DegreeLimitError(f"cdh_poly degree {n} exceeds limit {MAX_CDH_DEGREE}")
    return int(n)


def _cdh_sums(lowest: int, top: int, x2: np.ndarray, p: CdhParams) -> np.ndarray:
    """S_n(x^2; a, b, c) for n = lowest..top, stacked on a new leading axis.

    Each degree is the terminating sum

        S_n = (a+b)_n (a+c)_n
              * sum_k (-n)_k (a+ix)_k (a-ix)_k / [(a+b)_k (a+c)_k k!],

    with (a+ix)_k (a-ix)_k = prod_j ((a+j)^2 + x^2), accumulated in
    ascending k with Kahan compensation, in the dtype of x2 (float or
    complex). All degrees share the loop over k, and the row of degree n is
    read off once its last term k = n is in, so each row is the same
    floating-point computation for every `lowest` and `top`.
    """
    a, b, c = p.a, p.b, p.c
    # one degree keeps n a Python int: numpy multiplies it in as a scalar,
    # where a column of degrees would be broadcast against x2
    n = top if lowest == top else np.arange(lowest, top + 1, dtype=x2.dtype).reshape(
        (-1,) + (1,) * x2.ndim)
    total = np.zeros((top - lowest + 1,) + x2.shape, dtype=x2.dtype)
    comp = np.zeros_like(total)  # Kahan carry
    term = np.ones_like(total)
    out = np.empty_like(total)
    for k in range(top + 1):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if k >= lowest:  # the last term of degree k is in
            out[k - lowest] = total[k - lowest]
        term = term * ((k - n) * ((a + k) ** 2 + x2)) / (
            (a + b + k) * (a + c + k) * (k + 1)
        )
    # (a+b)_n (a+c)_n as running products: the factors of pochhammer, in its order
    steps = np.arange(top)
    pref = (np.cumprod(np.concatenate(([1.0], a + b + steps)))
            * np.cumprod(np.concatenate(([1.0], a + c + steps))))[lowest:]
    return pref.reshape((-1,) + (1,) * x2.ndim) * out


def cdh_poly(n: int, xsq, p: CdhParams) -> float | complex | np.ndarray:
    """Continuous dual Hahn polynomial S_n(x^2; a, b, c) at x^2 = xsq.

    Evaluated as the terminating hypergeometric sum of `cdh_polys`, for the
    one degree n, in the arithmetic of xsq: real xsq gives a float (array)
    computed in real arithmetic, complex xsq the complex row of `cdh_polys`.
    """
    n = _check_degree(n)
    x2 = np.asarray(xsq)
    total = _cdh_sums(n, n, x2.astype(complex if np.iscomplexobj(x2) else float), p)[0]
    return total if np.ndim(xsq) else total.item()


def cdh_polys(top: int, xsq, p: CdhParams) -> np.ndarray:
    """S_0..S_top at x^2 = xsq, stacked on a new leading axis, as complex
    values; row n equals cdh_poly(n, xsq, p) at complex xsq bit for bit."""
    return _cdh_sums(0, _check_degree(top), _as_complex_array(xsq), p)


def cdh_weight(x, p: CdhParams) -> float | np.ndarray:
    """Orthogonality weight |Gamma(a+ix) Gamma(b+ix) Gamma(c+ix) / Gamma(2ix)|^2.

    Defined for x > 0 and a, b, c > 0; strictly positive there and decaying
    like a power of x times exp(-pi x), fast enough that tail truncation
    estimates based on that envelope are safe. |Gamma(2ix)|^2 is the
    reflection formula pi / (2x sinh 2 pi x), taken in logs.
    """
    p.require_positive()
    xx = np.asarray(x, dtype=float)
    if np.any(xx <= 0):
        raise ValueError("cdh_weight requires x > 0")
    z = 1j * xx
    lg = (_loggamma(p.a + z) + _loggamma(p.b + z) + _loggamma(p.c + z)).real
    # log |Gamma(2ix)|^2 = log(pi/x) - 2 pi x - log1p(-exp(-4 pi x))
    log_den = np.log(np.pi / xx) - 2.0 * np.pi * xx - np.log1p(-np.exp(-4.0 * np.pi * xx))
    out = np.exp(2.0 * lg - log_den)
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
