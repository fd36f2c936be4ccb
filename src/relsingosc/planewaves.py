"""Relativistic plane waves on the momentum hyperboloid, in 3 and N dimensions.

Momenta are parametrized by the rapidity chi (p = mc sinh chi, E_p =
mc^2 cosh chi, so p0^2 - p^2 = m^2 c^2 identically) and aligned with the
polar axis, which rotational invariance allows without loss of generality;
all angular dependence is then one-dimensional and the angular Laplacian on
such functions reduces to d^2/dtheta^2 + (N-2) cot(theta) d/dtheta.

Radial shifts are exact complex displacements; angular derivatives use
central differences with one Richardson extrapolation level, which is what
sets the achievable residual (~1e-9 at ANGLE_STEP), not the radial
part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specfun import generalized_degree

__all__ = [
    "PlaneWaveParams",
    "xi_Nd",
    "free_hamiltonian_residual",
    "weight_wN",
    "reduction_multiplier",
    "xi_nonrel_deviation",
]

ANGLE_STEP = 1e-3  # central-difference step of the angular derivatives
# keep theta away from the coordinate poles where cot(theta) blows up
THETA_WINDOW = (0.3, np.pi - 0.3)


@dataclass(frozen=True)
class PlaneWaveParams:
    """Rapidity and dimension of a polar-axis-aligned plane wave. Each may be
    a (P, 1) column, one wave per stacked point."""

    chi: float
    N: int = 3

    def __post_init__(self):
        if not np.all(np.isfinite(self.chi)):
            raise ValueError("rapidity must be finite")
        if np.any(np.less(self.N, 2)):
            raise ValueError("plane waves need N >= 2")

    @property
    def momentum(self) -> float | np.ndarray:
        out = np.sinh(self.chi)
        return out if np.ndim(out) else float(out)

    @property
    def energy(self) -> float | np.ndarray:
        out = np.cosh(self.chi)
        return out if np.ndim(out) else float(out)


def _xi(N: int, chi: float, rho, costheta):
    q = np.cosh(chi) - np.sinh(chi) * np.asarray(costheta)
    exponent = -(N - 1) / 2.0 - 1j * np.asarray(rho, dtype=complex)
    return np.exp(exponent * np.log(q))


def xi_Nd(pw: PlaneWaveParams, rho, costheta1):
    """N-dimensional plane wave (cosh chi - sinh chi cos theta1)^(-(N-1)/2 - i rho);
    at N = 3 the exponent is -1 - i rho."""
    return _xi(pw.N, pw.chi, rho, costheta1)


def _angular_laplacian(N: int, chi: float, rho, theta, h: float, mid):
    """Delta_0 on functions of the first polar angle only, by Richardson-
    extrapolated central differences, given mid, the plane wave at theta;
    it is evaluated once at each of the other four angles theta +- h/2 and
    theta +- h."""

    def f(th):
        return _xi(N, chi, rho, np.cos(th))

    near, far = (f(theta + h / 2), f(theta - h / 2)), (f(theta + h), f(theta - h))

    def d1(pair, hh):
        return (pair[0] - pair[1]) / (2.0 * hh)

    def d2(pair, hh):
        return (pair[0] - 2.0 * mid + pair[1]) / hh ** 2

    first = (4.0 * d1(near, h / 2) - d1(far, h)) / 3.0
    second = (4.0 * d2(near, h / 2) - d2(far, h)) / 3.0
    return second + (N - 2) * first / np.tan(theta)


def free_hamiltonian_residual(pw: PlaneWaveParams, samples,
                              eigenvalue: float | None = None) -> float | np.ndarray:
    """Max relative residual of (H0 - E) xi over (rho, theta) samples, all
    evaluated at once: a float, or one per point, shape (P,), when N and chi
    are (P, 1) columns.

    H0 in the spherical system:

        cosh(i d_rho) + i(N-1)/(2 rho) sinh(i d_rho)
        - Delta_0 / (rho [2 rho - i(N-3)]) e^{i d_rho}.

    Radial displacements are exact; the angular Laplacian (evaluated at the
    shifted radial argument) uses finite differences. E defaults to the
    true eigenvalue cosh chi; passing a perturbed value (a float, or a
    (P, 1) column) turns this into a negative control.
    """
    N, chi = pw.N, pw.chi
    e_val = np.cosh(chi) if eigenvalue is None else eigenvalue
    rho, theta = np.asarray(samples, dtype=float).reshape(-1, 2).T
    outside = ~((THETA_WINDOW[0] <= theta) & (theta <= THETA_WINDOW[1]))
    if outside.any():
        raise ValueError(f"theta = {theta[outside][0]} outside the supported window "
                         f"{THETA_WINDOW}")
    ct = np.cos(theta)
    up = _xi(N, chi, rho + 1j, ct)
    down = _xi(N, chi, rho - 1j, ct)
    val = 0.5 * (up + down) + 1j * (N - 1) / (2.0 * rho) * 0.5 * (up - down)
    lap = _angular_laplacian(N, chi, rho + 1j, theta, ANGLE_STEP, up)
    val = val - lap / (rho * (2.0 * rho - 1j * (N - 3)))
    ref = e_val * _xi(N, chi, rho, ct)
    worst = np.max(np.abs(val - ref) / np.abs(ref), axis=-1, initial=0.0)  # keeps a nan
    return worst if worst.ndim else float(worst)


def weight_wN(rho, N: int):
    """Configurational-space weight w_N = rho^(1-N) |rho^((N-1)/2)|^2 for rho > 0.

    Identically 1 for N = 3 (and trivially for N = 1).
    """
    rr = np.asarray(rho, dtype=float)
    if np.any(rr <= 0):
        raise ValueError("weight_wN requires rho > 0")
    deg = generalized_degree(rr, (N - 1) / 2.0)
    out = rr ** (1.0 - N) * np.abs(deg) ** 2
    if np.ndim(rho) == 0:
        return float(out)
    return out


def reduction_multiplier(rho, N: int):
    """Factor [(-rho)^((N-1)/2)]^(-1) converting reduced radial functions R into
    the unreduced psi; |multiplier|^2 * w_N * rho^(N-1) = 1 on the real axis."""
    rr = np.asarray(rho, dtype=complex)
    deg = generalized_degree(-rr, (N - 1) / 2.0)
    out = 1.0 / np.asarray(deg)
    if np.ndim(rho) == 0:
        return complex(out)
    return out


def xi_nonrel_deviation(momentum: float, r: float, costheta: float,
                        lambda_bar: float) -> float:
    """|xi - exp(i p r cos theta)| at fixed physical momentum and radius.

    With hbar = m = 1 and c = 1/lambda_bar the rapidity is
    arcsinh(p lambda_bar) and the radial coordinate is r / lambda_bar; the
    deviation from the flat plane wave is O(lambda_bar).
    """
    chi = float(np.arcsinh(momentum * lambda_bar))
    rho = r / lambda_bar
    q = np.cosh(chi) - np.sinh(chi) * costheta
    rel = np.exp((-1.0 - 1j * rho) * np.log(q))
    flat = np.exp(1j * momentum * r * costheta)
    return float(abs(rel - flat))
