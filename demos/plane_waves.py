"""Relativistic plane waves in configurational space.

Free motion is described by waves (cosh chi - sinh chi cos theta)^(-(N-1)/2 - i rho)
on the mass hyperboloid, parametrized by rapidity. They are exact
eigenfunctions of the finite-difference free Hamiltonian with eigenvalue
cosh chi (total energy in units of mc^2), and reduce to ordinary Euclidean
plane waves when the Compton wavelength shrinks.
"""

import numpy as np

from relsingosc import (
    PlaneWaveParams,
    free_hamiltonian_residual,
    reduction_multiplier,
    weight_wN,
    xi_Nd,
)
from relsingosc.planewaves import xi_nonrel_deviation

print("=" * 72)
print("1. Eigenvalue property of the free Hamiltonian")
print("=" * 72)
thetas = np.linspace(0.3, np.pi - 0.3, 7)
samples = [(rho, th) for rho in (1.0, 3.0, 10.0) for th in thetas]
print(f"{'N':>3} {'chi':>5} {'E = cosh(chi)':>14} {'max residual':>14}")
for N in (2, 3, 5):
    for chi in (0.0, 0.2, 0.5, 1.0):
        pw = PlaneWaveParams(chi=chi, N=N)
        res = free_hamiltonian_residual(pw, samples)
        print(f"{N:>3} {chi:>5.1f} {pw.energy:>14.8f} {res:>14.3e}")
print("(radial shifts are exact; the ~1e-9 floor is the angular finite difference)")

print()
print("=" * 72)
print("2. At N = 3 the wave is (cosh chi - sinh chi cos theta)^(-1 - i rho)")
print("=" * 72)
pw = PlaneWaveParams(chi=0.7, N=3)
for rho, ct in ((0.5, 0.3), (4.0, -0.8)):
    a = (np.cosh(pw.chi) - np.sinh(pw.chi) * ct) ** (-1 - 1j * rho)
    b = xi_Nd(pw, rho, ct)
    print(f"  rho={rho}, cos(theta)={ct}: formula = {a:.6f}, xi_Nd = {b:.6f}")

print()
print("=" * 72)
print("3. Nonrelativistic limit: xi -> exp(i p r cos theta)")
print("=" * 72)
print("fixed p = 1.3, r = 2.0, cos(theta) = 0.4; shrinking Compton wavelength:")
for lam in (2e-2, 1e-2, 5e-3, 2.5e-3):
    dev = xi_nonrel_deviation(1.3, 2.0, 0.4, lam)
    print(f"  lambda_bar = {lam:7.4f}: |xi - plane wave| = {dev:.4e}")
print("the deviation is linear in lambda_bar")

print()
print("=" * 72)
print("4. Configurational weight and the dimension-reduction multiplier")
print("=" * 72)
rho = np.array([0.5, 1.0, 2.0, 8.0])
print("w_3(rho) =", weight_wN(rho, 3), " (identically 1: 3D needs no weight)")
print("w_5(rho) =", weight_wN(rho, 5), " vs (rho^2+1)/rho^2 =", (rho ** 2 + 1) / rho ** 2)
for N in (2, 5, 8):
    prod = (np.abs(reduction_multiplier(rho, N)) ** 2 * weight_wN(rho, N)
            * rho ** (N - 1))
    print(f"  |multiplier|^2 w_{N} rho^{N - 1} = "
          f"{np.array2string(prod, precision=12)} (identically 1)")
