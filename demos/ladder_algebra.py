"""The dynamical symmetry: factorization, ladder operators, su(1,1).

The Hamiltonian factorizes through half-shift operators a+-, and a pair of
quadratic ladder operators A+- moves between neighboring levels. Rescaled
spectrally, they close the su(1,1) algebra: K+- shift the level index with
coefficients kappa_n = sqrt(n (n + alpha + nu - 1)) and K0 is the
Hamiltonian in units of 2 hbar omega. The whole spectrum then follows
algebraically from the Casimir value s(s-1).
"""

import numpy as np

from relsingosc import (
    LadderCoefficients,
    ModelParams,
    build_A_minus,
    build_A_plus,
    build_a_minus,
    build_a_plus,
    casimir,
    derive_params,
    generate_state_via_ladder,
    hamiltonian_reduced,
    radial_wavefunction,
    su11_generators,
)
from relsingosc.operators import compose, identity_op, op_sum, scale

p = ModelParams(N=3, l=1, omega0=0.1, g0=1.0)
d = derive_params(p)
pts = np.array([0.5, 1.0, 2.0, 5.0])
states = [radial_wavefunction(p, n) for n in range(4)]

print("=" * 72)
print("1. Factorization: H = omega0 (a+ a- + alpha + nu)")
print("=" * 72)
fact = compose(scale(p.omega0), op_sum(
    compose(build_a_plus(p), build_a_minus(p)),
    compose(scale(d.alpha + d.nu), identity_op()),
))
H = hamiltonian_reduced(p)
f0 = states[0].fn
print("  H R_0 vs factorized form at sample points:")
for r, a, b in zip(pts, H.apply(f0)(pts), fact.apply(f0)(pts)):
    print(f"    rho = {r:4.1f}: {a:+.6e}  vs  {b:+.6e}")
am_on_ground = compose(build_a_plus(p), build_a_minus(p)).apply(f0)(pts)
print(f"  a+ a- annihilates the ground state: max |a+ a- R_0| / |R_0| = "
      f"{np.max(np.abs(am_on_ground)) / np.max(np.abs(f0(pts))):.2e}")

print()
print("=" * 72)
print("2. Ladder operators connect neighboring levels")
print("=" * 72)
lc = LadderCoefficients.from_params(p, d)
Ap = build_A_plus(p)
for n in (0, 1, 2):
    image = Ap.apply(states[n].fn)(pts)
    ratio = np.asarray(image) / np.asarray(states[n + 1].fn(pts))
    expect = -np.sqrt(lc.f_energy(n + 1)) * lc.kappa(n + 1)
    print(f"  A+ R_{n} / R_{n + 1} = {ratio[0]:+.8f} (constant across rho; "
          f"predicted {expect:+.8f})")
Am = build_A_minus(p)
down = Am.apply(states[0].fn)(pts)
print(f"  A- R_0 = 0: max |A- R_0| / |R_0| = "
      f"{np.max(np.abs(down)) / np.max(np.abs(states[0].fn(pts))):.2e}")

print()
print("=" * 72)
print("3. su(1,1) on the eigenbasis: K+, K-, K0 as matrices on R_0..R_3")
print("=" * 72)
k_plus, k_minus, k0 = su11_generators(p, 4)
print("  K0 is diagonal with entries n + s:")
for n in range(4):
    print(f"    n = {n}: K0[n, n] = {k0[n, n]:.6f} (n + s = {n + d.s:.6f})")
bracket = k_minus @ k_plus - k_plus @ k_minus
print("  [K-, K+] = 2 K0 below the truncated top row:",
      np.allclose(bracket[:-1], 2 * k0[:-1]))
c = casimir(p, 4)
k2 = d.s * (d.s - 1)
print(f"  Casimir K0(K0-1) - K+K- vs s(s-1) I: max deviation "
      f"{np.abs(c - k2 * np.eye(4)).max():.1e}  (s(s-1) = {k2:.10f})")

print()
print("=" * 72)
print("4. Building excited states by raising the ground state")
print("=" * 72)
for n in (1, 2, 3):
    gen = generate_state_via_ladder(p, n)
    got = np.asarray(gen.fn(pts))
    want = np.asarray(states[n].fn(pts))
    print(f"  (K+)^{n} route vs direct formula: max rel diff = "
          f"{np.max(np.abs(got - want)) / np.max(np.abs(want)):.2e}")
