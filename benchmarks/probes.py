"""Layer probes: min-of-repeats cost of single library calls at the seven
RHO_SAMPLES points, at one fixed parameter point.

These are the per-call costs that the layer figures of the ROADMAP quote:
the special-function kernels, one wavefunction evaluation, one operator
application (H, A+, H A+), one normalization, one Gram matrix and one
ladder-generated state.
"""

from __future__ import annotations

import time

import numpy as np

# (metric, unit scale, repeats)
PROBES = (
    ("specfun.gamma_ratio.probe_us", 1e6, 300),
    ("specfun.cdh_poly_n5.probe_us", 1e6, 300),
    ("oscillator.R3.probe_us", 1e6, 300),
    ("operators.H_R3.probe_us", 1e6, 100),
    ("operators.Aplus_R3.probe_us", 1e6, 30),
    ("operators.H_Aplus_R3.probe_us", 1e6, 15),
    ("quadrature.normalize.probe_ms", 1e3, 15),
    ("quadrature.gram.probe_ms", 1e3, 7),
    ("symmetry.ladder_R4.probe_ms", 1e3, 5),
)


def _calls(pkg):
    """metric -> zero-argument call, all at (N, l, omega0, g0) = (3, 1, 0.2, 1)."""
    osc, sym, spf, quad = pkg.oscillator, pkg.symmetry, pkg.specfun, pkg.quadrature
    p = osc.ModelParams(N=3, l=1, omega0=0.2, g0=1.0)
    d = osc.derive_params(p)
    rho = np.asarray(osc.RHO_SAMPLES)
    cdh = spf.CdhParams(d.alpha, d.nu, 0.5)
    states = [osc.radial_wavefunction(p, n) for n in range(6)]
    r3 = states[3].fn
    H, Ap = osc.hamiltonian_reduced(p), sym.build_A_plus(p)
    fns = [s.fn for s in states]
    hint = osc.state_decay_hint(d, 5)
    return {
        "specfun.gamma_ratio.probe_us": lambda: spf.gamma_ratio(-1j * rho, d.alpha),
        "specfun.cdh_poly_n5.probe_us": lambda: spf.cdh_poly(5, rho ** 2, cdh),
        "oscillator.R3.probe_us": lambda: r3(rho),
        "operators.H_R3.probe_us": lambda: H.apply(r3)(rho),
        "operators.Aplus_R3.probe_us": lambda: Ap.apply(r3)(rho),
        "operators.H_Aplus_R3.probe_us": lambda: H.apply(Ap.apply(r3))(rho),
        "quadrature.normalize.probe_ms": lambda: osc.radial_wavefunction(p, 3),
        "quadrature.gram.probe_ms": lambda: quad.gram_matrix(fns, hint),
        "symmetry.ladder_R4.probe_ms": lambda: sym.generate_state_via_ladder(p, 4).fn(rho),
    }


def run_probes(pkg, repeat: int | None = None) -> dict[str, float]:
    """Minimum over `repeat` calls (default: each probe's own count) of each probe."""
    calls = _calls(pkg)
    out = {}
    for metric, scale, default_repeat in PROBES:
        call = calls[metric]
        best = float("inf")
        for _ in range(repeat or default_repeat):
            t0 = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - t0)
        out[metric] = best * scale
    return out
