import dataclasses

import numpy as np
import pytest

from relsingosc import checks, oscillator, symmetry
from relsingosc.checks import CHECKS, GridContext, _run_check
from relsingosc.operators import AnalyticFunction
from relsingosc.oscillator import ModelParams

P = ModelParams(N=3, l=1, omega0=0.2, g0=1.0)


class NanStates(GridContext):
    """Every eigenstate evaluates to nan, as an overflowed state would."""

    def basis(self, top):
        b = super().basis(top)
        return dataclasses.replace(b, fn=AnalyticFunction(
            lambda z: np.full((top + 1,) + np.shape(z), np.nan + 0j), b.fn.strip_halfwidth))


@pytest.mark.parametrize("cid", ["eigen-residual", "eigen-negative-control", "factorization",
                                 "reduction-chain", "ladder-action",
                                 "commutator-hamiltonian-ladder", "state-generation"])
def test_nan_residuals_become_error_entries(cid):
    ctx = NanStates(P)
    cdef = CHECKS[cid]
    with np.errstate(invalid="ignore"):
        out = _run_check(cid, None, cdef.default_tol, lambda: cdef.runner(ctx))
    assert out.status == "error"
    assert out.residual is None and out.passed is False
    assert "nan" in out.reason


def test_ladder_states_built_once_per_point(monkeypatch):
    builds = []

    def counting(p, top, *args, **kwargs):
        builds.append(top)
        return original(p, top, *args, **kwargs)

    original = checks.generate_basis_via_ladder
    monkeypatch.setattr(checks, "generate_basis_via_ladder", counting)
    ctx = GridContext(P)
    for cid in ("state-generation", "state-generation-norm"):
        assert CHECKS[cid].runner(ctx) < CHECKS[cid].default_tol
    assert builds == [4]


def test_point_evaluates_states_in_few_stacked_calls(monkeypatch):
    """One run_point reads its states through a handful of stacked
    evaluations (basis rows, or R_0 for the ladder and momentum routes),
    not one evaluation per state, superposition and ladder chain, and each
    check reads its basis once for all of its images, and the H image of
    the basis is taken once for both eigen checks (13 reads; 24 when every
    image read the basis on its own)."""
    calls = []

    def counted(fn):
        def ev(z):
            calls.append(np.shape(z))
            return fn(z)
        return AnalyticFunction(ev, fn.strip_halfwidth, fn.singular_points)

    def counting(build):
        def built(*args):
            states = build(*args)
            return dataclasses.replace(states, fn=counted(states.fn))
        return built

    monkeypatch.setattr(checks, "radial_basis", counting(checks.radial_basis))
    # single states: R_0 of the momentum route and of the ladder chain
    state = counting(oscillator.radial_wavefunction)
    monkeypatch.setattr(checks, "radial_wavefunction", state)
    monkeypatch.setattr(symmetry, "radial_wavefunction", state)
    outcomes = checks.run_point((3, 1, 0.2, 1.0), [c for c in CHECKS if CHECKS[c].scope == "grid"])
    assert all(o.passed for o in outcomes)
    assert 0 < len(calls) <= 13
