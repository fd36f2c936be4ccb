import dataclasses

import numpy as np
import pytest

from relsingosc import checks
from relsingosc.checks import CHECKS, GridContext, _run_check
from relsingosc.operators import AnalyticFunction
from relsingosc.oscillator import ModelParams

P = ModelParams(N=3, l=1, omega0=0.2, g0=1.0)


class NanStates(GridContext):
    """Every eigenstate evaluates to nan, as an overflowed state would."""

    def state(self, n):
        st = super().state(n)
        return dataclasses.replace(st, fn=AnalyticFunction(
            lambda z: np.full(np.shape(z), np.nan + 0j), st.fn.strip_halfwidth))


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

    def counting(p, n, *args, **kwargs):
        builds.append(n)
        return original(p, n, *args, **kwargs)

    original = checks.generate_state_via_ladder
    monkeypatch.setattr(checks, "generate_state_via_ladder", counting)
    ctx = GridContext(P)
    for cid in ("state-generation", "state-generation-norm"):
        assert CHECKS[cid].runner(ctx) < CHECKS[cid].default_tol
    assert sorted(builds) == [1, 2, 3, 4]
