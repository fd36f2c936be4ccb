import dataclasses

import numpy as np
import pytest

from relsingosc import checks, oscillator, planewaves, symmetry
from relsingosc.checks import CHECKS, GridContext, _run_check
from relsingosc.operators import (AnalyticFunction, compose, identity_op, images, multiply_by,
                                  op_sum, scale)
from relsingosc.oscillator import ModelParams

P = ModelParams(N=3, l=1, omega0=0.2, g0=1.0)


class NanStates(GridContext):
    """Every eigenstate evaluates to nan, as an overflowed state would."""

    def basis(self):
        b = super().basis()
        return dataclasses.replace(b, fn=AnalyticFunction(
            lambda z: np.full((self.top + 1,) + np.shape(z), np.nan + 0j), b.fn.strip_halfwidth))


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
    evaluations, not one evaluation per state, superposition and ladder
    chain: the basis once at the samples for the whole image table and once
    per Gauss rule, R_0 once for each ladder check and once for
    momentum-routes (6 reads; 13 when each check read its own rows)."""
    basis_reads, state_reads = [], []

    def counted(fn, reads):
        def ev(z):
            reads.append(np.asarray(z))
            return fn(z)
        return AnalyticFunction(ev, fn.strip_halfwidth, fn.singular_points)

    def counting(build, reads):
        def built(*args):
            states = build(*args)
            return dataclasses.replace(states, fn=counted(states.fn, reads))
        return built

    monkeypatch.setattr(checks, "radial_basis", counting(checks.radial_basis, basis_reads))
    # single states: R_0 of the momentum route and of the ladder chain
    state = counting(oscillator.radial_wavefunction, state_reads)
    monkeypatch.setattr(checks, "radial_wavefunction", state)
    monkeypatch.setattr(symmetry, "radial_wavefunction", state)
    outcomes = checks.run_point((3, 1, 0.2, 1.0), [c for c in CHECKS if CHECKS[c].scope == "grid"])
    assert all(o.passed for o in outcomes)
    assert 0 < len(basis_reads) + len(state_reads) <= 6
    samples = np.asarray(oscillator.RHO_SAMPLES)
    at_samples = [z for z in basis_reads
                  if z.shape[-1:] == samples.shape and np.all(z.real == samples)]
    assert len(at_samples) == 1


def test_table_rows_are_the_images_of_their_operators():
    # the operators are built here from the public builders, so a row filed
    # under the wrong name differs from the image of the operator it names
    p, d = P, oscillator.derive_params(P)
    H = oscillator.hamiltonian_reduced(p)
    A_plus, A_minus = symmetry.build_A_plus(p), symmetry.build_A_minus(p)
    m = multiply_by(lambda z: planewaves.reduction_multiplier(z, p.N))
    ops = {
        "R": identity_op(),
        "H": H,
        "factorized H": op_sum(
            compose(scale(p.omega0), symmetry.build_a_plus(p), symmetry.build_a_minus(p)),
            scale(p.omega0 * (d.alpha + d.nu))),
        "A+": A_plus,
        "A-": A_minus,
        "H A+": compose(H, A_plus),
        "A+ H": compose(A_plus, H),
        "H A-": compose(H, A_minus),
        "A- H": compose(A_minus, H),
        "H_N m": compose(oscillator.hamiltonian_radial_N(p), m),
    }
    ctx = GridContext(P)
    table = ctx.table()
    assert list(table) == list(ops)
    pts = np.asarray(ctx.rho_samples)
    for name, op in ops.items():
        want = images([op], ctx.basis().fn)(pts)[0]
        assert want.shape == (ctx.top + 1, len(pts))
        row_max = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.all(np.abs(table[name] - want) <= 1e-14 * row_max), name


def test_ladder_action_covers_every_row_below_top(monkeypatch):
    # K+ R_n and K- R_n for every n < top = n_max read the spectral scalars
    # of rungs 0..n_max
    rungs = set()
    scalar = symmetry.LadderCoefficients.spectral_scalar

    def recording(self, n):
        rungs.update(np.ravel(n).tolist())
        return scalar(self, n)

    monkeypatch.setattr(symmetry.LadderCoefficients, "spectral_scalar", recording)
    ctx = GridContext(P, n_max=30)
    assert ctx.top == 30
    assert CHECKS["ladder-action"].runner(ctx) < CHECKS["ladder-action"].default_tol
    assert rungs == set(range(31))
