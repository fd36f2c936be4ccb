import dataclasses

import numpy as np
import pytest

from relsingosc import checks, oscillator, planewaves, symmetry
from relsingosc.checks import CHECKS, GridContext, _run_grid_check
from relsingosc.operators import (AnalyticFunction, compose, identity_op, images, multiply_by,
                                  op_sum, scale)
from relsingosc.oscillator import ModelParams
from relsingosc.report import build_report

P = ModelParams(N=3, l=1, omega0=0.2, g0=1.0)
# the column of the default grid that is valid in every dimension
COLUMN = [(N, 1, 0.05, 0.1) for N in (2, 3, 5, 8)]
GRID_IDS = [c for c in CHECKS if CHECKS[c].scope == "grid"]


def _entries(outcomes):
    return [{k: v for k, v in dataclasses.asdict(o).items() if k != "runtime_ms"}
            for o in outcomes]


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
        out, = _run_grid_check(cid, ctx, [None], cdef.default_tol)
    assert out.status == "error"
    assert out.residual is None and out.passed is False
    assert "nan" in out.reason


def test_casimir_check_is_the_matrix_route_bit_for_bit():
    # casimir-bargmann on the columns of a stack against symmetry.casimir's
    # matrix products at each point alone
    points = [ModelParams(*pt) for pt in COLUMN] + [P, ModelParams(2, 0, 1.0, 0.1),
                                                    ModelParams(5, 2, 0.05, 1.0)]
    got = checks.check_casimir(GridContext(points))
    assert got.shape == (len(points),)
    for i, p in enumerate(points):
        s = oscillator.derive_params(p).s
        target = s * (s - 1.0)
        deviation = symmetry.casimir(p, 4) - target * np.eye(4)
        assert got[i] == np.max(np.abs(deviation) / (abs(target) + checks._GUARD)), p


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
    """A grid of one point reads its states through a handful of stacked
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
    samples = np.asarray(oscillator.RHO_SAMPLES)
    # one point, then the four points of the verify-grid column, which are
    # read together: the same reads, each over every point
    for run in (lambda: checks.run_grid([(3, 1, 0.2, 1.0)], GRID_IDS),
                lambda: checks.run_grid(COLUMN, GRID_IDS)):
        basis_reads.clear()
        state_reads.clear()
        outcomes = run()
        assert all(o.passed for o in outcomes)
        assert 0 < len(basis_reads) + len(state_reads) <= 6
        at_samples = [z for z in basis_reads
                      if z.shape[-1:] == samples.shape and np.all(z.real == samples)]
        assert len(at_samples) == 1
    assert at_samples[0].shape[-2:] == (len(COLUMN),) + samples.shape


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
    ctx = GridContext(P)  # the batch of one: rows (n, point, sample)
    table = ctx.table()
    assert list(table) == list(ops)
    pts = np.asarray(ctx.rho_samples)
    for name, op in ops.items():
        want = images([op], ctx.basis().fn)(pts)[0]
        assert want.shape == (ctx.top + 1, len(pts))
        row_max = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.all(np.abs(table[name][:, 0] - want) <= 1e-14 * row_max), name


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


def test_grid_sweep_equals_the_point_sweeps():
    # the whole default grid in one evaluation per check gives every entry,
    # residual bit for bit, that the points give one at a time
    points = checks.default_grid_points()
    grid = checks.run_grid(points, GRID_IDS)
    alone = [o for pt in points for o in checks.run_grid([pt], GRID_IDS)]
    assert _entries(grid) == _entries(alone)
    assert len(grid) == 72 * len(GRID_IDS)
    assert sum(o.status == "ran" for o in grid) == 40 * len(GRID_IDS)
    assert build_report(grid, {}).canonical_hash() == build_report(alone, {}).canonical_hash()


def test_a_point_that_raises_gets_its_own_error_entries(monkeypatch):
    # the basis of N = 5 raises, in any batch that holds it: the batched
    # checks that read the basis run again point by point, so only N = 5
    # gets error entries, with its own reason, and no other value moves
    clean = checks.run_grid(COLUMN, GRID_IDS)
    build = checks.radial_basis

    def failing(p, top):
        if any(q.N == 5 for q in p.points):
            raise RuntimeError("no basis at N = 5")
        return build(p, top)

    monkeypatch.setattr(checks, "radial_basis", failing)
    hit = checks.run_grid(COLUMN, GRID_IDS)
    errors = [o for o in hit if o.status == "error"]
    assert {o.params["N"] for o in errors} == {5}
    assert {o.check_id for o in errors} >= {"eigen-residual", "orthonormality", "ladder-action"}
    assert all(o.reason == "error: RuntimeError: no basis at N = 5" for o in errors)
    assert _entries(o for o in hit if o.status != "error") == \
        _entries(o for o, h in zip(clean, hit) if h.status != "error")
    assert all(o.runtime_ms > 0 for o in hit)


def test_small_omega0_residuals_reach_rounding():
    # the operators read each state's gamma envelope once per class of
    # offsets, so the shifted values share their base's rounding: at
    # omega0 = 1e-4 the eigen-residual reaches rounding (it read 1.3e-10
    # with one envelope per offset), and the ladder action passes
    out = {o.check_id: o for o in checks.run_grid(
        [(3, 1, 1e-4, 1.0)], ["eigen-residual", "ladder-action"], n_max=5)}
    assert out["eigen-residual"].passed and out["eigen-residual"].residual <= 1e-13
    assert out["ladder-action"].passed


def test_ladder_route_passes_at_omega0_1e_3():
    out, = checks.run_grid([(3, 1, 1e-3, 1.0)], ["state-generation"], n_max=5)
    assert out.status == "ran" and out.passed
