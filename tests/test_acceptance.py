"""Acceptance suite: every criterion at its stated tolerance over the full
default verification grid, one pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; the whole suite shares a single grid sweep.
"""

import numpy as np
import pytest

from relsingosc.checks import (
    CHECKS,
    NEGATIVE_CONTROL_THRESHOLD,
    default_grid_points,
    run_global,
    run_point,
)

GRID_CHECK_IDS = tuple(cid for cid, c in CHECKS.items() if c.scope == "grid")
GLOBAL_CHECK_IDS = tuple(cid for cid, c in CHECKS.items() if c.scope == "global")


@pytest.fixture(scope="module")
def outcomes():
    all_outcomes = []
    for point in default_grid_points():
        all_outcomes.extend(run_point(point, GRID_CHECK_IDS))
    all_outcomes.extend(run_global(GLOBAL_CHECK_IDS))
    ran = [o for o in all_outcomes if o.status == "ran"]
    skipped = [o for o in all_outcomes if o.status == "skipped"]
    n_points = len({tuple(sorted(o.params.items())) for o in ran if o.params})
    print(f"\n[acceptance] default grid: {n_points} valid parameter points, "
          f"{len(ran)} check runs, {len(skipped)} skipped entries")
    return all_outcomes


def _worst(outcomes, check_id):
    sel = [o for o in outcomes if o.check_id == check_id and o.status != "skipped"]
    assert sel, f"no runs recorded for {check_id}"
    for o in sel:
        assert o.reason == "", f"{check_id} errored at {o.params}: {o.reason}"
    return max(sel, key=lambda o: o.residual)


def _report(criterion, label, worst, tol, extra=""):
    ok = worst <= tol
    print(f"ACCEPTANCE {criterion:>2} {label:<38} "
          f"{'PASS' if ok else 'FAIL'}  worst={worst:.3e} tol={tol:.1e} {extra}")
    assert ok, f"criterion {criterion} ({label}): worst residual {worst:.3e} > {tol:.1e}"


def test_c01_eigen_identity(outcomes):
    w = _worst(outcomes, "eigen-residual")
    _report(1, "eigen-identity", w.residual, 1e-9)


def test_c02_negative_control(outcomes):
    # reported residual = threshold / observed; <= 1 means every grid point
    # saw a perturbed residual above the 1e-3 threshold
    w = _worst(outcomes, "eigen-negative-control")
    _report(2, "eigen negative control", w.residual, 1.0,
            extra=f"(observed >= {NEGATIVE_CONTROL_THRESHOLD / w.residual:.1e})")


def test_c03_orthonormality(outcomes):
    w = _worst(outcomes, "orthonormality")
    _report(3, "orthonormality (Gram vs identity)", w.residual, 1e-6)
    e = _worst(outcomes, "orthonormality-quadrature-error")
    _report(3, "orthonormality quadrature error", e.residual, 1e-8)


def test_c04_factorization(outcomes):
    w = _worst(outcomes, "factorization")
    _report(4, "ladder factorization of H", w.residual, 1e-8)


def test_c05_commutators(outcomes):
    w = _worst(outcomes, "commutator-hamiltonian-ladder")
    _report(5, "[H, A+-] = +-2 omega0 A+-", w.residual, 1e-7)
    w = _worst(outcomes, "commutator-ladder-pair")
    _report(5, "[A-, A+] cubic identity (coeff)", w.residual, 1e-8)
    w = _worst(outcomes, "su11-ladder-bracket")
    _report(5, "su(1,1) bracket (coeff, exact)", w.residual, 1e-12)


def test_c06_casimir(outcomes):
    w = _worst(outcomes, "casimir-bargmann")
    _report(6, "Casimir = s(s-1)", w.residual, 1e-10)


def test_c07_ladder_action(outcomes):
    w = _worst(outcomes, "ladder-action")
    _report(7, "K+- pointwise action", w.residual, 1e-7)


def test_c08_state_generation(outcomes):
    w = _worst(outcomes, "state-generation")
    _report(8, "ladder-generated states (pointwise)", w.residual, 1e-7)
    w = _worst(outcomes, "state-generation-norm")
    _report(8, "ladder-generated states (norm)", w.residual, 1e-6)


def test_c09_nonrel_spectrum_limit(outcomes):
    w = _worst(outcomes, "nonrel-spectrum-limit")
    _report(9, "nonrelativistic spectrum limit", w.residual, 0.3,
            extra="(|slope - 1|)")


def test_c10_taylor_limit(outcomes):
    w = _worst(outcomes, "taylor-limit")
    _report(10, "small-step kinetic Taylor limit", w.residual, 0.3,
            extra="(|slope - 4|)")


def test_c11_plane_waves(outcomes):
    w = _worst(outcomes, "planewave-eigenvalue")
    _report(11, "plane-wave eigenvalue residual", w.residual, 1e-6)
    w = _worst(outcomes, "planewave-eigenvalue-rest")
    _report(11, "plane-wave residual at rest", w.residual, 1e-12)
    w = _worst(outcomes, "planewave-nonrel-limit")
    _report(11, "plane-wave nonrelativistic limit", w.residual, 0.3,
            extra="(|slope - 1|)")


def test_c12_reduction_chain(outcomes):
    w = _worst(outcomes, "reduction-chain")
    _report(12, "dimension-reduction eigen-chain", w.residual, 1e-8)
    w = _worst(outcomes, "reduction-weight-identity")
    _report(12, "weight/multiplier identity", w.residual, 1e-12)


def test_c13_special_function_substrate(outcomes):
    w = _worst(outcomes, "gamma-identities")
    _report(13, "gamma identities", w.residual, 1e-11)
    w = _worst(outcomes, "cdh-norms")
    _report(13, "polynomial norms vs quadrature", w.residual, 1e-8)


def test_grid_coverage(outcomes):
    """The default grid exercises every dimension and produces both valid and
    auto-skipped points."""
    ran_params = [o.params for o in outcomes if o.status == "ran" and o.params]
    skipped = [o for o in outcomes if o.status == "skipped"]
    assert {p["N"] for p in ran_params} == {2, 3, 5, 8}
    assert skipped, "default grid should contain invalid combinations"
    assert all("discriminant" in o.reason or "radicand" in o.reason for o in skipped)
