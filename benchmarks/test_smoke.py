"""Smoke test of the benchmark: every workload at a tiny size, traced and
untraced, and the layer probes at one repeat.

    python -m pytest -q benchmarks/test_smoke.py
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = ("verify-grid", "eval-states", "operator-dense")


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct(workload, trace):
    out = run.run(workload, seed=1, seconds=0.01, trace=trace, small=True)
    result = out["result"]
    assert out["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        covered = sum(v for k, v in m.items() if k.endswith(".self_s")) + m["trace.uncovered_s"]
        assert covered == pytest.approx(m["trace.wall_s"], rel=1e-9)
    else:
        assert result["metrics"]["request_ms.p50"]["value"] > 0


def test_probes_at_one_repeat():
    from probes import PROBES, run_probes

    values = run_probes(run.load_package(), repeat=1)
    assert set(values) == {name for name, _, _ in PROBES}
    assert all(v > 0 and math.isfinite(v) for v in values.values())


def test_tracer_restores_package():
    from tracing import Tracer

    pkg = run.load_package()
    before = {(m, k): v for m in ("oscillator", "checks", "cli")
              for k, v in vars(getattr(pkg, m)).items()}
    runners = {cid: c.runner for cid, c in pkg.checks.CHECKS.items()}
    apply = pkg.operators.LinearOperator.apply
    tracer = Tracer()
    tracer.install(pkg)
    assert pkg.checks.radial_wavefunction is not before[("checks", "radial_wavefunction")]
    tracer.uninstall()
    after = {(m, k): v for m in ("oscillator", "checks", "cli")
             for k, v in vars(getattr(pkg, m)).items()}
    assert after == before
    assert {cid: c.runner for cid, c in pkg.checks.CHECKS.items()} == runners
    assert pkg.operators.LinearOperator.apply is apply


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "eval-states", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
