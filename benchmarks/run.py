"""relsingosc benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``. Workloads are defined in workloads.py: ``verify-grid``,
``eval-states`` and ``operator-dense``.

With ``--trace 0`` the workload runs as a closed loop with one client for
S seconds and the end-to-end metrics are reported. With ``--trace 1`` the
run makes the same set-up and a fixed number of requests traced, and
reports the per-layer metrics (tracing.py), the layer probes (probes.py)
and the tracing overhead, measured on a short slice of the workload.

Every output is checked for correctness. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run metadata. The run record
(and, for traced runs, every span) is written under ``.bench_out/``. The
metric names must match BENCHMARK.json, or the run fails; their units
are taken from it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
OVERHEAD_ROUNDS = 5


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def set_thread_env() -> None:
    """Pin every thread pool before numpy loads: BLAS to one thread, so that
    gram_matrix's matrix product starts no threads on top of the verify pool,
    and the verify pool to the CPUs this process may use."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["REL_SINGOSC_THREADS"] = str(len(os.sched_getaffinity(0)))


def load_package():
    src = ROOT / "src"
    if not (src / "relsingosc" / "__init__.py").is_file():
        raise BenchError(f"no relsingosc sources under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("relsingosc")
    if Path(pkg.__file__).resolve().parent != (src / "relsingosc").resolve():
        raise BenchError(f"relsingosc imported from {pkg.__file__}, not from {src}")
    from tracing import MODULES

    for mod in MODULES:
        importlib.import_module(f"relsingosc.{mod}")
    return pkg


def _git_sha():
    """HEAD of the checkout's own repository, or None outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in
                       ("REL_SINGOSC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _attempt(wl, ctx, req, tracer):
    """(latency_s, output, error); error is None when the call returned."""
    t0 = time.perf_counter()
    try:
        out = wl.execute(ctx, req, tracer)
    except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


def _check(wl, ctx, req, out, error):
    if error is not None:
        return error
    try:
        return wl.check(ctx, req, out)
    except Exception as exc:  # noqa: BLE001 - an output the check cannot read is wrong
        return f"check failed: {type(exc).__name__}: {exc}"


def closed_loop(wl, seconds: float, setups: int, tracer):
    """One client: issue requests back to back until `seconds` have passed,
    cycling through the workload's request list.

    Set-up runs `setups` times, spread evenly over the run between requests
    (the first before any request), so that one burst of machine load does
    not fall on all of them; the context of the first serves every request.
    Returns the set-up times, the latencies of each distinct request, all
    in seconds, and the errors."""
    setup_times: list[float] = []
    latencies: dict[int, list[float]] = {}
    errors = []
    ctx = None
    start = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if len(setup_times) < setups and now >= start + seconds * len(setup_times) / setups:
            fresh = wl.setup(tracer)
            setup_times.append(time.perf_counter() - now)
            ctx = fresh if ctx is None else ctx
            continue
        if now >= start + seconds and i > 0:
            return setup_times, latencies, errors
        req = wl.request(ctx, i)
        dt, out, error = _attempt(wl, ctx, req, tracer)
        latencies.setdefault(i % len(ctx["requests"]), []).append(dt)
        i += 1
        error = _check(wl, ctx, req, out, error)
        if error:
            errors.append(error)


def end_to_end(pkg, wl, seconds: float, setups: int):
    import numpy as np
    from tracing import NullTracer

    setup_times, latencies, errors = closed_loop(wl, seconds, setups, NullTracer())
    # A shared machine runs 40-70 % slower for spells of a few seconds or
    # more, at times for most of a run. Each distinct request's latency is
    # the lower quartile of its repeats in the run, and set-up time is the
    # fastest set-up: the figures least disturbed by such spells. (Medians
    # flip between the fast and the slow speed from run to run.)
    # Percentiles and throughput are taken over the per-request figures.
    typical = np.array([np.percentile(v, 25) for v in latencies.values()])
    attempted = sum(len(v) for v in latencies.values())
    metrics = {
        "request_ms.p50": float(np.median(typical)) * 1e3,
        "request_ms.p90": float(np.percentile(typical, 90)) * 1e3,
        "requests_per_s": len(typical) / float(np.sum(typical)),
        "setup_s": min(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - len(errors)) / attempted,
    }
    info = {"requests": attempted, "distinct": len(typical),
            "rounds": min(len(v) for v in latencies.values()),
            "setup_times": setup_times}
    return metrics, attempted, errors, info


def overhead_ratio(pkg, wl, rounds: int):
    """Cost of the tracing itself, on a short fixed slice of the workload
    (wl.overhead_slice). The slice runs `rounds` times untraced and `rounds`
    times traced, alternating which goes first, each side on a context set
    up its own way; the ratio is of the two minimums, so neither machine
    drift nor the order of the phases decides it. Returns the ratio and the
    (ctx, request, output, error) of every slice request."""
    from tracing import NullTracer, Tracer

    null, tracer = NullTracer(), Tracer()
    plain_ctx = wl.setup(null)
    tracer.install(pkg)
    try:
        traced_ctx = wl.setup(tracer)
    finally:
        tracer.uninstall()
    best = {False: float("inf"), True: float("inf")}
    done = []

    def once(traced: bool):
        ctx = traced_ctx if traced else plain_ctx
        if traced:
            tracer.install(pkg)
        try:
            t0 = time.perf_counter()
            outs = [(req, *_attempt(wl, ctx, req, tracer if traced else null)[1:])
                    for req in wl.overhead_slice(ctx)]
            elapsed = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        best[traced] = min(best[traced], elapsed)
        done.extend((ctx, *o) for o in outs)

    for r in range(rounds):
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            once(traced)
    return best[True] / best[False], done


def per_layer(pkg, wl, small: bool, spans_path: Path):
    """Set-up plus a fixed number of requests, traced; then the tracing
    overhead, the workload's own extra figures and the layer probes."""
    from probes import run_probes
    from tracing import Tracer

    count = 2 if small else wl.trace_requests
    tracer = Tracer()
    tracer.install(pkg)
    try:
        t0 = time.perf_counter()
        ctx = wl.setup(tracer)
        done = []
        for i in range(count):
            req = wl.request(ctx, i)
            with tracer.span("bench.request"):
                _, out, error = _attempt(wl, ctx, req, tracer)
            done.append((ctx, req, out, error))
        t1 = time.perf_counter()
    finally:
        tracer.uninstall()

    metrics = tracer.analyse(t0, t1, sorted(pkg.checks.CHECKS))
    metrics["trace.overhead_ratio"], slice_done = overhead_ratio(
        pkg, wl, 1 if small else OVERHEAD_ROUNDS)
    extra, extra_done = (wl.extra_trace_metrics() if hasattr(wl, "extra_trace_metrics")
                         else ({"cli.verify.threads1_s": 0.0, "cli.verify.nproc_s": 0.0}, []))
    metrics.update(extra)
    metrics.update(run_probes(pkg, repeat=1 if small else None))
    tracer.dump(spans_path)

    errors = []
    checked = done + slice_done + [(ctx, req, out, None) for req, out in extra_done]
    for c, req, out, error in checked:
        error = _check(wl, c, req, out, error)
        if error:
            errors.append(error)
    return metrics, len(checked), errors, {"traced_requests": count,
                                           "traced_s": t1 - t0}


def expected_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: int, small: bool = False) -> dict:
    """Run one benchmark run and return the result object (the last output line)."""
    pkg = load_package()
    from workloads import OUT_DIR, WORKLOADS

    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[workload](pkg, seed, small=small)
    meta = metadata(workload, seed, seconds, trace)
    tag = f"{workload}-seed{seed}-trace{trace}{'-small' if small else ''}"
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        metrics, attempted, errors, info = per_layer(pkg, wl, small,
                                                     OUT_DIR / f"{tag}.spans.npz")
    else:
        metrics, attempted, errors, info = end_to_end(pkg, wl, seconds,
                                                      1 if small else SETUP_REPEATS)

    expected = expected_metrics(trace)
    if set(metrics) != set(expected):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(expected) - set(metrics))}, "
                         f"extra {sorted(set(metrics) - set(expected))}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": expected[name]}
                    for name in expected},
    }
    record = {"meta": meta, "info": info, "errors": errors[:20], "result": result}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return {"meta": meta, "errors": errors, "result": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    set_thread_env()
    try:
        out = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for error in out["errors"][:20]:
        print(f"incorrect: {error}", file=sys.stderr)
    print(json.dumps({"meta": out["meta"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
