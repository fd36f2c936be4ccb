"""Run the benchmark over several seeds and summarise the spread.

    python3 benchmarks/sweep.py --workload eval-states --seeds 1-10 [--trace 0|1] [--out FILE]

Each run is a separate `run.py` process, one after another, with the run
length from BENCHMARK.json. For every metric the summary gives the median,
the first and third quartiles (`statistics.quantiles(values, n=4)`) and
their distance as a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarise(results: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
            "values": values,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in parse_seeds(args.seeds):
        res = one_run(args.workload, seed, spec["run_seconds"], args.trace)
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
    summary = {
        "workload": args.workload, "trace": args.trace, "seeds": parse_seeds(args.seeds),
        "run_seconds": spec["run_seconds"],
        "all_correct": all(r["correct"] for r in results),
        "metrics": summarise(results, bounds),
    }
    for name, m in summary["metrics"].items():
        bound = "" if m["bound"] is None else f"  bound {m['bound']:.2f}"
        print(f"{name:<48} median {m['median']:<14.6g} {m['unit']:<6} "
              f"spread {m['spread']:.3f}{bound}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if summary["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
