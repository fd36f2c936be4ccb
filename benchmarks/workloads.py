"""The three benchmark workloads.

Each workload is a closed loop with one client: the next request starts
when the previous one has returned. The workload seed fixes every input;
the library sees only the generated inputs, through its public entry
points. Functions are looked up on their modules at call time, so a traced
run sees the benchmark's own calls too.

A workload has four steps:

    setup(tracer)          -> ctx      inputs, pools and warm-up; timed as setup_s
    request(ctx, i)        -> req      the i-th request of the seeded stream
    execute(ctx, req, tr)  -> out      the timed call into the library
    check(ctx, req, out)   -> None, or a message saying what is wrong

and `overhead_slice(ctx)`, the short fixed list of requests on which a
traced run measures the cost of tracing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Relative tolerance on the quadrature normalization constant against the
# closed form sqrt(2 / h_n). Measured worst case on the eval-states domain is
# ~2e-14; the quadrature itself converges to 1e-11 relative.
NORM_REL_TOL = 1e-10

# Requests in the slice on which a traced run measures tracing overhead; on
# operator-dense, 24 requests are each operator at each grid size once.
OVERHEAD_SLICE = 24


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def draw_params(pkg, rng):
    """A valid parameter point of the eval-states domain: N <= 8, l <= 2,
    omega0 log-uniform in [0.05, 1], g0 uniform in [0.1, 1]. Draws outside
    the real-spectrum regime are rejected and redrawn."""
    osc = pkg.oscillator
    while True:
        N = int(rng.integers(2, 9))
        l = int(rng.integers(0, 3))
        omega0 = float(np.exp(rng.uniform(math.log(0.05), 0.0)))
        g0 = float(rng.uniform(0.1, 1.0))
        try:
            p = osc.ModelParams(N=N, l=l, omega0=omega0, g0=g0)
            osc.derive_params(p)
        except osc.InvalidParametersError:
            continue
        return p


def _floor_match(got, want) -> float:
    """Max |got - want| / (|want| + 1e-3 max|want|): relative, with the floor
    the ladder checks use so that nodes of R_n do not divide by ~0."""
    den = np.abs(want) + 1e-3 * float(np.max(np.abs(want))) + 1e-300
    return float(np.max(np.abs(got - want) / den))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "relsingosc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class VerifyGrid:
    """`relsingosc verify` with all checks at nproc threads, the seed
    permuting the order of each grid list.

    One request verifies the column of the default grid that is valid in
    every dimension: N in {2, 3, 5, 8} at l = 1, omega0 = 0.05, g0 = 0.1 and
    n <= 5. These four points are enough for the pool to run, and a run
    repeats the request about ten times. A sweep of the full 40-point grid
    takes 17-28 s, so a run could not repeat it. The traced run sweeps
    the full grid untraced, at 1 thread and at nproc."""

    name = "verify-grid"
    trace_requests = 2
    COLUMN = {"l": (1,), "omega0": (0.05,), "g0": (0.1,)}

    def __init__(self, pkg, seed: int, small: bool = False):
        self.pkg = pkg
        rng = np.random.default_rng(seed)
        grid = dict(pkg.checks.DEFAULT_GRID)
        self.kinds = {}  # argv -> name of its grid, for the hash gate
        if small:
            grid.update(dims=(3,), l=(0, 1), omega0=(0.2,), g0=(1.0,), n_max=2)
            self.argv = self.full_argv = self._argv(grid, rng, "small")
        else:
            self.argv = self._argv({**grid, **self.COLUMN}, rng, "column")
            self.full_argv = self._argv(grid, rng, "full")
        # one grid point with every check: the set-up warm-up and the
        # slice on which tracing overhead is measured
        self.point_argv = self._argv({"dims": (3,), "l": (1,), "omega0": (0.2,),
                                      "g0": (1.0,), "n_max": 1}, rng, "point")

    def _argv(self, grid, rng, kind: str):
        argv = ["verify", "--format", "json", "--n-max", str(grid["n_max"])]
        for key in ("dims", "l", "omega0", "g0"):
            values = list(grid[key])
            order = rng.permutation(len(values))
            argv += [f"--{key}", ",".join(repr(values[i]) for i in order)]
        self.kinds[tuple(argv)] = kind
        return argv

    def _verify(self, argv, threads: int):
        os.environ["REL_SINGOSC_THREADS"] = str(threads)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.pkg.cli.main(argv)
        return rc, buf.getvalue()

    def setup(self, tracer):
        # first-call costs of a verify run: one grid point, every check
        self._verify(self.point_argv, nproc())
        return {"requests": [self.argv]}

    def request(self, ctx, i):
        return self.argv

    def overhead_slice(self, ctx):
        return [self.point_argv]

    def execute(self, ctx, argv, tracer):
        return self._verify(argv, nproc())

    def check(self, ctx, argv, out):
        rc, text = out
        if rc != 0:
            return f"verify exited with {rc}"
        report = json.loads(text)
        if report["summary"]["failed"] != 0:
            return f"verify reported {report['summary']['failed']} failed entries"
        return self._check_hash_across_seeds(self.kinds[tuple(argv)],
                                             report["canonical_hash"])

    @staticmethod
    def _check_hash_across_seeds(kind: str, digest: str):
        """Every sweep of one grid on one source tree, whatever the seed,
        must give the same canonical_hash; the first sweep in a checkout
        records it, later ones compare."""
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / "verify-grid-hashes.json"
        known = json.loads(path.read_text()) if path.exists() else {}
        key = f"{source_digest()}:{kind}"
        if key not in known:
            known[key] = digest
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(known, indent=1))
            tmp.replace(path)
        elif known[key] != digest:
            return (f"canonical_hash {digest[:12]} of the {kind} grid differs from "
                    f"{known[key][:12]} of an earlier sweep")
        return None

    def extra_trace_metrics(self):
        """One untraced sweep of the full default grid at 1 thread and one at
        nproc: the end-to-end figure of the paper's certification path, and
        what the pool buys on it."""
        metrics, done = {}, []
        for name, threads in (("cli.verify.threads1_s", 1), ("cli.verify.nproc_s", nproc())):
            t0 = time.perf_counter()
            out = self._verify(self.full_argv, threads)
            metrics[name] = time.perf_counter() - t0
            done.append((self.full_argv, out))
        return metrics, done


class EvalStates:
    """Build radial_wavefunction(p, n) and tabulate it on the `eval` CLI's
    default rho grid, for (p, n) drawn from the certified domain. Every n in
    0..5 has the same share of the requests; the seed draws the points."""

    name = "eval-states"
    trace_requests = 240

    def __init__(self, pkg, seed: int, small: bool = False):
        self.pkg = pkg
        self.seed = seed
        self.count = 6 if small else 600
        self.warmup = 1 if small else 8

    def setup(self, tracer):
        rng = np.random.default_rng(self.seed)
        reqs = [(draw_params(self.pkg, rng), i % 6) for i in range(self.count)]
        start, stop, count = self.pkg.cli.RunConfig().grid
        ctx = {"requests": reqs, "rho": np.linspace(start, stop, count)}
        for i in range(self.warmup):
            self.execute(ctx, reqs[i], tracer)
        return ctx

    def request(self, ctx, i):
        reqs = ctx["requests"]
        return reqs[i % len(reqs)]

    def overhead_slice(self, ctx):
        return ctx["requests"][:OVERHEAD_SLICE]

    def execute(self, ctx, req, tracer):
        p, n = req
        state = self.pkg.oscillator.radial_wavefunction(p, n)
        with tracer.span("oscillator.tabulate"):
            values = np.asarray(state.fn(ctx["rho"]))
        return state.norm_const, values

    def check(self, ctx, req, out):
        p, n = req
        norm_const, values = out
        if not np.all(np.isfinite(values)):
            return f"non-finite values for {p} n={n}"
        d = self.pkg.oscillator.derive_params(p)
        h_n = self.pkg.specfun.cdh_norm(n, self.pkg.specfun.CdhParams(d.alpha, d.nu, 0.5))
        dev = abs(norm_const / math.sqrt(2.0 / h_n) - 1.0)
        if not dev <= NORM_REL_TOL:
            return f"norm_const off the closed form by {dev:.2e} for {p} n={n}"
        return None


class OperatorDense:
    """Apply H, K+, K- or [H, A+] to R_n (n <= 4) on a seeded grid of 64 to
    2048 points in [0.3, 20]; states come from a pool built in set-up.

    The requests are every (operator, grid size, n) triple of KINDS x SIZES x
    0..4 once, so the cost mix is the same for every seed; the seed draws
    the pool, the pool point of each request and the grid points."""

    name = "operator-dense"
    trace_requests = 120
    KINDS = ("H", "K+", "K-", "[H,A+]")
    SIZES = (64, 128, 256, 512, 1024, 2048)

    def __init__(self, pkg, seed: int, small: bool = False):
        self.pkg = pkg
        self.seed = seed
        self.pool_size = 1 if small else 4
        self.count = 4 if small else len(self.KINDS) * len(self.SIZES) * 5

    def setup(self, tracer):
        osc, sym = self.pkg.oscillator, self.pkg.symmetry
        rng = np.random.default_rng(self.seed)
        pool = []
        for _ in range(self.pool_size):
            p = draw_params(self.pkg, rng)
            pool.append({
                "params": p,
                "states": [osc.radial_wavefunction(p, n) for n in range(6)],
                "H": osc.hamiltonian_reduced(p),
                "A+": sym.build_A_plus(p),
                "ladder": sym.LadderCoefficients.from_params(p),
            })
        reqs = []
        for i in range(self.count):
            kind = self.KINDS[i % len(self.KINDS)]
            size = self.SIZES[i // len(self.KINDS) % len(self.SIZES)]
            n = i // (len(self.KINDS) * len(self.SIZES)) % 5
            reqs.append((int(rng.integers(len(pool))), kind, n,
                         np.sort(rng.uniform(0.3, 20.0, size))))
        return {"pool": pool, "requests": reqs}

    def request(self, ctx, i):
        reqs = ctx["requests"]
        return reqs[i % len(reqs)]

    def overhead_slice(self, ctx):
        return ctx["requests"][:OVERHEAD_SLICE]

    def execute(self, ctx, req, tracer):
        point, kind, n, rho = req
        entry = ctx["pool"][point]
        state = entry["states"][n]
        sym = self.pkg.symmetry
        if kind == "H":
            return np.asarray(entry["H"].apply(state.fn)(rho))
        if kind == "K+":
            return np.asarray(sym.k_raise_pointwise(state)(rho))
        if kind == "K-":
            return np.asarray(sym.k_lower_pointwise(state)(rho))
        H, Ap = entry["H"], entry["A+"]
        return (np.asarray(H.apply(Ap.apply(state.fn))(rho)),
                np.asarray(Ap.apply(H.apply(state.fn))(rho)))

    def check(self, ctx, req, out):
        point, kind, n, rho = req
        entry = ctx["pool"][point]
        states, lc = entry["states"], entry["ladder"]
        tol = self.pkg.checks.CHECKS
        if kind == "H":
            want = states[n].energy * np.asarray(states[n].fn(rho))
            resid, limit = _floor_match(out, want), tol["eigen-residual"].default_tol
        elif kind == "K+":
            want = lc.kappa(n + 1) * np.asarray(states[n + 1].fn(rho))
            resid, limit = _floor_match(out, want), tol["ladder-action"].default_tol
        elif kind == "K-" and n == 0:
            scale = float(np.max(np.abs(np.asarray(states[0].fn(rho)))))
            resid, limit = float(np.max(np.abs(out))) / scale, tol["ladder-action"].default_tol
        elif kind == "K-":
            want = lc.kappa(n) * np.asarray(states[n - 1].fn(rho))
            resid, limit = _floor_match(out, want), tol["ladder-action"].default_tol
        else:
            xy, yx = out
            rhs = 2.0 * entry["params"].omega0 * np.asarray(entry["A+"].apply(states[n].fn)(rho))
            big = np.maximum(np.maximum(np.abs(xy), np.abs(yx)), np.abs(rhs))
            den = big + 1e-3 * float(np.max(big)) + 1e-300
            resid = float(np.max(np.abs(xy - yx - rhs) / den))
            limit = tol["commutator-hamiltonian-ladder"].default_tol
        if not resid <= limit:
            return f"{kind} on R_{n} of {entry['params']}: residual {resid:.2e} > {limit:.0e}"
        return None


WORKLOADS = {w.name: w for w in (VerifyGrid, EvalStates, OperatorDense)}
