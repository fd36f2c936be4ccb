"""Run-time tracing of the relsingosc package from the benchmark's side.

Nothing inside the package changes. `Tracer.install()` replaces, for the
duration of a traced phase, every public function of each package module
(including the names other modules re-bound with ``from ... import``),
``LinearOperator.apply``, ``VerificationReport.render``, every
``CHECKS[...].runner`` and the thread pool ``cli`` uses, with wrappers that
record spans and counters. ``Tracer.uninstall()`` puts the originals back.

A span is (start, end, name, parent) in the log of the thread that ran it.
Spans stay in memory; `Tracer.dump` writes them out when the run ends.
Root spans in pool worker threads take as parent the span that submitted
the work, so the spans of one request form one tree.

`Tracer.analyse` turns the spans into per-layer figures. A module's
``self_s`` is wall-clock self time: at each instant the innermost open span
of every busy thread is charged, and when k threads are busy at once each
is charged 1/k of the elapsed time. A thread blocked on the pool is not
busy. So the self times of all modules plus ``trace.uncovered_s`` (time in
which no thread is inside a package span) add up to ``trace.wall_s``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

MODULES = ("specfun", "operators", "quadrature", "oscillator", "symmetry",
           "planewaves", "checks", "report", "cli")

WAIT = "cli.pool.wait"  # main thread blocked on the verify pool: not busy

_CALL_COUNTS = ("specfun.log_gamma", "specfun.cdh_poly", "specfun.generalized_degree",
                "operators.apply", "oscillator.radial_wavefunction",
                "oscillator.eigen_residual", "symmetry.generate_state_via_ladder")
_BUSY = {  # metric prefix -> span name
    "oscillator.radial_wavefunction": "oscillator.radial_wavefunction",
    "oscillator.tabulate": "oscillator.tabulate",
    "symmetry.generate_state_via_ladder": "symmetry.generate_state_via_ladder",
    "symmetry.commutator_residual": "symmetry.commutator_residual",
    "planewaves.free_hamiltonian_residual": "planewaves.free_hamiltonian_residual",
    "report.build": "report.build_report",
    "report.render": "report.render",
}
_INTEGRALS = ("quadrature.integrate_halfline", "quadrature.inner_product",
              "quadrature.gram_matrix")


class _ThreadLog:
    """Spans of one thread, as parallel arrays indexed by span number."""

    def __init__(self, slot: int):
        self.slot = slot
        self.thread_id = threading.get_ident()
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.stack: list[int] = []
        self.adopted = -1  # parent for root spans (pool workers)
        self.counters: dict[str, float] = {}
        self.group: set | None = None  # distinct leaf arguments of the open image

    def enter(self, name_id: int) -> int:
        idx = len(self.start)
        stack = self.stack
        self.parent.append((self.slot << 32 | stack[-1]) if stack else self.adopted)
        self.name.append(name_id)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def current(self) -> int:
        return (self.slot << 32 | self.stack[-1]) if self.stack else self.adopted


class NullTracer:
    """Stand-in used when tracing is off."""

    @contextmanager
    def span(self, name: str):
        yield


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self._names)
                self._names.append(name)
            return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        log = self._log()
        idx = log.enter(self._name_id(name))
        try:
            yield
        finally:
            log.exit(idx)

    def _wrap(self, fn, name: str, after=None):
        """Traced stand-in for fn; after(log, args, result) may count or
        replace the result."""
        name_id = self._name_id(name)
        module = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = tracer._log()
            idx = log.enter(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counted = exc.__dict__.setdefault("_traced_modules", set())
                if module not in counted:
                    counted.add(module)
                    log.count(f"{module}.errors")
                raise
            finally:
                log.exit(idx)
            return after(log, args, result) if after else result

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the package's public functions everywhere they are bound."""
        mods = {m: getattr(package, m) for m in MODULES}
        holders = [package, *mods.values()]
        self._apply_id = self._name_id("operators.apply")
        for mname, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                orig = getattr(mod, attr)
                if not (inspect.isfunction(orig) and orig.__module__ == mod.__name__):
                    continue
                target = (self._counting_memoized(orig, mod.AnalyticFunction)
                          if (mname, attr) == ("operators", "memoized") else orig)
                wrapped = self._wrap(target, f"{mname}.{attr}", self._after(mname, attr))
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is orig:
                            self._patch(holder, key, wrapped)

        ops = mods["operators"]
        self._patch(ops.LinearOperator, "apply",
                    self._wrap(ops.LinearOperator.apply, "operators.apply", self._after_apply))
        rep = mods["report"]
        self._patch(rep.VerificationReport, "render",
                    self._wrap(rep.VerificationReport.render, "report.render",
                               self._after_render))
        checks = mods["checks"]
        for cid, cdef in list(checks.CHECKS.items()):
            runner = self._wrap(cdef.runner, f"checks.{cid}")
            self._patch_item(checks.CHECKS, cid, dataclasses.replace(cdef, runner=runner))
        self._patch(mods["cli"], "ThreadPoolExecutor",
                    _traced_pool(self, mods["cli"].ThreadPoolExecutor))

    def _patch_item(self, mapping, key, value) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- hooks that count work at the layer boundaries ---------------------

    def _after(self, module: str, attr: str):
        name = f"{module}.{attr}"
        if name in ("specfun.log_gamma", "specfun.cdh_poly"):
            arg = 0 if attr == "log_gamma" else 1

            def count_points(log, args, result):
                log.count(f"{name}.points", np.size(args[arg]))
                return result
            return count_points
        if name in _INTEGRALS:
            def count_integral(log, args, result):
                log.count("quadrature.integrals")
                return result
            return count_integral
        if name == "quadrature.halfline_rule":
            def count_nodes(log, args, result):
                log.count("quadrature.nodes", len(result.nodes))
                return result
            return count_nodes
        if name == "oscillator.wavefunction_profile":
            return self._after_profile
        return None

    def _after_profile(self, log, args, result):
        """Trace the state leaf: every evaluation of an eigenfunction profile."""
        inner = result.fn
        leaf = self._wrap(inner, "oscillator.state_leaf")
        tracer = self

        def ev(z):
            log = tracer._log()
            if log.group is not None:
                log.count("operators.leaf_evals")
                log.count("operators.leaf_points", np.size(z))
                log.group.add(np.asarray(z).tobytes())
            return leaf(z)

        result.fn = ev
        return result

    def _after_apply(self, log, args, result):
        """Images built outside an enclosing apply become image roots: their
        evaluation groups the leaf evaluations they cause."""
        if log.stack and log.name[log.stack[-1]] == self._apply_id:
            return result
        image = self._wrap(result.fn, "operators.image")
        tracer = self

        def ev(z):
            log = tracer._log()
            if log.group is not None:
                return image(z)
            log.group = set()
            try:
                return image(z)
            finally:
                log.count("operators.leaf_distinct", len(log.group))
                log.group = None

        result.fn = ev
        return result

    def _counting_memoized(self, memoized, analytic_function):
        """memoized() that counts its calls and the misses reaching the inner function."""
        tracer = self

        @functools.wraps(memoized)
        def counting(f):
            inner = f.fn

            def miss(z):
                tracer._log().count("operators.memo_misses")
                return inner(z)

            result = memoized(analytic_function(miss, f.strip_halfwidth, f.singular_points))
            cached = result.fn

            def ev(z):
                tracer._log().count("operators.memo_calls")
                return cached(z)

            result.fn = ev
            return result

        return counting

    def _after_render(self, log, args, result):
        log.count("report.bytes", len(result))
        return result

    # -- analysis ------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        total: dict[str, float] = {}
        for log in self._logs:
            for key, val in log.counters.items():
                total[key] = total.get(key, 0) + val
        return total

    def _spans(self):
        """(start, end, name_id, slot) over all threads, as numpy arrays."""
        start = np.concatenate([np.frombuffer(l.start, dtype=float) for l in self._logs] or [np.zeros(0)])
        end = np.concatenate([np.frombuffer(l.end, dtype=float) for l in self._logs] or [np.zeros(0)])
        name = np.concatenate([np.frombuffer(l.name, dtype=np.int32) for l in self._logs] or [np.zeros(0, np.int32)])
        slot = np.concatenate([np.full(len(l.start), l.slot) for l in self._logs] or [np.zeros(0, int)])
        return start, end, name, slot

    def _segments(self, log: _ThreadLog, label_of):
        """Innermost-span timeline of one thread: (t0, t1, label) arrays."""
        t0s, t1s, labs = [], [], []
        start, end, name = log.start, log.end, log.name
        stack: list[int] = []
        cursor = 0.0

        def emit(t, span):
            if t > cursor:
                t0s.append(cursor)
                t1s.append(t)
                labs.append(label_of[name[span]])

        for i in range(len(start)):
            s = start[i]
            while stack and end[stack[-1]] <= s:
                top = stack.pop()
                emit(end[top], top)
                cursor = end[top]
            if stack:
                emit(s, stack[-1])
            cursor = s
            stack.append(i)
        while stack:
            top = stack.pop()
            emit(end[top], top)
            cursor = end[top]
        return np.array(t0s), np.array(t1s), np.array(labs, dtype=int)

    def self_times(self, t_begin: float, t_end: float) -> tuple[dict[str, float], float]:
        """Wall-clock self time per module over [t_begin, t_end], and the
        uncovered remainder; they sum to t_end - t_begin."""
        labels = list(MODULES) + ["<wait>"]
        wait_label = len(MODULES)
        label_of = []
        for nm in self._names:
            mod = nm.split(".", 1)[0]
            label_of.append(wait_label if nm == WAIT else
                            labels.index(mod) if mod in MODULES else -1)
        segs = [self._segments(log, label_of) for log in self._logs]
        bounds = np.unique(np.concatenate(
            [np.array([t_begin, t_end])] + [np.clip(np.concatenate([a, b]), t_begin, t_end)
                                            for a, b, _ in segs]))
        left, dt = bounds[:-1], np.diff(bounds)
        active = []
        for t0, t1, lab in segs:
            k = np.searchsorted(t0, left, side="right") - 1
            inside = (k >= 0) & (left < t1[np.maximum(k, 0)])
            lab_now = np.where(inside, lab[np.maximum(k, 0)], -1)
            active.append(np.where(lab_now == wait_label, -1, lab_now))
        active = np.array(active) if active else np.full((1, len(left)), -1)
        busy = (active >= 0).sum(axis=0)
        share = np.where(busy > 0, dt / np.maximum(busy, 1), 0.0)
        self_s = np.zeros(len(MODULES))
        for row in active:
            ok = row >= 0
            self_s += np.bincount(row[ok], weights=share[ok], minlength=len(MODULES))[:len(MODULES)]
        uncovered = float(np.sum(dt[busy == 0]))
        return dict(zip(MODULES, map(float, self_s))), uncovered

    def analyse(self, t_begin: float, t_end: float, check_ids) -> dict[str, float]:
        """Per-layer metrics of the traced window [t_begin, t_end]."""
        start, end, name, _ = self._spans()
        dur = end - start
        nid = self._name_ids

        def calls(n):
            return int(np.count_nonzero(name == nid[n])) if n in nid else 0

        def busy(n):
            return float(dur[name == nid[n]].sum()) if n in nid else 0.0

        c = self.counters()
        out: dict[str, float] = {}
        self_s, uncovered = self.self_times(t_begin, t_end)
        for mod, val in self_s.items():
            out[f"{mod}.self_s"] = val
        out["trace.uncovered_s"] = uncovered
        out["trace.wall_s"] = t_end - t_begin
        for n in _CALL_COUNTS:
            out[f"{n}.calls"] = calls(n)
        for metric, n in _BUSY.items():
            out[f"{metric}.busy_s"] = busy(n)
        out["specfun.log_gamma.points"] = int(c.get("specfun.log_gamma.points", 0))
        out["specfun.cdh_poly.points"] = int(c.get("specfun.cdh_poly.points", 0))

        leaf_evals = int(c.get("operators.leaf_evals", 0))
        out["operators.leaf_evals"] = leaf_evals
        out["operators.leaf_points"] = int(c.get("operators.leaf_points", 0))
        out["operators.leaf_unique_ratio"] = (c.get("operators.leaf_distinct", 0) / leaf_evals
                                              if leaf_evals else 0.0)
        memo_calls = c.get("operators.memo_calls", 0)
        memo_misses = c.get("operators.memo_misses", 0)
        out["operators.memo_hit_ratio"] = ((memo_calls - memo_misses) / memo_calls
                                           if memo_calls else 0.0)

        integrals = int(c.get("quadrature.integrals", 0))
        nodes = int(c.get("quadrature.nodes", 0))
        out["quadrature.integrals"] = integrals
        out["quadrature.nodes"] = nodes
        out["quadrature.nodes_per_integral"] = nodes / integrals if integrals else 0.0
        out["quadrature.errors"] = int(c.get("quadrature.errors", 0))
        for cid in check_ids:
            out[f"checks.{cid}.busy_s"] = busy(f"checks.{cid}")
        points = self._spans_with_children("checks.run_point")
        out["checks.run_point.ms.p50"] = float(np.median(points)) * 1e3 if len(points) else 0.0
        out["checks.errors"] = int(c.get("checks.errors", 0))
        out["report.bytes"] = int(c.get("report.bytes", 0))
        return out

    def _spans_with_children(self, name: str) -> np.ndarray:
        """Durations (s) of the spans called name that have child spans."""
        durations = []
        nid = self._name_ids.get(name)
        for log in self._logs:
            parents = {p & 0xFFFFFFFF for p in log.parent if p >= 0 and (p >> 32) == log.slot}
            for i in range(len(log.start)):
                if log.name[i] == nid and i in parents:
                    durations.append(log.end[i] - log.start[i])
        return np.array(durations)

    def dump(self, path) -> None:
        """Write every span to an .npz file: start, end, name (index into
        names), parent (slot << 32 | span index, or -1) and thread slot, with
        thread_ids[slot] the thread's identifier."""
        start, end, name, slot = self._spans()
        parent = np.concatenate([np.frombuffer(l.parent, dtype=np.int64) for l in self._logs]
                                or [np.zeros(0, np.int64)])
        np.savez_compressed(path, start=start, end=end, name=name, parent=parent, slot=slot,
                            thread_ids=np.array([l.thread_id for l in self._logs], dtype=np.uint64),
                            names=np.array(json.dumps(self._names)))


def _traced_pool(tracer: Tracer, base):
    """A ThreadPoolExecutor whose workers adopt the submitting span as parent
    and whose result iteration is recorded as waiting."""

    class TracedPool(base):
        def map(self, fn, *iterables, **kwargs):
            parent = tracer._log().current()

            def adopted(*args):
                log = tracer._log()
                log.adopted = parent
                try:
                    return fn(*args)
                finally:
                    log.adopted = -1

            results = super().map(adopted, *iterables, **kwargs)
            return _waiting(tracer, results)

    return TracedPool


def _waiting(tracer: Tracer, results):
    while True:
        with tracer.span(WAIT):
            try:
                item = next(results)
            except StopIteration:
                return
        yield item
