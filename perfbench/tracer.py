"""Outside-in tracer for the sleepysim package.

`Tracer.install()` wraps the public functions and methods of each package
module at run time, where callers look the names up: every module global that
holds the function (so `energy_bfs.build_cover_sync` is wrapped as well as
`netdecomp.build_cover_sync`) and the class attribute of every method. Nothing
in the package is edited, and `uninstall()` puts every original back.

Every wrapped call is a span. A span's self time is its duration minus the
time of the wrapped calls made inside it. Spans are aggregated in memory per
(name, parent name); spans of calls that are not made once per message, step
or schedule query are also kept one by one as (id, parent id, name, start,
end, self) records. Everything stays in memory until `to_json()`.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

MODULES = (
    "graph", "engine", "structures", "oracle", "congest_cssp", "energy_cssp",
    "netdecomp", "energy_bfs", "apsp_sched", "trace_checks",
)

# Integer helpers called once per wire integer or slot. A wrapper would cost
# more than the call; their time stays in the caller's self time.
UNWRAPPED = frozenset({
    "engine.int_bits", "engine.bit_budget", "congest_cssp.pow2_at_least",
    "congest_cssp.ceil_div", "congest_cssp.project_distance",
    "netdecomp.bits_for", "energy_bfs.next_slot",
})

# Called once per message, schedule declaration or trace event: counted only.
COUNT_ONLY = frozenset({
    "engine.NodeApi.send", "engine.NodeApi.wake_at", "engine.NodeApi.awake_span",
    "engine.NodeApi.awake_periodic", "engine.NodeApi.stop_awake",
    "engine.NodeApi.always_awake", "engine.NodeApi.finish",
    "engine.NodeApi.trace", "engine.Engine.trace",
})

# Called once per node step, schedule query or audited message: timed, but
# only aggregated. Every `on_round` method belongs here too.
AGGREGATED = frozenset({
    "engine.Schedule.awake_at", "engine.Schedule.next_awake_after",
    "engine.Schedule.awake_rounds", "engine.audit_message",
    "graph.Graph.neighbors", "graph.Graph.adjacency",
})

MAX_RECORDS = 20_000

ROOT = "root"
BENCH = "perfbench"


def _after_engine_run(tr, args, result):
    engine = args[0]
    report = result[1]
    log = engine.trace_log
    tr.counts["engine.messages"] += report.delivered + report.lost
    tr.counts["engine.trace_events"] += len(log)
    tr.counts["cssp.frames"] += sum(1 for kind, _ in log if kind == "frame")


def _after_decomposition(tr, args, result):
    report = result[2]
    tr.counts["netdecomp.rounds"] += report.rounds
    for v, e in report.energy.items():
        tr.op_build_energy[v] = tr.op_build_energy.get(v, 0) + e


def _after_bfs_phase(tr, args, result):
    tr.counts["energy_bfs.phase_energy_max"] += result[1].max_energy()


def _after_full_bfs(tr, args, result):
    tr.counts["energy_bfs.levels"] += result[3].top + 1


def _after_save_cover(tr, args, result):
    tr.counts["structures.cover_bytes"] += len(result.encode())


def _before_cssp_step(tr, parent, args):
    if parent == "apsp_sched.ApspProgram.on_round" and args[1].inbox:
        tr.counts["apsp_sched.substeps_with_mail"] += 1


POST_HOOKS = {
    "engine.Engine.run": _after_engine_run,
    "netdecomp.build_decomposition": _after_decomposition,
    "energy_bfs.run_thresholded_bfs_with_cover": _after_bfs_phase,
    "energy_bfs.full_bfs": _after_full_bfs,
    "structures.save_layered_cover": _after_save_cover,
}
PRE_HOOKS = {"congest_cssp.CsspProgram.on_round": _before_cssp_step}


class Tracer:
    """Span aggregation for one traced pass over a workload's operations."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.stack = [[ROOT, 0.0, 0]]  # frames: [name, child time, record id]
        self.slots = {}  # span name -> {parent name: [calls, total s, self s]}
        self.counts = defaultdict(int)
        self.module_outer = defaultdict(float)  # outermost-call time per module
        self._depth = defaultdict(int)
        self.records = []
        self.records_dropped = 0
        self._next_id = 1
        self._undo = []
        self._wrapped = set()
        self.op_build_energy = {}
        self.uncovered_s = 0.0

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(qualified name, module short name, owner, attribute, function)."""
        for short in MODULES:
            mod = getattr(self.pkg, short)
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{short}.{attr}", short, mod, attr, obj
                elif inspect.isclass(obj):
                    for meth, raw in sorted(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        if isinstance(raw, staticmethod) or inspect.isfunction(raw):
                            yield f"{short}.{attr}.{meth}", short, obj, meth, raw

    def install(self):
        wrapped = {}
        for name, short, owner, attr, raw in self._targets():
            if name in UNWRAPPED:
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if name in COUNT_ONLY:
                w = self._counting(name, fn)
            else:
                self._wrapped.add(name)
                hot = name in AGGREGATED or name.endswith(".on_round")
                w = self._timed(name, short, fn, record=not hot)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(w) if isinstance(raw, staticmethod) else w)
            if inspect.isfunction(raw):
                wrapped[raw] = w
        # rebind every module global that imported a wrapped function
        for short in MODULES:
            mod = getattr(self.pkg, short)
            for attr, obj in list(vars(mod).items()):
                try:
                    w = wrapped.get(obj)
                except TypeError:  # unhashable module global
                    continue
                if w is not None and getattr(mod, attr) is not w:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, w)
        return len(self._undo)

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def _counting(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)

        return wrapper

    def _timed(self, name, module, fn, record):
        """A timed wrapper. The wrapper's own bookkeeping after the call is
        charged to neither the span nor its parent's self time."""
        tracer = self
        stack = self.stack
        slots = self.slots[name] = {}  # parent name -> [calls, total s, self s]
        depth = self._depth
        module_outer = self.module_outer
        pre = PRE_HOOKS.get(name)
        post = POST_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            t0 = clock()
            parent = stack[-1]
            if pre is not None:
                pre(tracer, parent[0], args)
            frame = [name, 0.0, tracer._new_id() if record else parent[2]]
            stack.append(frame)
            if record:
                depth[module] += 1
            try:
                result = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                slot = slots.get(parent[0])
                if slot is None:
                    slot = slots[parent[0]] = [0, 0.0, 0.0]
                slot[0] += 1
                slot[1] += dt
                slot[2] += dt - frame[1]
                if record:
                    depth[module] -= 1
                    if depth[module] == 0:
                        module_outer[module] += dt
                    tracer._record(frame[2], parent[2], name, t0, t1, dt - frame[1])
                parent[1] += clock() - t0
            if post is not None:
                post(tracer, args, result)
            return result

        return wrapper

    def _new_id(self):
        i = self._next_id
        self._next_id += 1
        return i

    def _record(self, sid, pid, name, t0, t1, self_t):
        if len(self.records) < MAX_RECORDS:
            self.records.append((sid, pid, name, t0, t1, self_t))
        else:
            self.records_dropped += 1

    # -- benchmark-owned spans --------------------------------------------

    def span(self, name):
        """Context manager for a span the benchmark itself opens."""
        return _BenchSpan(self, name)

    def end_op(self):
        """Close the per-operation accumulators after one traced operation."""
        if self.op_build_energy:
            self.counts["netdecomp.energy_max"] += max(self.op_build_energy.values())
        self.op_build_energy = {}

    # -- queries -----------------------------------------------------------

    @property
    def agg(self):
        """(name, parent name) -> [calls, total s, self s]."""
        return {(n, p): slot for n, by_parent in self.slots.items()
                for p, slot in by_parent.items()}

    def module_self(self):
        """Exclusive time per module; spans the benchmark opens count as its own."""
        out = defaultdict(float)
        for (n, _), slot in self.agg.items():
            out[n.split(".")[0] if n in self._wrapped else BENCH] += slot[2]
        return dict(out)

    def total(self, name, parent=None):
        return sum(s[1] for (n, p), s in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def calls(self, name, parent=None):
        return sum(s[0] for (n, p), s in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def self_time(self, prefix, suffix=""):
        return sum(s[2] for (n, _), s in self.agg.items()
                   if n.startswith(prefix) and n.endswith(suffix))

    def to_json(self):
        return {
            "spans": [
                {"id": i, "parent": p, "name": n, "start": a, "end": b, "self": s}
                for i, p, n, a, b, s in self.records
            ],
            "spans_not_recorded": self.records_dropped,
            "aggregates": [
                {"name": n, "parent": p, "calls": s[0], "total_s": s[1], "self_s": s[2]}
                for (n, p), s in sorted(self.agg.items())
            ],
            "module_self_s": dict(sorted(self.module_self().items())),
            "module_outermost_s": dict(sorted(self.module_outer.items())),
            "counts": dict(sorted(self.counts.items())),
        }


class _BenchSpan:
    """A span opened by the benchmark around the calls it makes."""

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr.stack[-1]
        self.frame = [self.name, 0.0, tr._new_id()]
        tr.stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        t1 = time.perf_counter()
        tr.stack.pop()
        self.elapsed = t1 - self.t0
        self.self_s = self.elapsed - self.frame[1]
        self.parent[1] += self.elapsed
        slot = tr.slots.setdefault(self.name, {}).setdefault(self.parent[0], [0, 0.0, 0.0])
        slot[0] += 1
        slot[1] += self.elapsed
        slot[2] += self.self_s
        tr._record(self.frame[2], self.parent[2], self.name, self.t0, t1, self.self_s)
        return False
