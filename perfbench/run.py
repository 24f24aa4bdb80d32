"""sleepysim benchmark: one workload per process, whole rounds of operations.

    python3 perfbench/run.py --workload congest-gnm --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository: the package is imported from the
checkout's `src/`, never from an installed copy. The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"};
the line before it records the machine and source the run was made on.

--trace 0 measures end-to-end metrics: set-up time (median of repeated
set-ups), host seconds per operation, peak resident memory, and the
simulated figures summed over one round of the workload's instances. An
operation that raises counts as failed and makes the run incorrect. Host
times are divided by the slowdown the speed probe (probe.py) measured over
the same interval; the unscaled figures are in the run_info line.
--trace 1 spends half the time on untraced rounds, then traces one round
with wrappers installed from perfbench/tracer.py, prints the per-layer
metrics and writes every span to perfbench/out/trace-<workload>-seed<n>.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from probe import SpeedProbe
from tracer import MODULES, Tracer
from workloads import SIM_KEYS, WORKLOADS, sim_figures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up is repeated this often; a fixed count keeps the heap history, and
# so the peak resident memory, the same from run to run
SETUP_REPEATS = 9

CSSP_WORKLOADS = ("congest-gnm", "energy-gnm")
clock = time.perf_counter


def import_package():
    """Import (or re-import) the package modules from the checkout's src/."""
    for name in list(sys.modules):
        if name == "sleepysim" or name.startswith("sleepysim."):
            del sys.modules[name]
    pkg = SimpleNamespace(**{m: importlib.import_module(f"sleepysim.{m}") for m in MODULES})
    where = Path(pkg.graph.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"sleepysim imported from {where}, not from {SRC}")
    return pkg


def build_graphs(pkg, instances):
    """Generate each instance, write it as edge-list text and parse it back
    the way `sleepysim run --graph` does."""
    OUT.mkdir(exist_ok=True)
    graphs, problems = {}, []
    for inst in instances:
        g = pkg.graph.gen_graph(inst.spec(pkg))
        path = OUT / f"{inst.name}.txt"
        path.write_text(pkg.graph.save_graph(g))
        parsed = pkg.graph.load_graph(path.read_text())
        if parsed != g:
            problems.append(f"{inst.name}: load_graph(save_graph(g)) != g")
        graphs[inst.name] = parsed
    return graphs, problems


def timed_setups(instances, probe):
    """Median over repeated set-ups of: import, generation, write and parse.
    Returns (scaled median, raw median, package, graphs, problems)."""
    times = []
    start = clock()
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        pkg = import_package()
        graphs, problems = build_graphs(pkg, instances)
        t1 = clock()
        times.append(t1 - t0 - probe.busy(t0, t1))
    raw = statistics.median(times)
    return raw / probe.slowdown(start, t1), raw, pkg, graphs, problems


def run_op(pkg, wl, inst, graph, probe=None):
    """One operation: build the input, run the entry point, verify outputs.
    Returns ((host seconds without probe time, the same divided by the probe
    slowdown over the operation), outcome, problems)."""
    gc.collect()
    t0 = clock()
    g = pkg.graph.Graph.build(graph.n, graph.edges)
    res = wl.run(pkg, g, inst)
    problems = wl.verify(pkg, g, inst, res)
    t1 = clock()
    if probe is None:
        return (t1 - t0, t1 - t0), res, problems
    raw = t1 - t0 - probe.busy(t0, t1)
    return (raw, raw / probe.slowdown(t0, t1)), res, problems


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.times = {}  # instance name -> (raw, scaled) host seconds of each operation
        self.sims = {}  # instance name -> simulated figures

    def add(self, inst, dt, res, problems):
        figures = sim_figures(res.report)
        if self.sims.setdefault(inst.name, figures) != figures:
            problems = problems + [f"simulated figures changed: {figures}"]
        for p in problems:
            self.problems.append(f"{inst.name}: {p}")
        self.times.setdefault(inst.name, []).append(dt)

    def op_s(self, scaled=True):
        """Host seconds per operation: the mean over instances of each
        instance's median, so that every instance counts."""
        k = 1 if scaled else 0
        medians = [statistics.median(t[k] for t in ts) for ts in self.times.values()]
        return statistics.fmean(medians) if medians else 0.0

    def total_s(self):
        """Unscaled host seconds of every operation timed."""
        return sum(t[0] for ts in self.times.values() for t in ts)


def run_round(pkg, wl, graphs, order, tally, tracer=None, keep=None, probe=None):
    for inst in order:
        tally.attempted += 1
        try:
            if tracer is None:
                dt, res, problems = run_op(pkg, wl, inst, graphs[inst.name], probe)
            else:
                with tracer.span(f"op:{inst.name}") as sp:
                    _, res, problems = run_op(pkg, wl, inst, graphs[inst.name])
                dt = (sp.elapsed, sp.elapsed)
                tracer.uncovered_s += sp.self_s
                tracer.end_op()
        except Exception:  # an operation that raises is counted as failed
            tally.failed += 1
            print(f"operation {inst.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        tally.add(inst, dt, res, problems)
        if keep is not None:
            keep.append(res)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(pkg, wl, graphs, rng, budget, tally, probe):
    """Run whole rounds while the next one is expected to end in the budget.
    The first round runs in table order and the peak resident memory is read
    after it, so that the figure does not depend on the order of operations;
    the seed orders every later round. Returns (rounds, peak MB)."""
    start = clock()
    rounds = 0
    order = list(wl.instances)
    while True:
        run_round(pkg, wl, graphs, order, tally, probe=probe)
        rounds += 1
        if rounds == 1:
            rss = peak_rss_mb()
        elapsed = clock() - start
        if elapsed + elapsed / rounds > budget:
            return rounds, rss
        order = rng.sample(wl.instances, len(wl.instances))


def traced_pass(pkg, wl, rng, tally):
    """One traced set-up and one traced round; returns (tracer, results)."""
    tracer = Tracer(pkg)
    tracer.install()
    kept = []
    try:
        with tracer.span("setup"):
            graphs, problems = build_graphs(pkg, wl.instances)
        tally.problems.extend(problems)
        tracer.setup_module_self = tracer.module_self()
        order = rng.sample(wl.instances, len(wl.instances))
        tally.times = {}
        run_round(pkg, wl, graphs, order, tally, tracer=tracer, keep=kept)
    finally:
        tracer.uninstall()
    return tracer, kept


def layer_metrics(tr, untraced_op_s, traced_op_s, flags):
    run_s = tr.total("engine.Engine.run")
    msgs = tr.counts["engine.messages"]
    steps = sum(s[0] for (n, p), s in tr.agg.items()
                if n.endswith(".on_round") and p == "engine.Engine.run")
    queries = ("engine.Schedule.awake_at", "engine.Schedule.next_awake_after")
    host = "apsp_sched.ApspProgram.on_round"
    substeps = tr.calls("congest_cssp.CsspProgram.on_round", parent=host)
    with_mail = tr.counts["apsp_sched.substeps_with_mail"]
    return {
        "graph.load_s": tr.total("graph.load_graph"),
        "engine.run_s": run_s,
        "engine.self_s": tr.self_time("engine.Engine.run"),
        "engine.steps": steps,
        "engine.host_us_per_msg": 1e6 * run_s / msgs if msgs else 0.0,
        "engine.audit_calls": tr.calls("engine.audit_message"),
        "engine.audit_s": tr.total("engine.audit_message"),
        "engine.sched.queries": sum(tr.calls(q) for q in queries),
        "engine.sched.query_s": sum(tr.total(q) for q in queries),
        "engine.sched.spans_added": (tr.counts["engine.NodeApi.wake_at"]
                                     + tr.counts["engine.NodeApi.awake_span"]),
        "engine.sched.periodics_added": tr.counts["engine.NodeApi.awake_periodic"],
        "engine.finalize_s": tr.total("engine.Schedule.awake_rounds"),
        "engine.trace_events": tr.counts["engine.trace_events"],
        "congest_cssp.step_s": tr.self_time("congest_cssp.", ".on_round"),
        "energy_cssp.step_s": tr.self_time("energy_cssp.", ".on_round"),
        "cssp.frames": tr.counts["cssp.frames"],
        "netdecomp.build_s": tr.module_outer["netdecomp"],
        "netdecomp.forest_s": tr.total("congest_cssp.boruvka_forest",
                                       parent="netdecomp.build_decomposition"),
        "netdecomp.step_s": tr.self_time("netdecomp.", ".on_round"),
        "netdecomp.rounds": tr.counts["netdecomp.rounds"],
        "netdecomp.energy_max": tr.counts["netdecomp.energy_max"],
        "energy_bfs.detect_s": tr.total("energy_bfs.detect_global_cluster"),
        "energy_bfs.phase_s": tr.total("energy_bfs.run_thresholded_bfs_with_cover"),
        "energy_bfs.step_s": tr.self_time("energy_bfs.", ".on_round"),
        "energy_bfs.levels": tr.counts["energy_bfs.levels"],
        "energy_bfs.phase_energy_max": tr.counts["energy_bfs.phase_energy_max"],
        "apsp_sched.host_steps": tr.calls(host),
        "apsp_sched.substeps": substeps,
        "apsp_sched.substeps_with_mail": with_mail,
        "apsp_sched.useful_substep_share": with_mail / substeps if substeps else 0.0,
        "apsp_sched.self_s": tr.module_self().get("apsp_sched", 0.0),
        "structures.cover_io_s": (tr.total("structures.save_layered_cover")
                                  + tr.total("structures.load_layered_cover")),
        "structures.cover_bytes": tr.counts["structures.cover_bytes"],
        "oracle.verify_s": tr.module_outer["oracle"],
        "trace_checks.audit_s": tr.module_outer["trace_checks"],
        "trace_checks.cut_composition_flags": flags,
        "trace.uncovered_s": tr.uncovered_s,
        "trace.overhead_s": traced_op_s - untraced_op_s,
    }


def layer_shares(tr, traced_total):
    """Each module's exclusive time as a share of the traced operations."""
    setup = tr.setup_module_self
    shares = {m: (s - setup.get(m, 0.0)) / traced_total
              for m, s in tr.module_self().items()}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "sleepysim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sleepysim" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'sleepysim'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()[0]
    wl = WORKLOADS[args.workload]
    tally = Tally()
    rng = random.Random(args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    with SpeedProbe() as probe:
        setup_s, setup_raw_s, pkg, graphs, problems = timed_setups(wl.instances, probe)
        tally.problems.extend(problems)
        rounds, rss_mb = measure(pkg, wl, graphs, rng, budget, tally, probe)
    op_s, untraced_op_s = tally.op_s(), tally.op_s(scaled=False)

    if args.trace:
        tracer, kept = traced_pass(pkg, wl, rng, tally)
        traced_op_s = tally.op_s(scaled=False)
        flags = 0
        if wl.name in CSSP_WORKLOADS:
            for res in kept:
                ok, _ = pkg.trace_checks.check_cut_composition(
                    res.engine.graph, res.engine.trace_log)
                flags += not ok
        values = layer_metrics(tracer, untraced_op_s, traced_op_s, flags)
    else:
        values = {"setup_s": setup_s, "op_s": op_s, "peak_rss_mb": rss_mb}
        for key in SIM_KEYS:
            values[key] = sum(f[key] for f in tally.sims.values())
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench_spec()[section]}

    info = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": load_start, "loadavg_1m_end": os.getloadavg()[0],
        "untraced_rounds": rounds, "ops_per_round": len(wl.instances),
        "probe_samples": len(probe.samples),
        "probe_slowdown": probe.slowdown(float("-inf"), float("inf")),
        "setup_raw_s": setup_raw_s, "op_raw_s": untraced_op_s,
        "peak_rss_mb_at_exit": peak_rss_mb(),
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems[:20],
    }
    if args.trace:
        info["traced_op_raw_s"] = traced_op_s
        doc = {"run_info": info, "metrics": metrics,
               "layer_share_of_op_time": layer_shares(tracer, tally.total_s()),
               "trace": tracer.to_json()}
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{wl.name}-seed{args.seed}.json").write_text(json.dumps(doc))
    for p in tally.problems:
        print(f"verification failed: {p}", file=sys.stderr)
    correct = not tally.problems and tally.failed == 0
    print(json.dumps({"run_info": info}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
