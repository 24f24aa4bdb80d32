"""The benchmark's workloads: fixed instance tables and one operation each.

An operation builds the program's input for one instance, runs the public
entry point, and verifies the outputs against computations made apart from
the program (Dijkstra with the Bellman-Ford cross-check, BFS hop distances,
one Dijkstra per APSP source) and against properties the method must have.

The graphs are fixed by the seeds in the tables, so every run simulates the
same instances and the simulated metrics repeat exactly; a run's --seed
orders the operations of each round (see run.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

INF = float("inf")


@dataclass(frozen=True)
class Instance:
    name: str
    family: str
    n: int
    graph_seed: int
    m: int | None = None
    weights: str = "unit"
    max_w: int = 1
    sources: tuple = (0,)

    def spec(self, pkg):
        return pkg.graph.GraphSpec(self.family, self.n, seed=self.graph_seed,
                                   m=self.m, weight_mode=self.weights,
                                   max_w=self.max_w)


@dataclass
class Outcome:
    outputs: dict
    report: object
    engine: object
    extra: dict


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple  # measured instances
    tiny: tuple  # self-test instances
    run: Callable  # (pkg, graph, instance) -> Outcome
    verify: Callable  # (pkg, graph, instance, Outcome) -> list of problems
    corrupt: Callable  # (Outcome) -> None: plants one wrong output


def _gnm(name, n, seed, weights, max_w, sources):
    return Instance(name, "random-gnm", n, seed, m=3 * n, weights=weights,
                    max_w=max_w, sources=tuple(sources))


def _spread_sources(n, k, seed):
    return tuple(sorted(random.Random(seed).sample(range(n), k)))


# -- shared checks -----------------------------------------------------------


def report_problems(report):
    """Properties every run report must have."""
    out = []
    if report.status != "done":
        out.append(f"status {report.status!r}")
    if report.max_bits > report.bit_limit:
        out.append(f"message of {report.max_bits} bits over budget {report.bit_limit}")
    sent = report.total_sent()
    if report.delivered + report.lost != sent:
        out.append(f"delivered {report.delivered} + lost {report.lost} != sent {sent}")
    over = [v for v, e in report.energy.items() if e > report.rounds]
    if over:
        out.append(f"{len(over)} nodes awake longer than {report.rounds} rounds")
    if report.critical_losses:
        out.append(f"{len(report.critical_losses)} critical messages lost")
    return out


def _check(out, result, what):
    ok, detail = result
    if not ok:
        out.append(f"{what}: {detail}")


def _first_diff(got, want):
    for k in sorted(want, key=repr):
        if got.get(k) != want[k]:
            return f"at {k!r}: got {got.get(k)!r}, want {want[k]!r}"
    extra = sorted(set(got) - set(want), key=repr)
    return f"unexpected keys {extra[:3]}"


# -- CSSP (congest and energy flavours) --------------------------------------


def _cssp_runner(module, entry):
    def run(pkg, g, inst):
        fn = getattr(getattr(pkg, module), entry)
        outputs, report, engine = fn(g, set(inst.sources), trace=True)
        return Outcome(outputs, report, engine, {})
    return run


def verify_cssp(pkg, g, inst, res):
    out = report_problems(res.report)
    ref = pkg.oracle.dijkstra(g, inst.sources)
    cross = pkg.oracle.bellman_ford(g, inst.sources)
    if ref != cross:
        out.append("oracle disagreement: dijkstra != bellman_ford")
    if res.outputs != ref:
        out.append("distance mismatch " + _first_diff(res.outputs, ref))
    trace = res.engine.trace_log
    checks = pkg.trace_checks
    _check(out, checks.check_cutter_contract(res.engine.graph, trace), "cutter contract")
    _check(out, checks.check_recursion_accounting(trace, g.n), "recursion accounting")
    return out


def corrupt_distances(res):
    v = next(v for v, d in sorted(res.outputs.items()) if d != INF and d > 0)
    res.outputs[v] += 1


# -- BFS with cover construction ---------------------------------------------


def run_bfs(pkg, g, inst):
    outputs, report, engine, layered, decomps, tlogs = pkg.energy_bfs.full_bfs(
        g, set(inst.sources))
    text = pkg.structures.save_layered_cover(layered)
    reloaded = pkg.structures.load_layered_cover(text)
    return Outcome(outputs, report, engine,
                   {"layered": layered, "tlogs": tlogs, "reloaded": reloaded})


def verify_bfs(pkg, g, inst, res):
    out = report_problems(res.report)
    oracle, checks = pkg.oracle, pkg.trace_checks
    ref = oracle.hop_distances(g, inst.sources)
    if res.outputs != ref:
        out.append("hop distance mismatch " + _first_diff(res.outputs, ref))
    _check(out, checks.check_sleep_safety(res.outputs, res.report), "sleep safety")
    layered = res.extra["layered"]
    b = max(1, pkg.netdecomp.bits_for(g.n))
    for level, cover in enumerate(layered.levels):
        bad = oracle.check_cover(g, cover, cover.scale, 6 * b**3, 2 * b, 6 * b**4)
        if bad:
            out.append(f"cover level {level}: {bad[0]}")
    bad = oracle.check_layered(g, layered, layered.base**layered.top, layered.base)
    if bad:
        out.append(f"layered cover: {bad[0]}")
    for tlog in res.extra["tlogs"]:
        _check(out, checks.check_halving(tlog), "halving")
        _check(out, checks.check_kill_budget(tlog, pkg.netdecomp.bits_for(g.n)),
               "kill budget")
    if res.extra["reloaded"] != layered:
        out.append("load_layered_cover(save_layered_cover(c)) != c")
    return out


def corrupt_cover(res):
    """Remove one member of a level-0 cluster from the built cover and from
    its reloaded copy alike, so that only the cover checks can see it."""
    for layered in (res.extra["layered"], res.extra["reloaded"]):
        cluster = next(cl for cl in layered.levels[0].clusters if len(cl.members) > 1)
        cluster.members.discard(max(cluster.members))


# -- APSP under random delays ------------------------------------------------

APSP_DELAY_SEED = 7


def run_apsp(pkg, g, inst):
    matrix, report, engine, _ = pkg.apsp_sched.apsp_random_delay(
        g, seed=APSP_DELAY_SEED)
    return Outcome(matrix, report, engine, {})


def verify_apsp(pkg, g, inst, res):
    out = report_problems(res.report)
    ref = {}
    for s in range(g.n):
        dist = pkg.oracle.dijkstra(g, [s])
        for v in range(g.n):
            ref[(s, v)] = dist[v]
    if res.outputs != ref:
        out.append("matrix mismatch " + _first_diff(res.outputs, ref))
    return out


def corrupt_matrix(res):
    key = next(k for k, d in sorted(res.outputs.items()) if d != INF and d > 0)
    res.outputs[key] += 1


# -- the workload table ------------------------------------------------------

WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            "congest-gnm",
            instances=(
                _gnm("gnm128-uniform-1src", 128, 101, "uniform", 60, (0,)),
                _gnm("gnm160-uniform-4src", 160, 102, "uniform", 60,
                     _spread_sources(160, 4, 102)),
                _gnm("gnm192-zeroheavy-1src", 192, 103, "zero-heavy", 60, (0,)),
                _gnm("gnm256-uniform-3src", 256, 104, "uniform", 60,
                     _spread_sources(256, 3, 104)),
            ),
            tiny=(
                _gnm("gnm24-uniform-1src", 24, 1, "uniform", 60, (0,)),
                _gnm("gnm24-zeroheavy-2src", 24, 2, "zero-heavy", 60, (0, 5)),
            ),
            run=_cssp_runner("congest_cssp", "cssp"),
            verify=verify_cssp,
            corrupt=corrupt_distances,
        ),
        Workload(
            "energy-gnm",
            instances=(
                _gnm("gnm36-uniform-1src", 36, 201, "uniform", 60, (0,)),
                _gnm("gnm36-uniform-3src", 36, 202, "uniform", 60,
                     _spread_sources(36, 3, 202)),
                _gnm("gnm28-zeroheavy-1src", 28, 203, "zero-heavy", 60, (0,)),
            ),
            tiny=(
                _gnm("gnm12-uniform-1src", 12, 3, "uniform", 60, (0,)),
                _gnm("gnm12-zeroheavy-2src", 12, 4, "zero-heavy", 60, (0, 5)),
            ),
            run=_cssp_runner("energy_cssp", "cssp_energy"),
            verify=verify_cssp,
            corrupt=corrupt_distances,
        ),
        Workload(
            "bfs-cover",
            instances=(
                Instance("path257", "path", 257, 0),
                Instance("grid256", "grid", 256, 1),
            ),
            tiny=(
                Instance("path17", "path", 17, 0),
                Instance("grid16", "grid", 16, 1),
            ),
            run=run_bfs,
            verify=verify_bfs,
            corrupt=corrupt_cover,
        ),
        Workload(
            "apsp-gnm",
            instances=(
                _gnm("gnm22-w9", 22, 402, "uniform", 9, ()),
                _gnm("gnm24-w9", 24, 403, "uniform", 9, ()),
            ),
            tiny=(_gnm("gnm8-w9", 8, 5, "uniform", 9, ()),),
            run=run_apsp,
            verify=verify_apsp,
            corrupt=corrupt_matrix,
        ),
    )
}


SIM_KEYS = ("sim_rounds", "sim_energy_max", "sim_congestion_max", "sim_messages")


def sim_figures(report):
    """The simulated metrics of one run report."""
    return dict(zip(SIM_KEYS, (report.rounds, report.max_energy(),
                               report.max_congestion(), report.total_sent())))
