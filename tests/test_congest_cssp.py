import hashlib
import random
from fractions import Fraction

import pytest

from sleepysim.congest_cssp import (
    INF, CsspProgram, boruvka_forest, cssp, lift_zero_weights,
    pow2_at_least, project_distance, run_thresholded_cssp,
)
from sleepysim.energy_cssp import EnergyCsspProgram
from sleepysim.graph import Graph, GraphSpec, gen_graph
from sleepysim.oracle import dijkstra
from sleepysim.trace_checks import (
    check_cut_composition, check_cutter_contract, check_recursion_accounting,
)
from schedule_reference import record


def test_lift_zero_weights():
    g = Graph.build(2, [(0, 1, 0)])
    assert lift_zero_weights(g).edges == ((0, 1, 1),)
    g = Graph.build(2, [(0, 1, 3)])
    assert lift_zero_weights(g).edges == ((0, 1, 6),)
    g = Graph.build(2, [(0, 1, 5)])
    assert lift_zero_weights(g).edges[0][2] == 2 * 5


def test_project_distance():
    assert project_distance(1, 2) == 0
    assert project_distance(6, 2) == 3
    assert project_distance(INF, 2) is INF


def test_boruvka_triangle():
    g = Graph.build(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    forest, report, _ = boruvka_forest(g)
    assert len(set(forest.component.values())) == 1
    assert all(s == 3 for s in forest.size.values())
    roots = [v for v, p in forest.parent.items() if p is None]
    assert len(roots) == 1
    kids = forest.children()
    assert sum(len(c) for c in kids.values()) == 2  # spanning tree edges
    for v, p in forest.parent.items():
        if p is not None:
            assert forest.depth[v] == forest.depth[p] + 1


def test_boruvka_edgeless():
    g = Graph.build(3, [])
    forest, _, _ = boruvka_forest(g)
    assert len(set(forest.component.values())) == 3
    assert all(s == 1 for s in forest.size.values())


def test_boruvka_path_is_own_forest():
    g = Graph.build(4, [(0, 1, 2), (1, 2, 5), (2, 3, 1)])
    forest, _, _ = boruvka_forest(g)
    assert len(set(forest.component.values())) == 1
    tree_edges = {(min(v, p), max(v, p)) for v, p in forest.parent.items() if p is not None}
    assert tree_edges == {(0, 1), (1, 2), (2, 3)}


@pytest.mark.parametrize("program", [CsspProgram, EnergyCsspProgram])
@pytest.mark.parametrize("graph", [
    gen_graph(GraphSpec("path", 17)),
    gen_graph(GraphSpec("grid", 25, seed=1)),
    Graph.build(7, [(0, 1, 1), (1, 2, 1), (3, 4, 1)]),  # with isolated 5, 6
    gen_graph(GraphSpec("random-gnm", 24, seed=5, m=40, weight_mode="uniform",
                        max_w=60)),
], ids=["path", "grid", "disconnected", "weighted-gnm"])
def test_forest_height_is_the_components_deepest_node(graph, program):
    """Every node learns its component tree's height in hops, the largest
    `depth` there, whatever the weights, from either program class."""
    forest, _, _ = boruvka_forest(graph, program=program)
    deepest = {}
    for v, c in forest.component.items():
        deepest[c] = max(deepest.get(c, 0), forest.depth[v])
    assert forest.height == {v: deepest[c] for v, c in forest.component.items()}


def test_cutter_contract_two_nodes():
    # weight-7 edge, threshold 8: rounded tick weight 4, tick size 2
    g = Graph.build(2, [(0, 1, 7)])
    outputs, report, engine = run_thresholded_cssp(g, {0}, 8)
    top = [(kind, d) for kind, d in engine.trace_log if d["path"] == 1]
    assert {(d["D"], d["N"]) for kind, d in top if kind == "frame"} == {(8, 2)}
    ticks = {d["node"]: d["tick"] for kind, d in top if kind == "cutter"}
    assert ticks == {0: 0, 1: 4}
    W, N = 8, 2
    approx = ticks[1] * Fraction(W, 2 * N)
    assert 7 <= approx < 7 + Fraction(W, 2)


def test_thresholded_p3():
    g = Graph.build(3, [(0, 1, 2), (1, 2, 3)])
    outputs, _, _ = run_thresholded_cssp(g, {0}, 4)
    assert outputs == {0: 0, 1: 2, 2: INF}


def test_star_base_case():
    g = Graph.build(5, [(0, i, 1) for i in range(1, 5)])
    outputs, _, _ = run_thresholded_cssp(g, {0}, 1)
    assert outputs == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1}


def test_source_always_zero():
    g = gen_graph(GraphSpec("random-gnm", 24, seed=9, m=50, weight_mode="uniform", max_w=7))
    outputs, _, _ = cssp(g, {3, 17})
    assert outputs[3] == 0 and outputs[17] == 0


def test_degenerate_all_sources():
    g = gen_graph(GraphSpec("cycle", 6, seed=0, weight_mode="uniform", max_w=5))
    outputs, _, _ = cssp(g, set(range(6)))
    assert all(outputs[v] == 0 for v in range(6))


def test_negative_round_limit_raises():
    g = Graph.build(2, [(0, 1, 5)])
    with pytest.raises(ValueError, match="round_limit"):
        cssp(g, {0}, round_limit=-1)


def test_disconnected_no_source_component():
    g = Graph.build(4, [(0, 1, 2), (2, 3, 4)])
    outputs, _, _ = cssp(g, {0})
    assert outputs == {0: 0, 1: 2, 2: INF, 3: INF}


@pytest.mark.parametrize("seed", range(12))
def test_oracle_equivalence_random(seed):
    rng = random.Random(seed * 101 + 5)
    n = rng.randint(2, 28)
    m = min(n * (n - 1) // 2, rng.randint(n - 1, 3 * n))
    mode = rng.choice(["unit", "uniform", "zero-heavy"])
    g = gen_graph(GraphSpec("random-gnm", n, seed=seed, m=m,
                            weight_mode=mode, max_w=rng.choice([1, 3, 17])))
    k = rng.randint(1, max(1, n // 3))
    sources = set(rng.sample(range(n), k))
    outputs, report, engine = cssp(g, sources)
    assert outputs == dijkstra(g, sources)
    assert report.status == "done"
    if not any(w == 0 for (_, _, w) in g.edges):
        ok, detail = check_cutter_contract(g, engine.trace_log)
        assert ok, detail
        ok, detail = check_recursion_accounting(engine.trace_log, g.n)
        assert ok, detail
        ok, detail = check_cut_composition(g, engine.trace_log)
        assert ok, detail


def test_thresholded_matches_reference():
    g = gen_graph(GraphSpec("random-gnm", 20, seed=2, m=45, weight_mode="uniform", max_w=9))
    dist = dijkstra(g, [0])
    for D in (pow2_at_least(g.n * g.max_weight), 16):
        outputs, _, _ = run_thresholded_cssp(g, {0}, D)
        assert outputs == {v: d if d <= D else INF for v, d in dist.items()}


def test_determinism():
    g = gen_graph(GraphSpec("random-gnm", 18, seed=4, m=40, weight_mode="uniform", max_w=6))
    _, r1, _ = cssp(g, {0, 5})
    _, r2, _ = cssp(g, {0, 5})
    assert r1.to_json() == r2.to_json()


@pytest.fixture(scope="module")
def gnm48_trace():
    g = gen_graph(GraphSpec("random-gnm", 48, seed=0, m=144,
                            weight_mode="uniform", max_w=60))
    outputs, _, engine = cssp(g, {0})
    assert outputs == dijkstra(g, {0})
    return g, engine.trace_log


def test_cut_composition_groups_components_by_path(gnm48_trace):
    """Far-side frames of several components share a path but not a size N;
    an exact run must verify, not be flagged for a missing parent frame."""
    g, trace = gnm48_trace
    ok, detail = check_cut_composition(g, trace)
    assert ok, detail
    assert int(detail.split()[0]) > 0


def test_cut_composition_flags_planted_offset(gnm48_trace):
    g, trace = gnm48_trace
    frames = [d for kind, d in trace if kind == "frame"]
    half = {d["path"]: d["D"] // 2 for d in frames}
    # the smallest offset of a far frame is that node's own cut distance, so
    # raising it by one shifts a composition the parent did not make
    far = min((d for d in frames if d["path"] % 2 == 1 and d["path"] > 1
               and d["offsets"] and min(d["offsets"]) < half[d["path"] // 2]),
              key=lambda d: (min(d["offsets"]), d["path"], d["node"]))
    planted = [(kind, dict(d, offsets=tuple(o + 1 for o in d["offsets"]))
                if d is far else d) for kind, d in trace]
    ok, detail = check_cut_composition(g, planted)
    assert not ok
    assert f"node {far['node']}" in detail


def test_recursion_cap_is_per_component():
    """Each component starts at its own root threshold (256 / 4 / 32 here),
    so node 3, at threshold 4, may be in at most 3 frames at each of its 3
    levels: 9, not the 27 that the largest threshold would allow."""
    g = Graph.build(7, [(0, 1, 60), (1, 2, 60), (3, 4, 1), (5, 6, 9)])
    outputs, _, engine = cssp(g, {0, 3, 6})
    trace = engine.trace_log
    roots = {d["node"]: d["D"] for kind, d in trace
             if kind == "frame" and d["path"] == 1}
    assert [roots[v] for v in (0, 3, 5)] == [256, 4, 32]
    ok, _ = check_recursion_accounting(trace, g.n)
    assert ok
    mine = [d for kind, d in trace if kind == "frame" and d["node"] == 3]
    assert sorted(d["D"] for d in mine) == [1, 2, 4]
    # fill node 3's three levels to 3 frames each: still within the cap
    filled = trace + [("frame", dict(d, path=1000 + i))
                      for i, d in enumerate(mine + mine)]
    ok, detail = check_recursion_accounting(filled, g.n)
    assert ok, detail
    # a tenth frame, at a level node 3 never reaches
    tenth = filled + [("frame", dict(mine[0], path=2000, D=8))]
    ok, detail = check_recursion_accounting(tenth, g.n)
    assert not ok
    assert detail == "node 3 in 10 subproblems total (cap 9)"


GOLDEN = [
    # (spec, sources, sha256 of the sorted outputs, of to_json(),
    #  (delivered, lost, max_channel_demand, max_bits), trace events and sha256)
    (GraphSpec("random-gnm", 24, seed=5, m=72, weight_mode="uniform", max_w=60),
     {0},
     "0072f2f252478fea29af588dae0405cfcc9e2855e85d806a520415bc111af92a",
     "e2a9b3ceba9961e5fb8dd3d675ff001150061c361ac2e98825e58aca98457487",
     (4483, 0, 1, 25),
     656, "8315487e3795e7af2f0921ed71dffb047dd90145a60b25efdb378cc59ef49046"),
    (GraphSpec("random-gnm", 20, seed=6, m=60, weight_mode="zero-heavy", max_w=60),
     {0, 7},
     "a89ba36ed76e1715b2e16ec84dd7fcb9a3eac42d10388ffbaedae7c89f6e68f9",
     "5bec0baea1394210bbe54fe171c7bc71179b08a5ff99111959dcf5a2d60f3029",
     (4932, 0, 1, 33),
     592, "0b6b00998a6004d2f98beb3feff57e601ee312b927a06b2b680a3df863e03fba"),
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("spec, sources, outputs_sha, report_sha, traffic, "
                         "n_events, trace_sha", GOLDEN,
                         ids=["gnm24", "gnm20-zeroheavy"])
def test_golden_outputs_and_report(spec, sources, outputs_sha, report_sha,
                                   traffic, n_events, trace_sha):
    """Pinned outputs, report, message counts and trace log: a change to the
    engine that moves any delivery, round or congestion figure shows here,
    where a rerun of the same code cannot. Pinned again when the root frame
    began to run at its component's threshold from the tree height (fewer
    levels, messages and trace events; outputs unchanged), and again when
    a near child that keeps its parent's whole component began to reuse the
    parent's spanning tree (fewer messages and rounds, a `reuse` field on
    each `cutter` event; outputs unchanged), and again when such a child
    began to start its cutter in phase 0's merge round instead of at the
    phase's end (fewer rounds; messages, events and outputs unchanged).
    Pinned again when the component census began to ride on the Boruvka
    phase that finds no outgoing edge, whose merge round starts the
    cutter, and the far child's start lead began to follow the pipe period
    (fewer rounds and messages, a `size` field on each `cutter` event;
    events and outputs unchanged)."""
    outputs, report, engine = cssp(gen_graph(spec), sources, trace=True)
    assert _sha256(repr(sorted(outputs.items()))) == outputs_sha
    assert _sha256(report.to_json()) == report_sha
    assert (report.delivered, report.lost, report.max_channel_demand,
            report.max_bits) == traffic
    assert len(engine.trace_log) == n_events
    assert _sha256(repr(engine.trace_log)) == trace_sha


def test_congest_windows_leave_schedules_always(monkeypatch):
    """The listening windows `CsspProgram` declares are no-ops on a congest
    node: each node is always awake before it declares any, and every
    schedule stays `always`, with no span or component kept."""
    log = record(monkeypatch)
    g = gen_graph(GraphSpec("random-gnm", 16, seed=3, m=40,
                            weight_mode="uniform", max_w=9))
    _, _, engine = cssp(g, {0, 7})
    assert all(log[v].always_at == 0 for v in range(g.n))
    assert any(op[0] == "window" for v in range(g.n) for op in log[v].ops)
    for sched in engine._schedules.values():
        assert sched.always
        assert sched.starts == [] and not sched.comps
