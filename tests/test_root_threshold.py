"""Differential test of the root frame's threshold.

The root frame of each component runs its cutter at
max(2, min(D_top, pow2(2h + 1))), where h is the weighted height of the
component's spanning tree; the root learns h on the census that rides on
the Boruvka phase that finds no outgoing edge. Inputs are disconnected
graphs whose components have different heights: isolated nodes (h = 0, the
clamp at 2), single edges, zero weights (h in the lifted graph) and sources
in several components. Both CSSP flavors and APSP must
stay exact, pass the cutter-contract and cut-composition audits, and set
every root threshold to the value computed here from `boruvka_forest`.
"""

import pytest

from sleepysim import congest_cssp
from sleepysim.apsp_sched import apsp_random_delay
from sleepysim.congest_cssp import (
    boruvka_forest, cssp, lift_zero_weights, pow2_at_least,
)
from sleepysim.energy_cssp import cssp_energy
from sleepysim.graph import Graph
from sleepysim.oracle import dijkstra
from sleepysim.trace_checks import check_cut_composition, check_cutter_contract

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example, settings = hypothesis.given, hypothesis.example, hypothesis.settings


@st.composite
def components(draw):
    """(graph, sources): components of 1 to 5 nodes, each a random tree plus
    at most one more edge, on shuffled node ids."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    n = sum(sizes)
    ids = draw(st.permutations(range(n)))
    weight = st.one_of(st.just(0), st.integers(0, 60))
    edges, start = [], 0
    for size in sizes:
        nodes = ids[start:start + size]
        start += size
        pairs = set()
        for i in range(1, size):
            pairs.add(frozenset((nodes[i], nodes[draw(st.integers(0, i - 1))])))
        if size >= 3 and draw(st.booleans()):
            pairs.add(frozenset(draw(st.sets(st.sampled_from(nodes),
                                             min_size=2, max_size=2))))
        edges += [(*sorted(p), draw(weight)) for p in sorted(pairs, key=sorted)]
    sources = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return Graph.build(n, edges), sources


def expected_thresholds(graph, D_top):
    """Each node's root threshold, from the weighted height of its
    component's spanning tree on the host. A root frame with threshold 1 or
    a single node in the graph builds no forest and keeps D_top."""
    forest, _, _ = boruvka_forest(graph)
    weight = {(u, v): w for u, v, w in graph.edges}
    depth = {}

    def weighted_depth(v):
        if v not in depth:
            p = forest.parent[v]
            depth[v] = 0 if p is None else (
                weighted_depth(p) + weight[min(v, p), max(v, p)])
        return depth[v]

    height = {}
    for v in range(graph.n):
        c = forest.component[v]
        height[c] = max(height.get(c, 0), weighted_depth(v))
    if D_top == 1 or graph.n == 1:
        return {v: D_top for v in range(graph.n)}
    top = {c: max(2, min(D_top, pow2_at_least(2 * h + 1)))
           for c, h in height.items()}
    return {v: top[forest.component[v]] for v in range(graph.n)}


def check_run(work, trace, expected):
    """Audits pass and every root frame ran at its expected threshold."""
    for audit in (check_cutter_contract, check_cut_composition):
        ok, detail = audit(work, trace)
        assert ok, detail
    roots = {d["node"]: d["D"] for kind, d in trace
             if kind == "frame" and d["path"] == 1}
    assert roots == expected


def check_cssp(run, graph, sources):
    outputs, report, engine = run(graph, sources, trace=True)
    assert report.status == "done"
    assert outputs == dijkstra(graph, sources)
    zero = any(w == 0 for _, _, w in graph.edges)
    work = lift_zero_weights(graph) if zero else graph
    D_top = pow2_at_least(max(1, work.n * work.max_weight))
    check_run(work, engine.trace_log, expected_thresholds(work, D_top))


def check_apsp(graph):
    graph = graph.reweighted(lambda w: max(1, w))  # APSP takes weights >= 1
    matrix, report, log, _ = apsp_random_delay(graph, seed=1, trace=True)
    assert report.status == "done"
    assert matrix == {(s, v): d for s in range(graph.n)
                      for v, d in dijkstra(graph, {s}).items()}
    D_top = pow2_at_least(max(1, graph.n * graph.max_weight))
    expected = expected_thresholds(graph, D_top)
    for s in range(graph.n):
        check_run(graph, [(k, d) for k, d in log if d["inst"] == s], expected)


EXAMPLES = [
    (Graph.build(1, []), {0}),
    (Graph.build(3, []), {1}),  # isolated nodes only: D_top is 1
    (Graph.build(4, [(0, 1, 5)]), {0, 3}),  # an isolated node beside an edge
    (Graph.build(5, [(0, 1, 0), (1, 2, 0), (3, 4, 7)]), {2, 3}),
    (Graph.build(7, [(0, 1, 60), (1, 2, 60), (3, 4, 1), (5, 6, 9)]), {0, 3, 6}),
]


@settings(max_examples=100)
@given(components())
@example(EXAMPLES[0])
@example(EXAMPLES[1])
@example(EXAMPLES[2])
@example(EXAMPLES[3])
@example(EXAMPLES[4])
def test_root_threshold_both_flavors_and_apsp(instance):
    graph, sources = instance
    check_cssp(cssp, graph, sources)
    check_cssp(cssp_energy, graph, sources)
    check_apsp(graph)


@pytest.mark.parametrize("check", [
    lambda: check_cssp(cssp, *EXAMPLES[4]),
    lambda: check_cssp(cssp_energy, *EXAMPLES[4]),
    lambda: check_apsp(EXAMPLES[4][0]),
], ids=["congest", "energy", "apsp"])
def test_planted_height_bound_fails(monkeypatch, check):
    """A root threshold of pow2(h + 1), which ignores that a distance may
    run up the tree and down again, is caught."""
    monkeypatch.setattr(
        congest_cssp, "root_threshold",
        lambda D_top, h: max(2, min(D_top, pow2_at_least(h + 1))))
    with pytest.raises(AssertionError):
        check()
