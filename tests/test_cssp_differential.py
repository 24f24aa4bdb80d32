"""Differential test of both CSSP flavors against `oracle.dijkstra`.

Inputs cover the degenerate corners: n from 1 to 10, edgeless and
disconnected graphs, zero weights, weights up to n**3 (the largest a graph
may carry) and any number of sources from one to all. A sleeping run must
also lose no protocol-critical message, and on the same input put the same
messages on every edge as a congest run while losing none at all.
"""

import pytest

from sleepysim.congest_cssp import cssp
from sleepysim.energy_cssp import cssp_energy
from sleepysim.graph import Graph
from sleepysim.oracle import dijkstra

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example, settings = hypothesis.given, hypothesis.example, hypothesis.settings


PATH10 = Graph.build(10, [(i, i + 1, 1) for i in range(9)])
STAR10 = Graph.build(10, [(0, i, 1) for i in range(1, 10)])


@st.composite
def instances(draw):
    """(graph, sources)."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weight = st.one_of(st.just(0), st.integers(0, n**3), st.just(n**3))
    edges = [(u, v, draw(weight)) for u, v in chosen]
    sources = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return Graph.build(n, edges), sources


@pytest.mark.parametrize("run", [cssp, cssp_energy], ids=["congest", "energy"])
@settings(max_examples=100)
@given(instances())
@example((Graph.build(1, []), {0}))
@example((Graph.build(4, []), {1}))
@example((Graph.build(3, [(0, 1, 0), (1, 2, 0)]), {2}))
@example((Graph.build(4, [(0, 1, 64), (2, 3, 1)]), {0, 1, 2, 3}))
# the near child's vote at the extremes of its cap: on a unit path every
# node picks its edge toward node 0, so the tree has height N - 1; a star's
# has height 1
@example((PATH10, {0}))
@example((STAR10, {0}))
def test_matches_dijkstra(run, instance):
    graph, sources = instance
    outputs, report, _ = run(graph, sources, trace=False)
    assert report.status == "done"
    assert report.critical_losses == []
    assert outputs == dijkstra(graph, sources)


@settings(max_examples=100)
@given(instances())
@example((Graph.build(1, []), {0}))
@example((Graph.build(4, [(0, 1, 64), (2, 3, 1)]), {0}))
@example((PATH10, {0}))
@example((STAR10, {0}))
def test_sleeping_traffic_matches_congest(instance):
    graph, sources = instance
    _, congest, _ = cssp(graph, sources, trace=False)
    _, sleeping, _ = cssp_energy(graph, sources, trace=False)
    assert sleeping.congestion == congest.congestion
    assert sleeping.lost == 0
