"""Differential test of `apsp_random_delay` against per-source Dijkstra.

Inputs cover the degenerate corners: n from 1 to 8, edgeless and
disconnected graphs, weights from 1 up to n**3, and start delays drawn from
[0, delta) for the default delta = n, for delta = 1 (every instance starts
in round 1 and channels are oversubscribed) and for delta up to 2n.
"""

import pytest

from sleepysim.apsp_sched import apsp_random_delay
from sleepysim.graph import Graph
from sleepysim.oracle import dijkstra

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example, settings = hypothesis.given, hypothesis.example, hypothesis.settings


@st.composite
def instances(draw):
    """(graph, delta, seed)."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weight = st.one_of(st.just(1), st.integers(1, n**3), st.just(n**3))
    edges = [(u, v, draw(weight)) for u, v in chosen]
    delta = draw(st.one_of(st.none(), st.just(1), st.integers(1, 2 * n)))
    return Graph.build(n, edges), delta, draw(st.integers(0, 1 << 16))


@settings(max_examples=100)
@given(instances())
@example((Graph.build(1, []), None, 0))
@example((Graph.build(4, []), 1, 0))
@example((Graph.build(5, [(0, 1, 3), (2, 3, 1), (3, 4, 125)]), None, 3))
@example((Graph.build(5, [(0, 1, 3), (2, 3, 1), (3, 4, 125)]), 1, 3))
def test_matches_dijkstra(instance):
    graph, delta, seed = instance
    matrix, report, _, delays = apsp_random_delay(graph, delta=delta, seed=seed)
    assert report.status == "done"
    assert report.lost == 0
    assert all(0 <= d < max(1, graph.n if delta is None else delta)
               for d in delays.values())
    assert matrix == {(s, v): d for s in range(graph.n)
                      for v, d in dijkstra(graph, [s]).items()}
