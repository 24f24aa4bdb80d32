"""Property test of the sleeping decomposition and cover construction.

Inputs: n from 1 to 12, arbitrary edge sets (edgeless and disconnected ones
included) and the path, cycle, grid, tree and gnm families; separation k
from 1 to 6, alone or with a cover expansion to any scale d with k >= 2d.
Every message of the construction is sent critical and a wave message read
after its window closed raises, so a node that stops listening too early
shows as an exception here. A run must lose nothing and meet the bounds the
construction promises, and a cover's spanning flags must be the clusters
whose members are closed under neighbours.
"""

import pytest

from sleepysim.energy_bfs import _spans_component
from sleepysim.graph import Graph, GraphSpec, gen_graph
from sleepysim.netdecomp import (
    build_cover_sync, build_decomposition, promised_bounds,
)
from sleepysim.oracle import check_cover, check_decomposition

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example, settings = hypothesis.given, hypothesis.example, hypothesis.settings


PATH9_EDGE_NODE = Graph.build(
    12, [(v, v + 1, 1) for v in range(8)] + [(9, 10, 1)])


@st.composite
def instances(draw):
    """(graph, k, d or None)."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    family = draw(st.sampled_from(
        ["edges", "path", "cycle", "grid", "random-tree", "random-gnm"]))
    if family == "edges":
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        graph = Graph.build(n, [(u, v, 1) for u, v in chosen])
    else:
        m = draw(st.integers(0, len(pairs))) if family == "random-gnm" else None
        graph = gen_graph(GraphSpec(family, n, seed=draw(st.integers(0, 1 << 16)),
                                    m=m))
    k = draw(st.integers(1, 6))
    d = draw(st.one_of(st.none(), st.integers(1, max(1, k // 2))))
    return graph, k, (d if d is not None and k >= 2 * d else None)


@settings(max_examples=100)
@given(instances())
@example((Graph.build(1, []), 1, None))
@example((Graph.build(1, []), 2, 1))
@example((Graph.build(5, []), 2, 1))
@example((gen_graph(GraphSpec("path", 9)), 2, 1))
@example((gen_graph(GraphSpec("cycle", 12)), 6, 3))
@example((gen_graph(GraphSpec("random-gnm", 7, seed=0)), 5, 2))  # complete K7
# path 9, one edge and an isolated node: components whose forest heights and
# deepest roles differ, so each sizes its windows by its own depths
@example((PATH9_EDGE_NODE, 6, 3))
@example((PATH9_EDGE_NODE, 1, None))
# a cluster holding all but one node of its component, which must not be
# flagged as spanning it
@example((gen_graph(GraphSpec("grid", 9)), 6, 3))
# cover builds at scales 8 to 64, beyond the drawn n <= 12 and outside the
# criterion-6 sweeps: a sparse gnm with 24 clusters, a tree, a barbell, a
# grid, and tree and cycle builds at the largest scales
@example((gen_graph(GraphSpec("random-gnm", 160, seed=4, m=170)), 17, 8))
@example((gen_graph(GraphSpec("random-tree", 160, seed=3)), 17, 8))
@example((gen_graph(GraphSpec("barbell", 120)), 33, 16))
@example((gen_graph(GraphSpec("grid", 256, seed=1)), 17, 8))
@example((gen_graph(GraphSpec("random-tree", 96, seed=3)), 129, 64))
@example((gen_graph(GraphSpec("cycle", 128)), 65, 32))
def test_construction_is_sound(instance):
    graph, k, d = instance
    decomp, cover, report, _ = build_decomposition(graph, k, trace=False,
                                                   expand_to=d)
    assert report.status == "done"
    assert report.lost == 0 and report.critical_losses == []
    assert check_decomposition(graph, decomp, k, *promised_bounds(graph.n, k)) == []
    if d is None:
        assert cover is None
    else:
        assert check_cover(graph, cover, d, *promised_bounds(graph.n)) == []
        assert cover.spanning == {cl.id for cl in cover.clusters
                                  if _spans_component(graph, cl)}


def test_cover_needs_k_at_least_2d():
    """Expansion waves of one color must not meet, so same-color clusters
    must lie more than 2d apart."""
    g = gen_graph(GraphSpec("path", 6))
    with pytest.raises(ValueError, match="needs k >= 4"):
        build_decomposition(g, 3, expand_to=2)


def test_radius_zero_rejected():
    """A radius of 0 used to fail only in the middle of a run, when a node
    read a flood message after its window closed: it is rejected first."""
    g = gen_graph(GraphSpec("path", 9))
    with pytest.raises(ValueError, match="needs k >= 1"):
        build_decomposition(g, 0)
    with pytest.raises(ValueError, match="scale d >= 1"):
        build_cover_sync(g, 0)
