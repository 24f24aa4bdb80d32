"""Differential test of `energy_bfs.full_bfs` against `oracle.hop_distances`.

Inputs cover the degenerate corners: n from 1 to 10, edgeless and
disconnected graphs drawn as arbitrary edge sets, the path, grid and gnm
families, and any number of sources from one to all. A run must finish and
lose no protocol-critical message, and no channel of the BFS phase may
carry more messages in a round than the width computed from its stack.
A third test draws larger gnm graphs and grids, whose level 0 often spans
while it also holds clusters that do not, and checks the stack the run
stopped at as well as its outputs. A fourth draws requested bases and
thresholds, which must run exact or raise ValueError.
"""

import pytest

from sleepysim.energy_bfs import _bfs_width, full_bfs
from sleepysim.graph import Graph, GraphSpec, gen_graph
from sleepysim.netdecomp import promised_bounds
from sleepysim.oracle import INF, check_cover, check_layered, hop_distances
from sleepysim.trace_checks import check_relevance, check_sleep_safety

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example, settings = hypothesis.given, hypothesis.example, hypothesis.settings
assume = hypothesis.assume


@st.composite
def instances(draw):
    """(graph, sources)."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    family = draw(st.sampled_from(["edges", "path", "grid", "random-gnm"]))
    if family == "edges":
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        graph = Graph.build(n, [(u, v, 1) for u, v in chosen])
    else:
        m = draw(st.integers(0, len(pairs))) if family == "random-gnm" else None
        graph = gen_graph(GraphSpec(family, n, seed=draw(st.integers(0, 1 << 16)),
                                    m=m))
    sources = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return graph, sources


@settings(max_examples=100)
@given(instances())
@example((Graph.build(1, []), {0}))
@example((Graph.build(4, []), {1}))
@example((Graph.build(5, [(0, 1, 1), (2, 3, 1), (3, 4, 1)]), {4}))
@example((gen_graph(GraphSpec("grid", 10)), set(range(10))))
def test_matches_hop_distances(instance):
    graph, sources = instance
    outputs, report, *_ = full_bfs(graph, sources, trace=False)
    assert report.status == "done"
    assert report.critical_losses == []
    assert outputs == hop_distances(graph, sources)


@settings(max_examples=150)
@given(instances(), st.sampled_from([None, 2, 4, 8]))
@example((gen_graph(GraphSpec("path", 10)), {0, 9}), 2)
@example((Graph.build(6, [(0, 1, 1), (1, 2, 1), (3, 4, 1)]), {0, 5}), 4)
def test_phase_channels_fit_the_computed_width(instance, base):
    """Exact, nothing lost, and the BFS phase's busiest channel within the
    width `_bfs_width` computes from the stack alone; also at requested
    bases, whose stacks may hold top-level clusters that do not span."""
    graph, sources = instance
    try:
        outputs, report, engine, layered, *_ = full_bfs(
            graph, sources, base=base, trace=False)
    except ValueError:  # a requested base that cannot link the stack
        assume(False)
    assert outputs == hop_distances(graph, sources)
    assert report.lost == 0
    assert engine.config.width == _bfs_width(graph.n, layered)
    assert engine._report.max_channel_demand <= engine.config.width


@st.composite
def level0_instances(draw):
    """(graph, sources): gnm with n = 8..96 and m = 2n or 3n, or a grid."""
    n = draw(st.integers(8, 96))
    if draw(st.booleans()):
        spec = GraphSpec("random-gnm", n, seed=draw(st.integers(0, 1 << 16)),
                         m=draw(st.sampled_from([2, 3])) * n)
    else:
        spec = GraphSpec("grid", n)
    sources = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4))
    return gen_graph(spec), sources


@settings(max_examples=25)
@given(level0_instances())
@example((gen_graph(GraphSpec("grid", 256, seed=1)), {0}))
@example((gen_graph(GraphSpec("path", 65)), {0}))
@example((gen_graph(GraphSpec("random-tree", 96, seed=3)), {0, 5, 17, 60}))
def test_level0_and_forest_stops_stay_exact(instance):
    """Whatever level the growth stops at (a level 0 that spans, kept to its
    spanning clusters in the phase; the spanning forest's tree, as on path65
    and random-tree96; or a built cover), the run is exact and loses
    nothing, every cluster it reaches is relevant, every level meets the
    cover conditions at the promised bounds, and the stack meets the parent
    conditions."""
    graph, sources = instance
    outputs, report, _, layered, *_ = full_bfs(graph, sources, trace=False)
    assert outputs == hop_distances(graph, sources)
    assert report.lost == 0
    farthest = max(h for h in outputs.values() if h is not INF)
    ok, detail = check_relevance(graph, layered, sources, outputs, farthest)
    assert ok, detail
    for cover in layered.levels:
        assert check_cover(graph, cover, cover.scale,
                           *promised_bounds(graph.n)) == []
    assert check_layered(graph, layered, layered.base**layered.top,
                         layered.base) == []


@st.composite
def base_instances(draw):
    """(graph, base, threshold): a small path, cycle, grid, random tree,
    gnm (m = 2n) or barbell graph, a base from 1 to 8 and a threshold of
    None or 1 to 6."""
    family = draw(st.sampled_from(
        ["path", "cycle", "grid", "random-tree", "random-gnm", "barbell"]))
    n = draw(st.integers(3 if family == "cycle" else 1, 64))
    m = min(2 * n, n * (n - 1) // 2) if family == "random-gnm" else None
    graph = gen_graph(GraphSpec(family, n, seed=draw(st.integers(0, 3)), m=m))
    return (graph, draw(st.integers(1, 8)),
            draw(st.none() | st.integers(1, 6)))


@settings(max_examples=150)
@given(base_instances())
@example((gen_graph(GraphSpec("random-tree", 96, seed=0)), 2, None))
@example((gen_graph(GraphSpec("random-tree", 96, seed=3)), 2, None))
def test_a_requested_base_is_exact_or_a_bad_input(instance):
    """A requested base either runs exact, every lost frontier message a
    duplicate, or is rejected as a bad input with ValueError: no stretch or
    link guard of the stack turns it into a simulation error. Base 2 on
    random-tree96 (seeds 0 and 3) fails the stretch guard at scale 4."""
    graph, base, threshold = instance
    try:
        outputs, report, *_ = full_bfs(graph, {0}, threshold=threshold,
                                       base=base, trace=False)
    except ValueError:
        return
    dist = hop_distances(graph, [0])
    limit = INF if threshold is None else threshold
    assert outputs == {v: d if d <= limit else INF for v, d in dist.items()}
    ok, detail = check_sleep_safety(outputs, report)
    assert ok, detail
