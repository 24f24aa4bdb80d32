import random

from sleepysim.graph import Graph, GraphSpec, gen_graph
from sleepysim.oracle import (
    INF, bellman_ford, check_cover, check_decomposition, check_layered,
    dijkstra,
)
from sleepysim.structures import ClusterData, Cover, Decomposition, LayeredCover


def p3():
    return Graph.build(3, [(0, 1, 2), (1, 2, 3)])


def test_dijkstra_p3():
    assert dijkstra(p3(), [0]) == {0: 0, 1: 2, 2: 5}


def test_sources_are_zero():
    g = gen_graph(GraphSpec("random-gnm", 20, seed=3, m=40, weight_mode="uniform", max_w=9))
    d = dijkstra(g, [4, 11])
    assert d[4] == 0 and d[11] == 0


def test_disconnected_is_inf():
    g = Graph.build(3, [(0, 1, 1)])
    assert dijkstra(g, [0])[2] is INF


def test_offset_sources():
    g = Graph.build(3, [(0, 1, 2), (1, 2, 3)])
    d = dijkstra(g, {1: 5})
    assert d == {0: 7, 1: 5, 2: 8}


def test_dijkstra_matches_bellman_ford():
    rng = random.Random(7)
    for trial in range(25):
        n = rng.randint(2, 40)
        m = min(n * (n - 1) // 2, rng.randint(n - 1, 3 * n))
        g = gen_graph(GraphSpec("random-gnm", n, seed=trial, m=m,
                                weight_mode="zero-heavy", max_w=50))
        srcs = rng.sample(range(n), rng.randint(1, max(1, n // 4)))
        assert dijkstra(g, srcs) == bellman_ford(g, srcs)


def _singleton_cluster(v, cid=0):
    return ClusterData(id=cid, members={v}, tree={v: (None, 0, True)})


def test_check_cover_trivial():
    g = Graph.build(1, [])
    cover = Cover(scale=1, clusters=[_singleton_cluster(0)])
    assert check_cover(g, cover, 1, 4, 4, 4) == []


def test_check_cover_missing_ball():
    g = Graph.build(2, [(0, 1, 1)])
    cover = Cover(scale=1, clusters=[_singleton_cluster(0), _singleton_cluster(1, 1)])
    out = check_cover(g, cover, 1, 4, 4, 4)
    assert any(v["kind"] == "cover-ball" for v in out)


def test_check_cover_ball_reaches_exactly_d():
    """Clause (c) asks for every node within d hops, and no farther one."""
    g = Graph.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    cover = Cover(scale=1, clusters=[
        ClusterData(id=0, members={0, 1, 2}, tree={0: (None, 0, True),
                                                   1: (0, 1, True), 2: (1, 2, True)}),
        ClusterData(id=1, members={1, 2, 3}, tree={1: (None, 0, True),
                                                   2: (1, 1, True), 3: (2, 2, True)}),
    ])
    assert check_cover(g, cover, 1, 4, 4, 4) == []
    out = check_cover(g, cover, 2, 4, 4, 4)
    assert sorted(v["subjects"] for v in out if v["kind"] == "cover-ball") == [[1], [2]]


def test_check_cover_bad_tree_depth():
    g = Graph.build(2, [(0, 1, 1)])
    cl = ClusterData(id=0, members={0, 1}, tree={0: (None, 0, True), 1: (0, 2, True)})
    out = check_cover(g, Cover(scale=1, clusters=[cl]), 1, 8, 8, 8)
    assert any(v["kind"] == "tree-depth" for v in out)


def test_check_decomposition_trivial_and_violations():
    g = Graph.build(3, [])
    colors = [[_singleton_cluster(v, v) for v in range(3)]]
    d = Decomposition(separation=1, colors=colors, node_color={0: 0, 1: 0, 2: 0})
    assert check_decomposition(g, d, 1, 0, 2) == []

    g2 = Graph.build(2, [(0, 1, 1)])
    d2 = Decomposition(
        separation=1,
        colors=[[_singleton_cluster(0, 0), _singleton_cluster(1, 1)]],
        node_color={0: 0, 1: 0},
    )
    out = check_decomposition(g2, d2, 1, 1, 2)
    assert any(v["kind"] == "decomp-separation" for v in out)

    d3 = Decomposition(
        separation=1,
        colors=[[_singleton_cluster(0, 0)], [ClusterData(1, {0, 1}, {
            0: (None, 0, True), 1: (0, 1, True)})]],
        node_color={0: 0, 1: 1},
    )
    out = check_decomposition(g2, d3, 0, 2, 4)
    assert any(v["kind"] == "decomp-partition" for v in out)


def test_check_layered():
    g = Graph.build(1, [])
    lvl0 = Cover(scale=1, clusters=[_singleton_cluster(0, 0)])
    lvl1 = Cover(scale=2, clusters=[_singleton_cluster(0, 10)])
    lc = LayeredCover(base=2, levels=[lvl0, lvl1], parent_of={(0, 0): 10})
    assert check_layered(g, lc, 2, 2) == []

    lc_dangling = LayeredCover(base=2, levels=[lvl0, lvl1], parent_of={(0, 0): 99})
    assert any(v["kind"] == "layered-ref" for v in check_layered(g, lc_dangling, 2, 2))

    lc_missing = LayeredCover(base=2, levels=[lvl0, lvl1], parent_of={})
    assert any(v["kind"] == "layered-parent" for v in check_layered(g, lc_missing, 2, 2))

    g2 = Graph.build(2, [(0, 1, 1)])
    l0 = Cover(scale=1, clusters=[_singleton_cluster(0, 0)])
    l1 = Cover(scale=2, clusters=[_singleton_cluster(0, 10)])
    lc_contain = LayeredCover(base=2, levels=[l0, l1], parent_of={(0, 0): 10})
    assert any(v["kind"] == "layered-contain" for v in check_layered(g2, lc_contain, 2, 2))
