import pytest

from sleepysim.graph import Graph, GraphSpec, GraphError, gen_graph, load_graph, save_graph, validate


def test_path_family_fixed_edges():
    g = gen_graph(GraphSpec("path", 3, seed=7))
    assert g.edges == ((0, 1, 1), (1, 2, 1))


def test_cycle_family_degrees():
    g = gen_graph(GraphSpec("cycle", 4, seed=0))
    assert g.m == 4
    assert all(len(g.neighbors(v)) == 2 for v in range(4))


def test_gnm_deterministic():
    spec = GraphSpec("random-gnm", 50, seed=42, m=150, weight_mode="uniform", max_w=125000)
    g1 = gen_graph(spec)
    g2 = gen_graph(spec)
    assert g1.edges == g2.edges
    assert validate(g1) == []
    other = gen_graph(GraphSpec("random-gnm", 50, seed=43, m=150,
                                weight_mode="uniform", max_w=125000))
    assert other.edges != g1.edges


@pytest.mark.parametrize("family", ["path", "cycle", "grid", "random-tree", "barbell"])
def test_families_connected(family):
    from sleepysim.oracle import hop_distances, INF

    g = gen_graph(GraphSpec(family, 23, seed=5))
    dist = hop_distances(g, [0])
    assert all(dist[v] is not INF for v in range(g.n))


def test_load_save_roundtrip():
    text = "3 2\n0 1 5\n1 2 3\n"
    g = load_graph(text)
    assert g.n == 3 and g.edges == ((0, 1, 5), (1, 2, 3))
    assert save_graph(g) == text
    assert load_graph(save_graph(g)) == g


def test_load_comments_ignored():
    g = load_graph("# hi\n2 1\n# mid\n0 1 2\n")
    assert g.edges == ((0, 1, 2),)


def test_load_weight_out_of_range():
    n = 3
    w = n**3 + 1
    with pytest.raises(GraphError, match="weight"):
        load_graph(f"3 2\n0 1 {w}\n1 2 3\n")


def test_load_duplicate_edge():
    with pytest.raises(GraphError, match="duplicate"):
        load_graph("3 2\n0 1 5\n1 0 3\n")


def test_load_duplicate_edge_on_last_of_many_lines():
    n = 3001
    lines = [f"{n} {n}", "# a path, then its last edge again"]
    lines += [f"{i} {i + 1} 1" for i in range(n - 1)]
    lines.append(f"{n - 1} {n - 2} 4")
    with pytest.raises(GraphError) as err:
        load_graph("\n".join(lines) + "\n")
    assert str(err.value) == f"line {len(lines)}: duplicate edge ({n - 1},{n - 2})"


def test_validate_violations():
    assert validate(Graph.build(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])) == []
    bad = Graph(3, ((2, 2, 1),))
    assert any("self-loop" in v for v in validate(bad))
    dup = Graph(3, ((0, 1, 1), (0, 1, 2)))
    assert any("duplicate" in v for v in validate(dup))


def test_gen_rejects_bad_spec():
    with pytest.raises(GraphError):
        gen_graph(GraphSpec("hexagon", 4))
    with pytest.raises(GraphError):
        gen_graph(GraphSpec("path", 0))


def test_zero_heavy_weights():
    g = gen_graph(GraphSpec("random-gnm", 30, seed=1, m=60,
                            weight_mode="zero-heavy", max_w=9))
    ws = [w for (_, _, w) in g.edges]
    assert any(w == 0 for w in ws)
    assert all(0 <= w <= 9 for w in ws)
