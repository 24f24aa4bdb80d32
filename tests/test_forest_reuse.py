"""Differential test of spanning-tree reuse in near children.

A near child (path 2p) whose nodes are the whole of its parent frame's
component takes the parent's tree and census instead of building its own;
the decision is a convergecast over the parent's tree in the child's phase
0. Inputs are random gnm graphs and disconnected graphs of small
components: isolated nodes, single edges, zero weights and sources in
several components. Both CSSP flavors and APSP must stay exact, the sleeping
flavor must lose no message, the cutter-contract and recursion-accounting
audits must pass, and a child must reuse exactly when its node set, read
from the `frame` events, equals its parent frame's component, read from the
graph's connectivity. A reused tree must span exactly that set.
"""

import pytest

from sleepysim.apsp_sched import apsp_random_delay
from sleepysim.congest_cssp import CsspProgram, cssp, lift_zero_weights
from sleepysim.energy_cssp import cssp_energy
from sleepysim.graph import Graph, GraphSpec, gen_graph
from sleepysim.oracle import dijkstra
from sleepysim.trace_checks import (
    check_cutter_contract, check_recursion_accounting,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example, settings = hypothesis.given, hypothesis.example, hypothesis.settings


@st.composite
def components(draw):
    """(graph, sources): components of 1 to 6 nodes, each a random tree plus
    at most one more edge, on shuffled node ids."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
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
    sources = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    return Graph.build(n, edges), sources


@st.composite
def gnm(draw):
    """(graph, sources): a random gnm graph of 6 to 14 nodes."""
    n = draw(st.integers(6, 14))
    spec = GraphSpec("random-gnm", n, seed=draw(st.integers(0, 999)),
                     m=draw(st.integers(n // 2, 2 * n)),
                     weight_mode=draw(st.sampled_from(["uniform", "zero-heavy"])),
                     max_w=draw(st.sampled_from([1, 9, 60])))
    sources = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    return gen_graph(spec), sources


@pytest.fixture
def trees(monkeypatch):
    """Record each frame's tree as its cutter starts:
    (inst, node, path) -> (parent, children, depth, size)."""
    seen = {}
    start = CsspProgram._start_cutter

    def recording(self, api, f):
        seen[getattr(self, "source", None), self.node, f.path] = (
            f.parent, tuple(f.children), f.depth, f.size)
        start(self, api, f)

    monkeypatch.setattr(CsspProgram, "_start_cutter", recording)
    return seen


def _parts(graph, nodes):
    """node -> its component (frozenset) in the subgraph induced by nodes."""
    adj = graph.adjacency()
    part = {}
    for v in sorted(nodes):
        if v in part:
            continue
        comp, stack = {v}, [v]
        while stack:
            for u, _ in adj[stack.pop()]:
                if u in nodes and u not in comp:
                    comp.add(u)
                    stack.append(u)
        comp = frozenset(comp)
        for u in comp:
            part[u] = comp
    return part


def check_reuse(graph, trace, trees):
    """A near child reuses exactly when it has its parent frame's whole
    component (a child at threshold 1 or on one node builds nothing and
    reuses nothing), and a reused tree spans exactly that set. Returns the
    number of reused frames."""
    members, cuts = {}, {}
    for kind, d in trace:
        if kind == "frame":
            members.setdefault((d.get("inst"), d["path"]), set()).add(d["node"])
        elif kind == "cutter":
            cuts[d.get("inst"), d["node"], d["path"]] = d
    reused = set()
    for (inst, path), nodes in sorted(members.items(), key=repr):
        if path == 1 or path % 2:
            continue
        whole = _parts(graph, members[inst, path // 2])
        for v in sorted(nodes):
            cut = cuts.get((inst, v, path))
            if cut is None:
                continue  # a base-case frame
            comp = whole[v]
            expected = len(comp) > 1 and comp <= nodes
            assert cut["reuse"] == expected, (inst, path, v, sorted(comp))
            if expected:
                reused.add((inst, path, comp))
    for inst, path, comp in reused:
        assert_spans(graph, comp, {v: trees[inst, v, path] for v in comp})
    return len(reused)


def assert_spans(graph, comp, tree):
    """tree (node -> (parent, children, depth, size)) is one spanning tree of
    comp over graph edges, with consistent children, depths and sizes."""
    nbrs = {v: {u for u, _ in graph.neighbors(v)} for v in comp}
    roots = [v for v, (p, _, _, _) in tree.items() if p is None]
    assert len(roots) == 1
    for v, (p, kids, depth, size) in tree.items():
        assert size == len(comp)
        assert set(kids) <= nbrs[v] & comp
        for c in kids:
            assert tree[c][0] == v
        if p is not None:
            assert p in nbrs[v] & comp and v in tree[p][1]
            assert depth == tree[p][2] + 1
        else:
            assert depth == 0
    reach, stack = set(roots), list(roots)
    while stack:
        for c in tree[stack.pop()][1]:
            reach.add(c)
            stack.append(c)
    assert reach == set(comp)


def check_cssp(run, graph, sources, trees):
    trees.clear()
    outputs, report, engine = run(graph, sources, trace=True)
    assert report.status == "done"
    assert report.lost == 0
    assert outputs == dijkstra(graph, sources)
    zero = any(w == 0 for _, _, w in graph.edges)
    work = lift_zero_weights(graph) if zero else graph
    trace = engine.trace_log
    for ok, detail in (check_cutter_contract(work, trace),
                       check_recursion_accounting(trace, work.n)):
        assert ok, detail
    return check_reuse(work, trace, trees)


def check_apsp(graph, trees):
    graph = graph.reweighted(lambda w: max(1, w))  # APSP takes weights >= 1
    trees.clear()
    matrix, report, log, _ = apsp_random_delay(graph, seed=1, trace=True)
    assert report.status == "done"
    assert report.lost == 0
    assert matrix == {(s, v): d for s in range(graph.n)
                      for v, d in dijkstra(graph, {s}).items()}
    ok, detail = check_recursion_accounting(log, graph.n)
    assert ok, detail
    for s in range(graph.n):
        ok, detail = check_cutter_contract(
            graph, [(k, d) for k, d in log if d["inst"] == s])
        assert ok, detail
    return check_reuse(graph, log, trees)


# Some near children here lack their parent frame's tree root (it is not
# near), and others lack another node of the component.
FALLBACK = (gen_graph(GraphSpec("random-gnm", 5, seed=4, m=5,
                                weight_mode="uniform", max_w=9)), {0})

EXAMPLES = [
    (Graph.build(1, []), {0}),
    (Graph.build(4, [(0, 1, 5)]), {0, 3}),  # an isolated node beside an edge
    (Graph.build(5, [(0, 1, 0), (1, 2, 0), (3, 4, 7)]), {2, 3}),
    (Graph.build(7, [(0, 1, 60), (1, 2, 60), (3, 4, 1), (5, 6, 9)]), {0, 3, 6}),
    FALLBACK,
]


# the recorder is cleared before every run, so one per test serves all inputs
@settings(max_examples=100,
          suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@given(st.one_of(components(), gnm()))
@example(EXAMPLES[0])
@example(EXAMPLES[1])
@example(EXAMPLES[2])
@example(EXAMPLES[3])
@example(EXAMPLES[4])
def test_reuse_exactly_when_the_component_is_kept(trees, instance):
    graph, sources = instance
    check_cssp(cssp, graph, sources, trees)
    check_cssp(cssp_energy, graph, sources, trees)
    check_apsp(graph, trees)


def test_fallback_when_the_tree_root_is_not_near(trees):
    """A near child that lacks its parent frame's tree root hears no
    broadcast and builds its own tree, while other children reuse."""
    graph, sources = FALLBACK
    assert check_cssp(cssp, graph, sources, trees) > 0
    members = {}
    for inst, v, path in trees:
        members.setdefault(path, set()).add(v)
    rootless = []
    for path, nodes in members.items():
        if path == 1 or path % 2:
            continue
        whole = _parts(graph, members[path // 2])
        for v in members[path // 2]:
            kept = whole[v] & nodes
            if trees[None, v, path // 2][0] is None and kept and v not in kept:
                rootless.append((path, v))
    assert rootless


def test_planted_reuse_without_every_node_fails(trees, monkeypatch):
    """A root that broadcasts reuse without waiting for its subtrees turns
    it on in a child that lacks some node of the component: caught."""
    same_up = CsspProgram._same_up

    def plant(self, api, f):
        if self.frames[f.path // 2].parent is None:
            self._on_sameb(api, f)
        else:
            same_up(self, api, f)

    monkeypatch.setattr(CsspProgram, "_same_up", plant)
    graph, sources = FALLBACK
    with pytest.raises(AssertionError):
        check_cssp(cssp, graph, sources, trees)
    # the reuse check flags it by itself, whether or not the run finishes
    _, _, engine = cssp(graph, sources, trace=True)
    with pytest.raises(AssertionError, match=r"^\(None, \d+, \d+"):
        check_reuse(graph, engine.trace_log, trees)


@pytest.mark.parametrize("run, rounds", [(cssp, 21621), (cssp_energy, 23183)],
                         ids=["congest", "energy"])
def test_a_child_that_does_not_reuse_adds_no_round(monkeypatch, run, rounds):
    """With the reuse broadcast never sent, every near child builds its own
    tree, and a run takes exactly the rounds of one with no vote at all
    (gnm64, m = 192, weights 1..60, seed 0, from node 0). The sleeping pin
    moved 37,903 -> 37,839 when completion pipes went to power-of-two
    periods, which changes when completion messages go; both moved (to
    21,621 and 23,183) when a component began to start its cutter in the
    Boruvka phase that finds it whole, and the far child's start lead
    began to follow the pipe period."""
    monkeypatch.setattr(CsspProgram, "_on_sameb", lambda self, api, f: None)
    g = gen_graph(GraphSpec("random-gnm", 64, seed=0, m=192,
                            weight_mode="uniform", max_w=60))
    outputs, report, engine = run(g, {0}, trace=True)
    assert outputs == dijkstra(g, {0})
    assert report.rounds == rounds
    assert report.lost == 0
    assert not any(d["reuse"] for kind, d in engine.trace_log if kind == "cutter")
    monkeypatch.setattr(CsspProgram, "_same_up", lambda self, api, f: None)
    _, silent, _ = run(g, {0}, trace=False)
    assert silent.rounds == rounds
