import hashlib
from collections import Counter

import pytest

from sleepysim import apsp_sched
from sleepysim.apsp_sched import apsp_random_delay, draw_delays
from sleepysim.congest_cssp import CsspProgram, cssp
from sleepysim.graph import Graph, GraphSpec, gen_graph
from sleepysim.oracle import dijkstra


def all_pairs_reference(g):
    out = {}
    for s in range(g.n):
        d = dijkstra(g, [s])
        for v in range(g.n):
            out[(s, v)] = d[v]
    return out


def test_two_nodes():
    g = Graph.build(2, [(0, 1, 5)])
    matrix, report, _, _ = apsp_random_delay(g, seed=1)
    assert matrix[(0, 1)] == 5 and matrix[(1, 0)] == 5
    assert matrix[(0, 0)] == 0


def test_triangle():
    g = Graph.build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 4)])
    matrix, _, _, _ = apsp_random_delay(g, seed=3)
    assert matrix[(0, 1)] == 1
    assert matrix[(1, 2)] == 2
    assert matrix[(0, 2)] == 3


def test_delays_deterministic():
    assert draw_delays(8, 8, 42) == draw_delays(8, 8, 42)
    assert draw_delays(8, 8, 42) != draw_delays(8, 8, 43)


def test_random_graph_matches_oracle():
    g = gen_graph(GraphSpec("random-gnm", 12, seed=7, m=26,
                            weight_mode="uniform", max_w=9))
    matrix, report, _, _ = apsp_random_delay(g, seed=11)
    assert matrix == all_pairs_reference(g)
    assert report.status == "done"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = [
    (GraphSpec("random-gnm", 12, seed=7, m=26, weight_mode="uniform", max_w=9),
     11,
     "99c62ea54bb7ea0bbcc10384d74f26a5c38471ad0bedb70f9c8d47917de5b46a",
     "0a22e18d703f92413b88292cead9360a68b9687474f308ef5ec0e8a9065b7ace"),
    (GraphSpec("random-gnm", 16, seed=3, m=40, weight_mode="uniform", max_w=9),
     5,
     "df5038fd85b7800461337e1fa51ac44a206215f20c43a4170c04e64de3131b34",
     "7cb30f611a31551de9a6068de3fd0c41af9cc7728fcc7cd67191e3ebb9ffd694"),
]


@pytest.mark.parametrize("spec, seed, matrix_sha, report_sha", GOLDEN,
                         ids=["gnm12", "gnm16"])
def test_golden_matrix_and_report(spec, seed, matrix_sha, report_sha):
    """Pinned hashes of the matrix and the report: a change to the
    scheduling that moves any round, energy or congestion figure shows here,
    where a rerun of the same code cannot."""
    matrix, report, _, _ = apsp_random_delay(gen_graph(spec), seed=seed)
    assert _sha256(repr(sorted(matrix.items()))) == matrix_sha
    assert _sha256(report.to_json()) == report_sha


def test_idle_instances_are_not_stepped(monkeypatch):
    """A hosted instance is stepped only in its first round, in a round it
    asked to wake for, or with mail."""
    steps, wakes = [], set()
    woken = Counter()
    on_round, wake_at = CsspProgram.on_round, apsp_sched._SubApi.wake_at

    def counted_on_round(self, api):
        if isinstance(api, apsp_sched._SubApi):
            steps.append((api.host.node, api.inst, api.round, bool(api.inbox)))
        return on_round(self, api)

    def counted_wake_at(self, r):
        wakes.add((self.host.node, self.inst, r))
        woken[self.host.node] += 1
        return wake_at(self, r)

    monkeypatch.setattr(CsspProgram, "on_round", counted_on_round)
    monkeypatch.setattr(apsp_sched._SubApi, "wake_at", counted_wake_at)
    spec, seed = GOLDEN[0][:2]
    g = gen_graph(spec)
    matrix, _, _, delays = apsp_random_delay(g, seed=seed)
    assert matrix == all_pairs_reference(g)
    for node, inst, r, mail in steps:
        assert mail or r == delays[inst] + 1 or (node, inst, r) in wakes
    with_mail = Counter(node for node, _, _, mail in steps if mail)
    per_node = Counter(node for node, _, _, _ in steps)
    for v in range(g.n):
        assert per_node[v] <= with_mail[v] + woken[v] + g.n


def test_negative_round_limit_raises():
    g = Graph.build(2, [(0, 1, 5)])
    with pytest.raises(ValueError, match="round_limit"):
        apsp_random_delay(g, round_limit=-1)


def test_instance_isolation():
    """Removing other instances does not change one instance's outputs."""
    g = gen_graph(GraphSpec("random-gnm", 10, seed=2, m=20,
                            weight_mode="uniform", max_w=5))
    matrix, _, _, _ = apsp_random_delay(g, seed=5)
    for s in (0, 4, 7):
        solo, _, _ = cssp(g, {s}, trace=False)
        assert {v: matrix[(s, v)] for v in range(g.n)} == solo


def test_determinism():
    g = gen_graph(GraphSpec("random-gnm", 9, seed=1, m=16,
                            weight_mode="uniform", max_w=4))
    _, r1, _, d1 = apsp_random_delay(g, seed=9)
    _, r2, _, d2 = apsp_random_delay(g, seed=9)
    assert d1 == d2
    assert r1.to_json() == r2.to_json()


def star_of_paths(arms, arm_len, w=1):
    edges = []
    n = 1 + arms * arm_len
    for a in range(arms):
        prev = 0
        for i in range(arm_len):
            node = 1 + a * arm_len + i
            edges.append((prev, node, w))
            prev = node
    return Graph.build(n, edges)


def test_random_delays_spread_demand():
    g = star_of_paths(4, 3)
    _, spread, _, _ = apsp_random_delay(g, delta=g.n, seed=13)
    _, packed, _, _ = apsp_random_delay(g, delta=1, seed=13)
    assert spread.max_channel_demand <= packed.max_channel_demand
