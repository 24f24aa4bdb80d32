import hashlib
import sys
from collections import Counter

import pytest

from sleepysim import apsp_sched
from sleepysim.apsp_sched import apsp_random_delay, draw_delays
from sleepysim.congest_cssp import CsspProgram, cssp
from sleepysim.engine import Engine
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
     "fba22e4f921a82e44023d7a420963dba5bacce88feb8f63a2f357e47b97afd5e"),
    (GraphSpec("random-gnm", 16, seed=3, m=40, weight_mode="uniform", max_w=9),
     5,
     "df5038fd85b7800461337e1fa51ac44a206215f20c43a4170c04e64de3131b34",
     "83c4334baa7f11b190e586531d54b173f607e9004746fcb82afbe9dd79ba8b21"),
]


@pytest.mark.parametrize("spec, seed, matrix_sha, report_sha", GOLDEN,
                         ids=["gnm12", "gnm16"])
def test_golden_matrix_and_report(spec, seed, matrix_sha, report_sha):
    """Pinned hashes of the matrix and the report: a change to the
    scheduling that moves any round, energy or congestion figure shows here,
    where a rerun of the same code cannot. Pinned again when each instance's
    root frame began to run at the component's threshold from the tree
    height (matrices unchanged), again when a near child that keeps its
    parent's whole component began to reuse the parent's spanning tree, and
    again when such a child began to start its cutter in phase 0's merge
    round (fewer rounds; matrices unchanged), and again when the component
    census began to ride on the Boruvka phase that finds no outgoing edge
    and the far child's start lead began to follow the pipe period (fewer
    rounds and messages; matrices unchanged), and again when phase 0's
    sweeps began to run at cap 0, or at the parent tree's hop height in a
    near child (fewer rounds; matrices unchanged; gnm16's channel demand
    4 -> 5)."""
    matrix, report, _, _ = apsp_random_delay(gen_graph(spec), seed=seed)
    assert _sha256(repr(sorted(matrix.items()))) == matrix_sha
    assert _sha256(report.to_json()) == report_sha


GOLDEN_TRAFFIC = [
    # (spec, seed, delta, delivered, lost, max_channel_demand,
    #  trace events and sha256)
    (GOLDEN[0][0], 11, None, 16364, 0, 7,
     2216, "480a228f1b8249169f46264fe7a4a7a68cb88d76437e7fd8394ba923cb2d4246"),
    (GOLDEN[1][0], 5, None, 38853, 0, 5,
     4534, "bf7b974ddf8a5204c05802dbfffa1f53c3c950e68aab18d2c037ee0f5d30d11a"),
    (GraphSpec("random-gnm", 22, seed=402, m=66, weight_mode="uniform",
               max_w=9), 7, 1, 85531, 0, 22,
     8898, "4b3025579e8b4c0d9544204015b833ecef5b13454495a720390ab80939bf5f64"),
]


@pytest.mark.parametrize(
    "spec, seed, delta, delivered, lost, demand, n_events, trace_sha",
    GOLDEN_TRAFFIC, ids=["gnm12", "gnm16", "gnm22-delta1"])
def test_golden_traffic_and_trace(spec, seed, delta, delivered, lost, demand,
                                  n_events, trace_sha):
    """Pinned message counts, channel demand and the trace log: the
    figures `to_json()` leaves out. At delta=1 every instance starts in
    round 1, so a channel's demand (22) passes the width (20). Pinned again
    with the root threshold from the tree height: fewer messages and trace
    events; and again when a near child that keeps its parent's whole
    component began to reuse the parent's spanning tree (fewer messages);
    and again when such a child began to start its cutter in phase 0's
    merge round (the same counts, in earlier rounds); and again when the
    component census began to ride on the Boruvka phase that finds no
    outgoing edge, with the far child's start lead following the pipe
    period (fewer messages; the same trace events, with a `size` field on
    each `cutter` event); and again when phase 0's sweeps began to run at
    cap 0, or at the parent tree's hop height in a near child (the same
    messages and the same events, in earlier rounds and so in another
    order; gnm16's demand 4 -> 5, under its width of 16)."""
    _, report, log, _ = apsp_random_delay(gen_graph(spec), delta=delta,
                                          seed=seed, trace=True)
    assert (report.delivered, report.lost) == (delivered, lost)
    assert report.max_channel_demand == demand
    assert len(log) == n_events
    assert _sha256(repr(log)) == trace_sha


@pytest.mark.parametrize("spec, seed, delta, demand",
                         [(GOLDEN_TRAFFIC[0][0], 11, None, 7),
                          (GOLDEN_TRAFFIC[2][0], 7, 1, 22)],
                         ids=["gnm12", "gnm22-delta1"])
def test_channel_demand_matches_a_count_of_deliveries(monkeypatch, spec, seed,
                                                      delta, demand):
    """The demand composed from the channel logs equals the largest number
    of sends on one directed channel in one round, tallied over what the
    engines of all solo runs deliver."""
    tally = Counter()
    deliver = Engine._deliver

    def counted(self, r, all_sends, width):
        for src, sends in all_sends:
            tally.update((src, dst, r) for dst, _, _ in sends)
        return deliver(self, r, all_sends, width)

    monkeypatch.setattr(Engine, "_deliver", counted)
    _, report, _, _ = apsp_random_delay(gen_graph(spec), delta=delta,
                                        seed=seed, trace=False)
    assert max(tally.values()) == report.max_channel_demand == demand


def test_instances_are_stepped_by_their_host_from_their_delay(monkeypatch):
    """Every step of a recursion instance comes from the node program
    `ApspProgram.on_round`, which is the instance itself, and an instance
    first steps on every node in round delay + 1."""
    first = {}
    host_code = apsp_sched.ApspProgram.on_round.__code__
    on_round = CsspProgram.on_round

    def watched_on_round(self, api):
        caller = sys._getframe(1)
        assert caller.f_code is host_code
        assert caller.f_locals["self"] is self
        first.setdefault((self.node, self.source), api.round)
        return on_round(self, api)

    monkeypatch.setattr(CsspProgram, "on_round", watched_on_round)
    spec, seed = GOLDEN[0][:2]
    g = gen_graph(spec)
    matrix, _, _, delays = apsp_random_delay(g, seed=seed)
    assert matrix == all_pairs_reference(g)
    assert first == {(v, s): delays[s] + 1
                     for v in range(g.n) for s in range(g.n)}


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
