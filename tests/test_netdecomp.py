import dataclasses
import hashlib
import json
from types import SimpleNamespace

import pytest

from sleepysim.energy_bfs import CODE_MAX, EB_PIPE, EnergyBfsProgram, _record_cap
from sleepysim.engine import Engine, Message, ProtocolViolation, audit_message
from sleepysim.graph import Graph, GraphSpec, gen_graph
from sleepysim.netdecomp import (
    PD_CNT, PD_DEC, DecompProgram, _decomp_width, _pair_cap, bits_for,
    build_cover_sync, build_decomposition, cover_forest,
)
from sleepysim.oracle import check_cover, check_decomposition
from sleepysim.trace_checks import check_halving, check_kill_budget


def _diam_bound(n, k, c_diam=4):
    b = max(1, bits_for(n))
    return c_diam * k * b**3


def _check(graph, k, decomp):
    return check_decomposition(
        graph, decomp, k, _diam_bound(graph.n, k), 2 * max(1, bits_for(graph.n))
    )


def test_single_node():
    g = Graph.build(1, [])
    decomp, _, report, _ = build_decomposition(g, 2)
    assert len(decomp.colors) == 1
    assert decomp.node_color == {0: 0}
    assert _check(g, 2, decomp) == []


def test_edgeless_one_color():
    g = Graph.build(16, [])
    decomp, _, _, _ = build_decomposition(g, 3)
    assert len(decomp.colors) == 1
    assert sum(len(cl.members) for cl in decomp.colors[0]) == 16
    assert _check(g, 3, decomp) == []


def test_path_p8():
    g = gen_graph(GraphSpec("path", 8))
    decomp, _, _, tlog = build_decomposition(g, 2)
    assert _check(g, 2, decomp) == []
    clustered_first = sum(len(cl.members) for cl in decomp.colors[0])
    assert clustered_first >= 4  # at least half clustered by the first color
    ok, detail = check_halving(tlog)
    assert ok, detail
    ok, detail = check_kill_budget(tlog, bits_for(g.n))
    assert ok, detail


def test_grid_decomposition():
    g = gen_graph(GraphSpec("grid", 64, seed=0))
    decomp, _, _, tlog = build_decomposition(g, 2)
    assert _check(g, 2, decomp) == []
    ok, detail = check_halving(tlog)
    assert ok, detail
    ok, detail = check_kill_budget(tlog, bits_for(g.n))
    assert ok, detail


def test_cover_single_node():
    g = Graph.build(1, [])
    cover, _, _, _ = build_cover_sync(g, 1)
    assert len(cover.clusters) == 1
    assert check_cover(g, cover, 1, 8, 4, 8) == []


def test_cover_star():
    g = Graph.build(6, [(0, i, 1) for i in range(1, 6)])
    cover, _, _, _ = build_cover_sync(g, 1)
    full = {cl.id for cl in cover.clusters if cl.members == set(range(6))}
    assert full, "some cluster must contain the whole star"
    b = max(1, bits_for(g.n))
    assert check_cover(g, cover, 1, 4 * b**3, 2 * b, 4 * b**3) == []


def test_cover_cycle():
    g = gen_graph(GraphSpec("cycle", 32, seed=0))
    cover, decomp, _, _ = build_cover_sync(g, 4)
    b = bits_for(g.n)
    assert check_cover(g, cover, 4, 4 * b**3, 2 * b, 4 * b**3) == []
    assert _check(g, 2 * 4 + 1, decomp) == []


def test_determinism():
    g = gen_graph(GraphSpec("random-gnm", 24, seed=6, m=48))
    d1, _, r1, _ = build_decomposition(g, 2)
    d2, _, r2, _ = build_decomposition(g, 2)
    assert r1.to_json() == r2.to_json()
    assert d1.node_color == d2.node_color


def test_only_blue_clusters_count(monkeypatch):
    """Only a blue root grows, and joins answer only blue proposals, so a
    red cluster's count would always be 0: recounts and step counts run
    over the trees of clusters blue in the phase only."""
    counted = []
    for action in ("_count_up", "_count_root"):
        def wrapped(self, api, label, recount, _act=getattr(DecompProgram, action)):
            counted.append((self._is_blue(label), recount))
            _act(self, api, label, recount)
        monkeypatch.setattr(DecompProgram, action, wrapped)
    build_cover_sync(gen_graph(GraphSpec("grid", 49, seed=1)), 1)
    assert {recount for _, recount in counted} == {True, False}
    assert all(blue for blue, _ in counted)


def test_count_windows_reach_the_deepest_role(monkeypatch):
    """A count window is as deep as the component's deepest role at the last
    barrier: no swept role lies deeper, and on a path the deepest window
    sweeps a role at its full depth."""
    swept = []
    sweep = DecompProgram._role_sweep

    def record(self, api, base, recount):
        swept.extend((self.rho, role.depth) for label, role in self.roles.items()
                     if self._is_blue(label))
        sweep(self, api, base, recount)

    monkeypatch.setattr(DecompProgram, "_role_sweep", record)
    build_cover_sync(gen_graph(GraphSpec("path", 48)), 2)
    assert all(depth <= rho for rho, depth in swept)
    assert max(rho for rho, depth in swept if depth == rho) == max(
        rho for rho, _ in swept) > 0


def test_count_window_one_short_of_the_deepest_role_raises(monkeypatch):
    """A count window one hop shallower than the deepest role the barrier
    carried raises at that role instead of building another cover."""
    monkeypatch.setattr(DecompProgram, "rho", property(
        lambda self: max(0, self.barrier_rho - 1),
        lambda self, depth: setattr(self, "barrier_rho", depth)), raising=False)
    with pytest.raises(ProtocolViolation, match="swept by a window for depth"):
        build_cover_sync(gen_graph(GraphSpec("path", 48)), 2)


def test_spanning_count_one_short_of_the_deepest_cover_role_raises(monkeypatch):
    """The spanning count's window reaches the deepest expanded role; one hop
    shallower, it raises at that role instead of returning a flag."""
    g = gen_graph(GraphSpec("path", 48))
    cover, *_ = build_cover_sync(g, 2)
    deepest = max(cl.depth() for cl in cover.clusters)
    assert cover.spanning == {0} and deepest == 47
    monkeypatch.setattr(DecompProgram, "_span_cap", lambda self: deepest - 1)
    with pytest.raises(ProtocolViolation, match="swept by a window for depth 46"):
        build_cover_sync(g, 2)


@pytest.mark.parametrize("family, n", [("path", 48), ("grid", 49)])
def test_barrier_one_short_of_the_forest_height_raises(family, n):
    """A barrier sized for one hop less than the forest's height raises at
    the forest's deepest node instead of building another cover."""
    g = gen_graph(GraphSpec(family, n, seed=1))
    (forest, kids), _ = cover_forest(g)
    short = dataclasses.replace(
        forest, height={v: h - 1 for v, h in forest.height.items()})
    with pytest.raises(ProtocolViolation, match="swept by a window for depth"):
        build_cover_sync(g, 1, forest=(short, kids))


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _clusters(clusters):
    return [[cl.id, sorted(cl.members), sorted([v, list(t)] for v, t in cl.tree.items())]
            for cl in clusters]


# (family, n, seed, m, d): cover, decomposition and trace digests, the trace
# digest with every event's round dropped, and the rounds of the all-awake
# construction, and the sleeping run's max energy, pinned exactly so that a
# change that listens more shows (the all-awake run's equals its rounds).
# The rounds and energies moved, and nothing else, when the forest's
# component census began to ride on the Boruvka phase that finds no
# outgoing edge: no census sweep runs, and a node stops listening for it.
# They moved again, and nothing else, when the decomposition began to pack
# the count and decision pairs of one step for one neighbour into one
# message and to run at width max(2, ceil(max(4, 2b + 2) / P)) with P = 4
# pairs to a message, 4 here instead of max(4, 2b + 2) = 14: the logical run
# is the same, and the decomposition's rounds and energy scale with the
# width. The rounds and the trace digests moved again when the count and
# decision windows began to be sized by the component's deepest role, which
# the barrier carries, instead of k x (steps done + 1), and the barrier by
# the forest's height instead of the component's size: the same events in
# the same order at earlier rounds (the digest without rounds, recorded
# before, is unchanged), with the same energy (rounds 22,382 / 12,855 /
# 10,824 / 13,197 / 10,773 -> 15,154 / 4,431 / 3,480 / 4,381 / 6,701).
# The rounds and energies moved again, and nothing else, when the build
# began to count each expanded cluster's members after its last expansion
# wave, a sweep as deep as the deepest decomposition role plus d in which
# every role listens once (rounds -> 15,354 / 4,487 / 3,516 / 4,437 /
# 6,817, max energy 1,781 / 1,160 / 1,107 / 1,183 / 1,065 -> 1,817 / 1,192 /
# 1,143 / 1,207 / 1,101); it adds no trace event. They moved again, and
# nothing else, when the forest's phase 0 began to sweep its singletons at
# cap 0 instead of N: the decomposition starts earlier (rounds -> 15,258 /
# 4,389 / 3,436 / 4,357 / 6,745, max energy one lower on each)
SLEEPING_COVERS = [
    (("path", 48, 0, None, 2), "3a18d94dfb8ee222", "f4c21bfb813317ea",
     "cdcc41ac8e425dd6", "49a03f401415de2b", 15258, 1816),
    (("grid", 49, 1, None, 1), "459644d4fc9d5fa1", "f6c648cb2931698b",
     "a2df7eb2b238c24b", "f70ce7f14ed2df19", 4389, 1191),
    (("random-gnm", 40, 2, 80, 1), "a1df7c8363c0f754", "42ec5c5ca650a759",
     "527cddb5a7a657a3", "3ba8a50c8c24f803", 3436, 1142),
    (("random-tree", 40, 3, None, 2), "58ebdf0450c0c22e", "122ad6699fd68afa",
     "eda711f1c18f007f", "2a2798705190e8a7", 4357, 1206),
    (("cycle", 36, 4, None, 2), "9db369f0cf788b8e", "7232caf79f179e90",
     "8d9d098674407202", "7ebf938cccc03d56", 6745, 1100),
]


@pytest.mark.parametrize("spec, cover_h, decomp_h, trace_h, events_h, rounds, energy",
                         SLEEPING_COVERS, ids=[c[0][0] for c in SLEEPING_COVERS])
def test_sleeping_cover_matches_all_awake(spec, cover_h, decomp_h, trace_h,
                                          events_h, rounds, energy):
    """Sleeping forest and decomposition nodes build the cover, decomposition
    and trace the all-awake construction built, in the same rounds, and lose
    no message (each is sent critical, so a missed listening slot raises)."""
    family, n, seed, m, d = spec
    g = gen_graph(GraphSpec(family, n, seed=seed, m=m))
    cover, decomp, report, tlog = build_cover_sync(g, d)
    assert _digest(_clusters(cover.clusters)) == cover_h
    assert _digest([[_clusters(c) for c in decomp.colors],
                    sorted(decomp.node_color.items())]) == decomp_h
    assert _digest([[kind, sorted(data.items())] for kind, data in tlog]) == trace_h
    assert _digest([[kind, sorted((key, value) for key, value in data.items()
                                  if key != "round")]
                    for kind, data in tlog]) == events_h
    assert report.rounds == rounds
    assert report.lost == 0 and report.critical_losses == []
    assert report.max_energy() == energy


class _Sends:
    def __init__(self):
        self.sent = []

    def send(self, dst, msg, critical=False):
        self.sent.append((dst, msg, critical))


@pytest.mark.parametrize("n", [2, 16, 64, 257, 1000])
def test_pairs_past_the_cap_split_within_the_bit_budget(n):
    """The one packer both node programs send through
    (`PlannedProgram._pack`): P + 1 records of one tag queued for one
    neighbour in one step leave as two messages, P records and 1, each within
    the unit graph's bit budget with the largest fields on the wire. Both
    record shapes: the decomposition's (label <= n - 1, value <= n) pairs,
    and the BFS phase's (level, cid, code) records on a stack with top level
    b and cluster ids up to 2b x n - 1, the largest a build makes."""
    g = gen_graph(GraphSpec("path", n))
    budget = Engine(g).budget
    forest = SimpleNamespace(height={0: n - 1}, size={0: n}, parent={0: None},
                             depth={0: 0})
    prog = DecompProgram(0, g, forest, {0: []}, 2)
    cap = _pair_cap(n)
    for tag in (PD_CNT, PD_DEC):
        for i in range(cap + 1):
            prog._pack(1, tag, n - 1 - i % 2, n)
    api = _Sends()
    prog._send_packed(api)
    assert [(dst, msg.tag, len(msg.payload) // 2, critical)
            for dst, msg, critical in api.sent] == [
        (1, PD_CNT, cap, True), (1, PD_CNT, 1, True),
        (1, PD_DEC, cap, True), (1, PD_DEC, 1, True)]
    assert api.sent[0][1].payload[:4] == (n - 1, n, n - 2, n)
    assert all(audit_message(msg) <= budget for _, msg, _ in api.sent)
    assert prog._outbox == []

    b = max(1, bits_for(n))
    stack = SimpleNamespace(top=b, levels=[
        SimpleNamespace(clusters=[SimpleNamespace(id=2 * b * n - 1)])])
    cap = _record_cap(n, stack)
    prog = EnergyBfsProgram(0, g, {}, False, None, cap)
    for _ in range(cap + 1):
        prog._pack(1, EB_PIPE, b, 2 * b * n - 1, CODE_MAX)
    api = _Sends()
    prog._send_packed(api)
    assert [(dst, msg.tag, len(msg.payload) // 3, critical)
            for dst, msg, critical in api.sent] == [
        (1, EB_PIPE, cap, True), (1, EB_PIPE, 1, True)]
    assert all(audit_message(msg) <= budget for _, msg, _ in api.sent)
    # one more record would not have fit
    assert audit_message(Message(EB_PIPE, (b, 2 * b * n - 1, CODE_MAX)
                                 * (cap + 1))) > budget


def test_width_holds_as_many_roles_as_messages_did():
    """The width times the pairs a message carries is at least
    max(4, 2b + 2), the coinciding same-tag roles a channel took in one
    round when each pair was a message of its own."""
    assert [_decomp_width(n) for n in (16, 32, 64, 128, 256, 257)] == [
        3, 3, 4, 4, 5, 5]
    for n in range(1, 1025):
        assert _decomp_width(n) * _pair_cap(n) >= max(4, 2 * bits_for(n) + 2)


# (n, seed): digest of the cover and the decomposition built at d = 1 over
# random-gnm with m = 2n, the same before and after the count and decision
# pairs were packed. Unpacked, 9 of these 12 builds put two messages on one
# channel in one logical round
GNM_COVERS = [
    ((32, 0), "e90e4e99e98ec25f"), ((32, 1), "3cc0fe8105f26b1e"),
    ((32, 2), "a9b02cccc0309b07"), ((32, 3), "dce73600b047b7ba"),
    ((64, 0), "4cf69d8d82e53ea5"), ((64, 1), "6ba9c4bf43ae5ac4"),
    ((64, 2), "e9244067bd81c335"), ((64, 3), "ddc0ff507c4ecfa6"),
    ((96, 0), "ca948290e3362fbc"), ((96, 1), "5b87d307a99a5b72"),
    ((96, 2), "d111bf85b886b884"), ((96, 3), "958b284639a508f7"),
]


@pytest.mark.parametrize("spec, digest", GNM_COVERS,
                         ids=[f"n{n}-s{s}" for (n, s), _ in GNM_COVERS])
def test_packed_pairs_keep_the_gnm_covers(spec, digest):
    """Packing changes no cover or decomposition, loses no message, and
    leaves each channel at most one message per logical round. With the
    forest passed in, the merged report is the decomposition run's."""
    n, seed = spec
    g = gen_graph(GraphSpec("random-gnm", n, seed=seed, m=2 * n))
    forest, _ = cover_forest(g)
    cover, decomp, report, _ = build_cover_sync(g, 1, forest=forest)
    assert _digest([_clusters(cover.clusters),
                    [_clusters(c) for c in decomp.colors],
                    sorted(decomp.node_color.items())]) == digest
    assert report.lost == 0 and report.critical_losses == []
    assert report.max_channel_demand == 1
