import hashlib

import pytest

from sleepysim.energy_bfs import (
    EnergyBfsProgram, bootstrap_base_covers, build_cover_next,
    detect_global_cluster, full_bfs, run_thresholded_bfs_with_cover,
)
from sleepysim.graph import Graph, GraphSpec, gen_graph
from sleepysim.netdecomp import promised_bounds
from sleepysim.oracle import INF, check_cover, check_layered, hop_distances
from sleepysim.structures import load_layered_cover, save_layered_cover
from sleepysim.trace_checks import check_relevance, check_sleep_safety
from schedule_reference import record


def unit_path(n):
    return gen_graph(GraphSpec("path", n))


def test_bootstrap_single_node():
    g = Graph.build(1, [])
    layered, decomps, report, _ = bootstrap_base_covers(g)
    assert len(layered.levels) == 2
    assert all(len(cov.clusters) == 1 for cov in layered.levels)
    assert check_layered(g, layered, layered.base, layered.base) == []


def test_bootstrap_cycle_checker_clean():
    g = gen_graph(GraphSpec("cycle", 16))
    layered, decomps, report, _ = bootstrap_base_covers(g)
    assert check_layered(g, layered, layered.base, layered.base) == []
    # all-awake accounting: nobody's energy exceeds total rounds
    assert all(e <= report.rounds for e in report.energy.values())
    assert report.max_energy() > 0


def test_detect_global_trivial():
    g = Graph.build(1, [])
    layered, _, _, _ = bootstrap_base_covers(g)
    spans, _ = detect_global_cluster(g, layered.levels[0])
    assert spans


def test_detect_global_path():
    g = unit_path(9)
    layered, _, _, _ = bootstrap_base_covers(g)
    spans_top, _ = detect_global_cluster(g, layered.levels[1])
    # scale-B cover of P9 must contain a spanning cluster at desk scale
    assert spans_top


@pytest.mark.parametrize("n", [64, 257])
def test_detect_level0_on_paths(n):
    """Every node sweeps a cluster tree with the cover's depth cap, so a root
    answers only after its whole subtree reported: no level-0 cluster of a
    long path spans it, and detection loses no message."""
    g = unit_path(n)
    layered, _, _, _ = bootstrap_base_covers(g, trace=False)
    assert len(layered.levels[0].clusters) > 1
    spans, report = detect_global_cluster(g, layered.levels[0])
    assert not spans
    assert report.lost == 0


def test_detect_global_disconnected():
    g = Graph.build(4, [(0, 1, 1), (2, 3, 1)])
    layered, _, _, _ = bootstrap_base_covers(g)
    spans, _ = detect_global_cluster(g, layered.levels[1])
    assert spans  # each component separately contained


def test_full_bfs_all_sources():
    g = unit_path(10)
    outputs, report, engine, layered, _, _ = full_bfs(g, set(range(10)))
    assert all(outputs[v] == 0 for v in range(10))


@pytest.mark.parametrize("n", [2, 5, 12, 33])
def test_full_bfs_path_oracle(n):
    g = unit_path(n)
    outputs, report, engine, layered, _, _ = full_bfs(g, {0})
    assert outputs == hop_distances(g, [0])
    ok, detail = check_sleep_safety(outputs, report)
    assert ok, detail
    assert report.critical_losses == []


def test_full_bfs_grid_corner():
    g = gen_graph(GraphSpec("grid", 64, seed=0))
    outputs, report, _, layered, _, _ = full_bfs(g, {0})
    ref = hop_distances(g, [0])
    assert outputs == ref
    ok, detail = check_sleep_safety(outputs, report)
    assert ok, detail
    assert check_layered(g, layered, layered.base ** layered.top, layered.base) == []


def test_full_bfs_random_graph():
    g = gen_graph(GraphSpec("random-gnm", 40, seed=3, m=90))
    outputs, report, _, _, _, _ = full_bfs(g, {7})
    assert outputs == hop_distances(g, [7])


def test_full_bfs_disconnected():
    g = Graph.build(7, [(0, 1, 1), (1, 2, 1), (4, 5, 1), (5, 6, 1)])
    outputs, report, _, _, _, _ = full_bfs(g, {0})
    ref = hop_distances(g, [0])
    assert outputs == ref
    assert outputs[4] is INF and outputs[3] is INF


def test_thresholded_zero():
    g = unit_path(6)
    outputs, _, _, _, _, _ = full_bfs(g, {2}, threshold=0)
    assert outputs == {0: INF, 1: INF, 2: 0, 3: INF, 4: INF, 5: INF}


def test_thresholded_p10():
    g = unit_path(10)
    outputs, report, engine, layered, _, _ = full_bfs(g, {0}, threshold=4)
    want = {v: (v if v <= 4 else INF) for v in range(10)}
    assert outputs == want
    ok, detail = check_sleep_safety(outputs, report)
    assert ok, detail
    ok, detail = check_relevance(layered, {0}, outputs, 4)
    assert ok, detail


def test_thresholded_beyond_diameter_equals_full():
    g = unit_path(8)
    out1, _, _, _, _, _ = full_bfs(g, {0}, threshold=64)
    out2, _, _, _, _, _ = full_bfs(g, {0})
    assert out1 == out2


def test_irrelevant_component_sleeps():
    """Clusters whose top ancestor holds no source never wake after init."""
    g = Graph.build(40, [(i, i + 1, 1) for i in range(19)]
                    + [(i, i + 1, 1) for i in range(20, 39)])
    layered, _, _, _ = bootstrap_base_covers(g)
    outputs, report, _ = run_thresholded_bfs_with_cover(g, layered, {0}, 30)
    assert outputs[19] == 19 and outputs[20] is INF
    hot = max(report.energy[v] for v in range(20))
    cold = max(report.energy[v] for v in range(20, 40))
    assert cold < hot / 4  # init listening only on the sourceless side


def test_pipeline_wake_fraction_in_bfs(monkeypatch):
    g = unit_path(33)
    layered, _, _, _ = bootstrap_base_covers(g)
    log = record(monkeypatch)
    run_thresholded_bfs_with_cover(g, layered, {0}, 32)
    lvl_periods = {max(1, layered.base**lvl) for lvl in range(layered.top + 1)}
    periodic_seen = 0
    for v in range(g.n):
        for anchor, period, residues, a, b in log[v].periodics():
            periodic_seen += 1
            assert len(residues) <= 4
            assert period in lvl_periods
    assert periodic_seen > 0


def test_one_pipeline_per_role(monkeypatch):
    """A role keeps its init pipeline when it activates, and joins a new one
    only if the init pipeline was retired, from the round after its last:
    no role declares a second pipeline whose window overlaps its first.
    Periodics are attributed to the role whose `_start` or `_activate`
    declared them; `_start` declares one per role, in key order."""
    log = record(monkeypatch)
    owner = {}  # (node, op index of a periodic) -> the role that declared it

    def owning(method, roles_of):
        def wrapped(self, api, *args):
            ops = log[self.node].ops
            before = len(ops)
            method(self, api, *args)
            mine = [i for i in range(before, len(ops)) if ops[i][0] == "periodic"]
            keys = roles_of(self, *args)
            assert len(mine) <= len(keys)
            owner.update(((self.node, i), key) for i, key in zip(mine, keys))
        return wrapped

    monkeypatch.setattr(EnergyBfsProgram, "_start", owning(
        EnergyBfsProgram._start, lambda self: sorted(self.roles)))
    monkeypatch.setattr(EnergyBfsProgram, "_activate", owning(
        EnergyBfsProgram._activate, lambda self, rt: [(rt.level, rt.cid)]))
    full_bfs(gen_graph(GraphSpec("grid", 64, seed=1)), {0})
    pipes = {}  # (node, role) -> [[a, b] of each pipeline, in order]
    for v, declared in sorted(log.items()):
        windows, stopped = [], set()
        for i, op in enumerate(declared.ops):
            if op[0] in ("window", "periodic"):
                windows.append([op[-2], op[-1]])
                if (v, i) in owner:
                    pipes.setdefault((v, owner[v, i]), []).append(windows[-1])
            elif op[0] == "stop" and op[1] not in stopped:
                stopped.add(op[1])
                windows[op[1]][1] = min(windows[op[1]][1], op[2])
    assert any(len(windows) > 1 for windows in pipes.values())
    for key, windows in sorted(pipes.items()):
        for (a1, b1), (a2, b2) in zip(windows, windows[1:]):
            assert a2 > b1, (key, windows)


def test_cover_cache_with_level_keys_loads():
    """Cover caches once stored a "level" per cluster, which nothing read:
    such a cache still loads, to the stack a build gives now."""
    old = ('SLPYCOV1\n{"base": 2, "levels": [{"clusters": [{"id": 0, "level": 0, '
           '"members": [0, 1], "tree": {"0": [null, 0, 1], "1": [0, 1, 1]}}], '
           '"scale": 1}, {"clusters": [{"id": 0, "level": 1, "members": [0, 1], '
           '"tree": {"0": [null, 0, 1], "1": [0, 1, 1]}}], "scale": 2}], '
           '"parents": [[0, 0, 0]]}\n')
    layered = load_layered_cover(old)
    built, *_ = bootstrap_base_covers(Graph.build(2, [(0, 1, 1)]))
    assert layered == built
    assert save_layered_cover(layered) == old.replace('"level": 0, ', "").replace(
        '"level": 1, ', "")


def test_build_cover_next_levels():
    """A level-2 cover over the two base covers meets the cover and parent
    conditions, and a BFS phase over all three levels is exact."""
    g = unit_path(32)
    layered, decomps, _, _ = bootstrap_base_covers(g, base=4)
    assert (layered.base, layered.top) == (4, 1)
    cover, _, _, _ = build_cover_next(g, layered)
    assert layered.top == 2 and cover.scale == 16
    assert check_cover(g, cover, 16, *promised_bounds(g.n)) == []
    assert check_layered(g, layered, 16, 4) == []
    outputs, report, *_ = full_bfs(g, {0}, layered=layered)
    assert outputs == hop_distances(g, {0})
    assert report.lost == 0


def test_golden_path65_outputs_and_report():
    """Pinned hashes of a full run whose BFS phase listens on periodic
    cluster pipelines: a change to periodic schedules shows here. The report
    hash covers per-node energy, so it moved when the cover construction
    began to sleep (max energy 766,049 -> 51,241; rounds, congestion and
    bits unchanged). It moved again when the decomposition's proposal and
    expansion windows began to close at the node's wave front and waves
    stopped reaching nodes nearer their source (max energy 51,241 -> 21,348,
    messages 21,937 -> 19,724, max edge congestion 398 -> 363), and the
    run's covers began to share one spanning forest (rounds 772,634 ->
    771,069, the second forest's rounds; nothing else lowers rounds). It
    moved once more when red clusters stopped running count sweeps, whose
    counts were always 0 (max energy 21,348 -> 18,836, messages sent
    19,727 -> 17,634, max edge congestion 202 -> 180; rounds unchanged), and
    when every node of a detection tree began to sweep with the cover's one
    depth cap (messages sent 17,634 -> 17,636; the lost `DG_CONV` and
    `DG_BCAST` are gone; rounds and max energy unchanged). It moved again
    when the spanning forest's component census began to ride on the
    Boruvka phase that finds no outgoing edge, so a node learns its
    component's size there and no census sweep runs (rounds 771,069 ->
    769,839, max energy 18,836 -> 18,824, messages sent 17,636 -> 17,508,
    max edge congestion 180 -> 179; outputs unchanged)."""
    outputs, report, *_ = full_bfs(unit_path(65), {0})
    assert (hashlib.sha256(repr(sorted(outputs.items())).encode()).hexdigest()
            == "9a43bee0e850a1612df68d1711926021ce208adee2b7ee48efeb3f72899eab32")
    assert (hashlib.sha256(report.to_json().encode()).hexdigest()
            == "8a9de98fc7154caf00561515a2ad97c09a7acf43d7b651b22251d9b3968b8f30")
