import hashlib

import pytest

from sleepysim import energy_bfs
from sleepysim.energy_bfs import (
    C_PIPE, EnergyBfsProgram, assign_parents, bfs_schedule,
    detect_global_cluster, full_bfs, grow_cover_stack,
    run_thresholded_bfs_with_cover,
)
from sleepysim.engine import (
    Engine, Message, PlannedProgram, ProtocolViolation, SimError, audit_message,
    merge_reports,
)
from sleepysim.graph import Graph, GraphSpec, gen_graph
from sleepysim.netdecomp import (
    ConstructionError, build_cover_sync, cover_forest, promised_bounds,
)
from sleepysim.oracle import INF, check_cover, check_layered, hop_distances
from sleepysim.structures import (
    ClusterData, Cover, LayeredCover, load_layered_cover, save_layered_cover,
)
from sleepysim.trace_checks import check_relevance, check_sleep_safety
from schedule_reference import record


def unit_path(n):
    return gen_graph(GraphSpec("path", n))


def build_next_level(g, layered, *, trace=True):
    """Build the next-scale cover over the stack's top level and link the
    top level into it: a level above one that already spans, which
    `grow_cover_stack` never builds."""
    cover, decomp, *_ = build_cover_sync(
        g, layered.base ** (layered.top + 1), trace=trace)
    layered.levels.append(cover)
    assign_parents(layered, layered.top - 1, decomp)
    return cover


def test_bootstrap_single_node():
    """The one node's level-0 cluster spans its component, so the stack stops
    at level 0 and builds no scale-B cover."""
    g = Graph.build(1, [])
    layered, decomps, _, _ = grow_cover_stack(g)
    assert layered.top == 0 and len(decomps) == 1
    assert len(layered.levels[0].clusters) == 1
    assert check_layered(g, layered, 1, layered.base) == []


def test_bootstrap_cycle_checker_clean():
    g = gen_graph(GraphSpec("cycle", 16))
    layered, decomps, reports, _ = grow_cover_stack(g)
    report = merge_reports(reports)
    assert check_layered(g, layered, layered.base, layered.base) == []
    # all-awake accounting: nobody's energy exceeds total rounds
    assert all(e <= report.rounds for e in report.energy.values())
    assert report.max_energy() > 0


def test_detect_global_trivial():
    g = Graph.build(1, [])
    layered, _, _, _ = grow_cover_stack(g)
    assert detect_global_cluster(g, layered.levels[0])


def test_detect_global_path():
    """P9's level 0 already spans it, so the stack stops there; a scale-B
    cover built over it spans the path too."""
    g = unit_path(9)
    layered, _, _, _ = grow_cover_stack(g)
    assert layered.top == 0 and detect_global_cluster(g, layered.levels[0])
    cover = build_next_level(g, layered)
    assert detect_global_cluster(g, cover)


@pytest.mark.parametrize("n", [64, 257])
def test_detect_level0_on_paths(n):
    """The build counts each cluster's members over a window as deep as its
    deepest role, so a root compares its whole count with the component's
    size: no level-0 cluster of a long path spans it, and the build that
    counts loses no message."""
    g = unit_path(n)
    layered, _, reports, _ = grow_cover_stack(g, trace=False)
    assert len(layered.levels[0].clusters) > 1
    assert not detect_global_cluster(g, layered.levels[0])
    assert merge_reports(reports).lost == 0


def test_detect_global_disconnected():
    g = Graph.build(4, [(0, 1, 1), (2, 3, 1)])
    layered, _, _, _ = grow_cover_stack(g)
    # each component separately contained, already at level 0
    assert layered.top == 0 and detect_global_cluster(g, layered.levels[0])
    cover = build_next_level(g, layered)
    assert detect_global_cluster(g, cover)


def test_detect_needs_the_builds_flags():
    """A cover that did not come from a build, such as a loaded one, carries
    no spanning flags, and reading them raises instead of answering."""
    g = unit_path(9)
    layered, _, _, _ = grow_cover_stack(g)
    loaded = load_layered_cover(save_layered_cover(layered))
    assert loaded == layered and loaded.levels[0].spanning is None
    with pytest.raises(ValueError, match="no spanning flags"):
        detect_global_cluster(g, loaded.levels[0])


# (graph, threshold): (base, top) of the stack `full_bfs` grows, recorded
# before the spanning clusters were counted in the cover build, so the level
# the growth stops at cannot drift. grid256 and two-edges moved from top 1 to
# top 0 when the growth began to stop at a level 0 that spans: the scale-B
# cover above it is no longer built.
STOP_LEVELS = [
    ("path64", unit_path(64), None, (128, 1)),
    ("path257", unit_path(257), None, (64, 1)),
    ("grid256", gen_graph(GraphSpec("grid", 256, seed=1)), None, (64, 0)),
    ("two-edges", Graph.build(4, [(0, 1, 1), (2, 3, 1)]), None, (2, 0)),
    ("path65-t10", unit_path(65), 10, (64, 1)),
]


@pytest.mark.parametrize("g, threshold, base_top",
                         [c[1:] for c in STOP_LEVELS],
                         ids=[c[0] for c in STOP_LEVELS])
def test_full_bfs_stops_at_the_recorded_level(g, threshold, base_top):
    outputs, report, _, layered, _, _ = full_bfs(g, {0}, threshold=threshold,
                                                 trace=False)
    assert (layered.base, layered.top) == base_top
    assert report.lost == 0


# (graph, growth options): sha256 of the stack `grow_cover_stack` saves,
# recorded from the growth that bootstrapped levels 0 and 1 and then grew
# the stack one level at a time, before the three builders became one.
STACK_PINS = [
    ("path257", unit_path(257), {},
     "1cee4d505bcd3fe3734a5c0ddfcc784c36bf7dd423a6e2a756bf0a221563c142"),
    ("grid256", gen_graph(GraphSpec("grid", 256, seed=1)), {},
     "4e7904aa59be16480dd052d89dd63b3f993b77e4964c0277211366a306055ad4"),
    ("path65", unit_path(65), {},
     "62e4c04aa91841f6d9180a9ff7238c502fec493ee1139b3a973256a50773cd70"),
    ("random-tree96", gen_graph(GraphSpec("random-tree", 96, seed=3)), {},
     "b5834992c37fd804a0aad4a8e261127f6979b0c757f1188349024dd8ef49f005"),
    ("path32-base4", unit_path(32), {"base": 4},
     "214d6b006344afc238305d74875437910ec5428ef11a9369a89595506be38804"),
    ("path65-t10", unit_path(65), {"threshold": 10},
     "62e4c04aa91841f6d9180a9ff7238c502fec493ee1139b3a973256a50773cd70"),
]


@pytest.mark.parametrize("g, options, digest", [c[1:] for c in STACK_PINS],
                         ids=[c[0] for c in STACK_PINS])
def test_grown_stack_is_pinned(g, options, digest):
    layered, *_ = grow_cover_stack(g, trace=False, **options)
    text = save_layered_cover(layered)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_threshold_0_stops_at_level_0():
    """Scale 1 already reaches 2 x 0, so a threshold-0 growth builds level 0
    alone even where it does not span; the run is exact and loses nothing."""
    g = unit_path(64)
    outputs, report, engine, layered, decomps, _ = full_bfs(
        g, {0}, threshold=0, trace=False)
    assert layered.top == 0 and len(decomps) == 1
    assert not detect_global_cluster(g, layered.levels[0])
    assert outputs == {v: 0 if v == 0 else INF for v in range(g.n)}
    assert report.lost == 0 and report.critical_losses == []


def test_stretch_guard_spares_level_1_only(monkeypatch):
    """A built cover above level 1 whose stretch exceeds B/2 with more than
    one cluster fails the stretch guard; level 1 is spared. With a planted
    stretch of 99 at every scale above 1, random-tree96 at base 2 links its
    scale-2 level 1 and fails at the scale-4 level 2. The base was
    requested, so the failure is a ValueError naming it."""
    measured = Cover.measured_stretch
    monkeypatch.setattr(Cover, "measured_stretch",
                        lambda cover: 99 if cover.scale > 1 else measured(cover))
    g = gen_graph(GraphSpec("random-tree", 96, seed=3))
    with pytest.raises(ValueError, match=r"^base 2 .*cover at scale 4 has "
                       r"stretch 99 > base/2 = 1"):
        grow_cover_stack(g, base=2, trace=False)


def test_stretch_guard_under_a_derived_base_is_a_construction_error(monkeypatch):
    """Under a derived base the stretch guard still raises a
    `ConstructionError`: a planted level-0 stretch of 1 derives B = 2 on
    random-tree96, and a planted stretch of 99 above scale 1 fails the
    scale-4 level 2 as in the requested-base case."""
    monkeypatch.setattr(Cover, "measured_stretch",
                        lambda cover: 99 if cover.scale > 1 else 1)
    g = gen_graph(GraphSpec("random-tree", 96, seed=3))
    with pytest.raises(ConstructionError,
                       match=r"^cover at scale 4 has stretch 99 > base/2 = 1"):
        grow_cover_stack(g, trace=False)


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
    ok, detail = check_relevance(g, layered, {0}, outputs, 4)
    assert ok, detail


def test_thresholded_beyond_diameter_equals_full():
    g = unit_path(8)
    out1, _, _, _, _, _ = full_bfs(g, {0}, threshold=64)
    out2, _, _, _, _, _ = full_bfs(g, {0})
    assert out1 == out2


def two_paths():
    """Two 20-node paths, 0..19 and 20..39."""
    return Graph.build(40, [(i, i + 1, 1) for i in range(19)]
                       + [(i, i + 1, 1) for i in range(20, 39)])


def path_cluster(cid, lo, hi):
    """The nodes lo..hi of a path as one cluster, its tree rooted at lo."""
    tree = {v: (v - 1 if v > lo else None, v - lo, True) for v in range(lo, hi + 1)}
    return ClusterData(id=cid, members=set(range(lo, hi + 1)), tree=tree)


@pytest.mark.parametrize("graph, top_clusters", [
    (gen_graph(GraphSpec("random-tree", 96, seed=3)), (1, 1)),
    (two_paths(), (0, 2)),
], ids=["random-tree96", "two-paths40"])
def test_spanning_levels_set_no_cadence(graph, top_clusters):
    """Each top-level cluster of these bootstrap stacks spans its component
    (random-tree96's level 1 is the spanning forest's tree, two-paths40's
    level 0 one cluster per path), so no level sets sigma: it stays at its
    floor of 4."""
    layered, *_ = grow_cover_stack(graph, trace=False)
    assert (layered.top, len(layered.levels[-1].clusters)) == top_clusters
    assert bfs_schedule(layered, 30, graph).sigma == 4


def paths_50_60():
    """Two paths, 0..49 and 50..109."""
    return Graph.build(110, [(i, i + 1, 1) for i in range(49)]
                       + [(i, i + 1, 1) for i in range(50, 109)])


@pytest.mark.parametrize("g, sources", [
    (unit_path(65), {0}),
    (gen_graph(GraphSpec("random-tree", 96, seed=3)), {0, 5, 17, 60}),
    (paths_50_60(), {0, 53}),
], ids=["path65", "random-tree96", "paths50-60"])
def test_forest_top_is_the_spanning_forest(g, sources):
    """Where level 0 does not span and B reaches the forest's height H, level
    1 is the spanning forest's trees, with no scale-B cover built: one
    cluster per component, its tree the forest's with every node a
    terminal, flagged as spanning, and each level-0 cluster linked to its
    root's component. The run on it is exact and loses nothing."""
    (info, _), _ = cover_forest(g)
    layered, decomps, *_ = grow_cover_stack(g, trace=False)
    assert layered.top == 1 and len(decomps) == 1
    assert layered.base >= max(info.height.values())
    top = layered.levels[1]
    assert {cl.id for cl in top.clusters} == set(info.component.values())
    assert top.spanning == {cl.id for cl in top.clusters}
    for cl in top.clusters:
        assert cl.tree == {v: (info.parent[v], info.depth[v], True)
                           for v in cl.members}
    for cl in layered.levels[0].clusters:
        assert layered.parent_of[(0, cl.id)] == info.component[cl.root]
    outputs, report, *_ = full_bfs(g, sources, trace=False)
    assert outputs == hop_distances(g, sources) and report.lost == 0


def test_non_spanning_level_keeps_its_cadence():
    """A level-1 cluster that misses part of its component keeps that
    level's term in sigma; the same stack with a spanning level 1 does not."""
    g = unit_path(12)
    level0 = Cover(1, [path_cluster(i, 4 * i, 4 * i + 3) for i in range(3)])
    spanning = LayeredCover(4, [level0, Cover(4, [path_cluster(0, 0, 11)])])
    assert bfs_schedule(spanning, 11, g).sigma == 4
    split = LayeredCover(4, [level0, Cover(4, [path_cluster(0, 0, 7),
                                               path_cluster(1, 4, 11)])])
    assert bfs_schedule(split, 11, g).sigma == C_PIPE * (7 + 4) // 2 + 1


def three_level_path200():
    """A hand-built valid stack on a 200-node path whose level 1 does not
    span: level 0 is [20i, 20i + 21], level 1 is [0, 119] and [80, 199]
    (B = 8, depth 119), level 2 the whole path."""
    g = unit_path(200)
    layered = LayeredCover(8, [
        Cover(1, [path_cluster(i, 20 * i, min(20 * i + 21, 199)) for i in range(10)]),
        Cover(8, [path_cluster(0, 0, 119), path_cluster(1, 80, 199)]),
        Cover(64, [path_cluster(0, 0, 199)]),
    ])
    for i in range(10):
        layered.parent_of[(0, i)] = 0 if 20 * i + 21 <= 119 else 1
    layered.parent_of.update({(1, 0): 0, (1, 1): 0})
    for cover in layered.levels:
        assert check_cover(g, cover, cover.scale, *promised_bounds(g.n)) == []
    assert check_layered(g, layered, 64, 8) == []
    return g, layered


def test_cadence_of_a_non_spanning_level_is_needed(monkeypatch):
    """A frontier that enters level-1 cluster [0, 119] from outside needs the
    cadence its tree sets: at sigma 96 every run is exact with no critical
    loss; at a planted sigma of 12 the reached flag climbs too late and a
    level-0 report is sent to a node still asleep."""
    g, layered = three_level_path200()
    assert bfs_schedule(layered, 400, g).sigma == C_PIPE * (119 + 8) // 4 + 1
    for source in (0, 100, 199):
        outputs, report, _ = run_thresholded_bfs_with_cover(
            g, layered, {source}, 400, trace=False)
        assert outputs == hop_distances(g, [source])
        assert report.critical_losses == []
    computed = bfs_schedule

    def planted(layered, hop_cap, graph):
        p = computed(layered, hop_cap, graph)
        return p._replace(sigma=12, t_end=p.t_end - (hop_cap + 1) * (p.sigma - 12))

    monkeypatch.setattr(energy_bfs, "bfs_schedule", planted)
    with pytest.raises(ProtocolViolation, match="critical message"):
        run_thresholded_bfs_with_cover(g, layered, {199}, 400, trace=False)


@pytest.mark.parametrize("source", [0, 17, 50, 95])
def test_full_bfs_random_tree_spanning_level(source):
    """random-tree96's level 1 is two clusters that each span the tree, so
    the phase runs at sigma 4; it stays exact and loses nothing."""
    g = gen_graph(GraphSpec("random-tree", 96, seed=3))
    outputs, report, *_ = full_bfs(g, {source}, trace=False)
    assert outputs == hop_distances(g, [source])
    assert report.lost == 0 and report.critical_losses == []


def test_criterion6_path_at_sigma_floor():
    """The D = 64 path of criterion 6: its one-cluster level 1 no longer
    sets sigma (31 -> 4 on path257's stack, 13 -> 4 here). The BFS phase
    packs its pipeline records and runs at width 2 instead of 5, with the
    same logical run, so max energy and rounds moved (4,535, 6,745) ->
    (1,814, 2,698): the width is the only reason."""
    g = unit_path(65)
    layered, *_ = grow_cover_stack(g, threshold=64, trace=False)
    assert bfs_schedule(layered, 64, g).sigma == 4
    outputs, report, _ = run_thresholded_bfs_with_cover(g, layered, {0}, 64,
                                                        trace=False)
    assert outputs == hop_distances(g, [0])
    assert report.lost == 0 and report.critical_losses == []
    assert (report.max_energy(), report.rounds) == (1814, 2698)


def _built_two_levels(g):
    """Level 0 and the scale-B cover built over it, linked: the stack the
    growth gave these graphs before it began to stop at a level 0 that spans
    and to take the spanning forest's tree for a level whose scale reaches
    its height."""
    layered, *_ = grow_cover_stack(g, threshold=0, trace=False)
    assert layered.top == 0
    build_next_level(g, layered, trace=False)
    return layered


def _phase_digest(g, sources):
    """A digest of the BFS phase's logical run on `_built_two_levels`:
    outputs, losses, every node's energy / width and rounds / width; and the
    width."""
    layered = _built_two_levels(g)
    outputs, report, engine = run_thresholded_bfs_with_cover(
        g, layered, sources, energy_bfs._bfs_threshold(layered), trace=False)
    w = engine.config.width
    assert report.rounds % w == 0
    assert all(e % w == 0 for e in report.energy.values())
    logical = (sorted(outputs.items()), report.losses,
               sorted((v, e // w) for v, e in report.energy.items()),
               report.rounds // w)
    return hashlib.sha256(repr(logical).encode()).hexdigest()[:16], w


@pytest.mark.parametrize("spec, sources, digest, width_was", [
    (("path", 65, 0), {0}, "6c965b319b5bcedd", 5),
    (("grid", 64, 0), {0}, "23f9d04adeff41b3", 4),
    (("random-tree", 96, 3), {0, 5, 17, 60}, "a991b3575cdbcbab", 6),
    (("cycle", 128, 0), {0}, "7f4f58ae34710cfb", 5),
], ids=["path65", "grid64", "random-tree96", "cycle128"])
def test_packed_phase_keeps_the_logical_run(spec, sources, digest, width_was):
    """Packing the pipeline records moves no logical round: the digests were
    recorded when every record was a message of its own at width
    multiplicity + 2 (`width_was`); the phase now runs at width 2. The
    stacks are the two-level ones the digests were recorded on."""
    family, n, seed = spec
    assert _phase_digest(gen_graph(GraphSpec(family, n, seed=seed)),
                         sources) == (digest, 2)
    assert width_was > 2


@pytest.mark.parametrize("g, base", [
    (unit_path(33), None), (gen_graph(GraphSpec("grid", 36)), None),
    (gen_graph(GraphSpec("random-tree", 40, seed=3)), None),
    (unit_path(40), 4),
], ids=["path33", "grid36", "random-tree40", "path40-base4"])
def test_width_covers_the_multiplicity_and_a_reach(g, base):
    """Records of one role on one channel in one round are one record, so a
    channel carries at most the stack's edge multiplicity in records: the
    width's packed messages hold that many, P to a message, and leave one
    message for `EB_REACH`. P is the most records the bit budget holds for
    the stack's top level and largest cluster id."""
    layered, *_ = grow_cover_stack(g, base=base, threshold=1, trace=False)
    cap = energy_bfs._record_cap(g.n, layered)
    width = energy_bfs._bfs_width(g.n, layered)
    assert (width - 1) * cap >= layered.max_edge_multiplicity()
    assert (width - 2) * cap < layered.max_edge_multiplicity()
    top_cid = max(cl.id for cover in layered.levels for cl in cover.clusters)
    record = (layered.top, top_cid, energy_bfs.CODE_MAX)
    budget = Engine(g).budget
    assert audit_message(Message(energy_bfs.EB_PIPE, record * cap)) <= budget
    assert audit_message(Message(energy_bfs.EB_PIPE, record * (cap + 1))) > budget
    outputs, report, engine = run_thresholded_bfs_with_cover(
        g, layered, {0}, energy_bfs._bfs_threshold(layered), trace=False)
    assert outputs == hop_distances(g, [0]) and report.lost == 0
    assert engine.config.width == width
    assert report.max_channel_demand <= width


def test_a_role_packs_one_record_per_channel_and_round(monkeypatch):
    """On random-tree96 a role sometimes reports twice in one step (two
    kids' reports arrive together); the second record rewrites the first,
    so no step packs two records of one role for one neighbour, which is
    what lets the width count roles."""
    rewrites = []
    repack, send = PlannedProgram._repack, PlannedProgram._send_packed

    def counted(self, i, *fields):
        rewrites.append(i)
        repack(self, i, *fields)

    def checked(self, api):
        keys = [(dst,) + fields[:2] for dst, tag, fields in self._outbox]
        assert len(keys) == len(set(keys))
        send(self, api)

    monkeypatch.setattr(PlannedProgram, "_repack", counted)
    monkeypatch.setattr(PlannedProgram, "_send_packed", checked)
    g = gen_graph(GraphSpec("random-tree", 96, seed=3))
    outputs, report, *_ = full_bfs(g, {0}, trace=False)
    assert outputs == hop_distances(g, [0]) and report.lost == 0
    assert rewrites


def test_width_one_short_oversubscribes(monkeypatch):
    """On path65 a packed pipeline message and an `EB_REACH` meet on one
    channel in one round, so a width one below the computed one raises."""
    g = unit_path(65)
    layered, *_ = grow_cover_stack(g, trace=False)
    computed = energy_bfs._bfs_width
    monkeypatch.setattr(energy_bfs, "_bfs_width",
                        lambda n, layered: computed(n, layered) - 1)
    with pytest.raises(SimError, match="channel oversubscription"):
        run_thresholded_bfs_with_cover(
            g, layered, {0}, energy_bfs._bfs_threshold(layered), trace=False)


def test_phase_runs_the_spanning_top_clusters():
    """path32 at base 4: top-level cluster 62 neither spans the path nor
    holds the source, and level-0 cluster 62 is linked under it. The phase
    runs on top-level cluster 0 alone, which spans the path, and hangs
    level-0 cluster 62 under it, so the run is exact and loses nothing (with
    cluster 62 running, its retired pipeline took a report and its root's
    broadcast was lost at a sleeping node)."""
    g = unit_path(32)
    layered, *_ = grow_cover_stack(g, base=4, trace=False)
    assert layered.top == 1
    assert [cl.id for cl in layered.levels[1].clusters] == [0, 62]
    assert layered.parent_of[(0, 62)] == 62
    levels, parent_of = energy_bfs._phase_stack(g, layered)
    assert [cl.id for cl in levels[1]] == [0]
    assert parent_of[(0, 62)] == 0 and layered.parent_of[(0, 62)] == 62
    outputs, report, *_ = full_bfs(g, {0}, base=4, trace=False)
    assert outputs == hop_distances(g, [0])
    assert report.lost == 0 and report.critical_losses == []


@pytest.mark.parametrize("n", [32, 64])
def test_relevance_reads_the_phase_stack_at_base_4(n):
    """At base 4 the top level of path32 and path64 holds a cluster that
    does not span the path, and some level-0 cluster hangs under it. The
    relevance check reads the clusters the phase runs and their phase
    parents, so these exact runs pass it (read from the stack's own links,
    a reached level-0 cluster looked irrelevant)."""
    g = unit_path(n)
    outputs, report, _, layered, *_ = full_bfs(g, {0}, base=4, trace=False)
    assert outputs == hop_distances(g, [0]) and report.lost == 0
    assert len(energy_bfs._phase_stack(g, layered)[0][1]) < len(
        layered.levels[1].clusters)
    ok, detail = check_relevance(g, layered, {0}, outputs, n - 1)
    assert ok, detail


def test_top_0_stack_runs_its_spanning_clusters():
    """Criterion 3's gnm40 stops at level 0, where one cluster spans the
    graph and another does not. The phase runs the spanning one alone, the
    run is exact, and every cluster it reaches is relevant."""
    g = gen_graph(GraphSpec("random-gnm", 40, seed=4, m=90))
    outputs, report, _, layered, *_ = full_bfs(g, {0}, trace=False)
    assert layered.top == 0 and len(layered.levels[0].clusters) == 2
    levels, _ = energy_bfs._phase_stack(g, layered)
    assert [len(clusters) for clusters in levels] == [1]
    assert outputs == hop_distances(g, [0]) and report.lost == 0
    farthest = max(h for h in outputs.values() if h is not INF)
    ok, detail = check_relevance(g, layered, {0}, outputs, farthest)
    assert ok, detail


def test_irrelevant_component_sleeps():
    """Clusters whose top ancestor holds no source never wake after init.
    Each path is one spanning level-0 cluster, so the stack stops at level
    0, and the sourceless path's root retires its pipeline once its own init
    broadcast has settled, as every other role does."""
    g = Graph.build(40, [(i, i + 1, 1) for i in range(19)]
                    + [(i, i + 1, 1) for i in range(20, 39)])
    layered, _, _, _ = grow_cover_stack(g)
    outputs, report, _ = run_thresholded_bfs_with_cover(g, layered, {0}, 30)
    assert outputs[19] == 19 and outputs[20] is INF
    hot = max(report.energy[v] for v in range(20))
    cold = max(report.energy[v] for v in range(20, 40))
    assert cold < hot / 4  # init listening only on the sourceless side


def test_pipeline_wake_fraction_in_bfs(monkeypatch):
    g = unit_path(33)
    layered, _, _, _ = grow_cover_stack(g)
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
    such a cache still loads, to the stack a build gives now with its level 1
    built over the level 0 that spans."""
    old = ('SLPYCOV1\n{"base": 2, "levels": [{"clusters": [{"id": 0, "level": 0, '
           '"members": [0, 1], "tree": {"0": [null, 0, 1], "1": [0, 1, 1]}}], '
           '"scale": 1}, {"clusters": [{"id": 0, "level": 1, "members": [0, 1], '
           '"tree": {"0": [null, 0, 1], "1": [0, 1, 1]}}], "scale": 2}], '
           '"parents": [[0, 0, 0]]}\n')
    layered = load_layered_cover(old)
    g = Graph.build(2, [(0, 1, 1)])
    built, *_ = grow_cover_stack(g)
    assert built.top == 0
    build_next_level(g, built)
    assert layered == built
    assert save_layered_cover(layered) == old.replace('"level": 0, ', "").replace(
        '"level": 1, ', "")


@pytest.mark.parametrize("body", [
    '{}',
    '[]',
    '{"base": 2, "levels": [], "parents": []}',
    '{"base": 2, "levels": [{"scale": 1}], "parents": []}',
    '{"base": 2, "levels": [{"scale": 1, "clusters": [{"id": 0, '
    '"members": ["0"], "tree": {"0": [null, 0, 1]}}]}], "parents": []}',
    '{"base": 2, "levels": [{"scale": 1, "clusters": [{"id": 0, '
    '"members": [0], "tree": {"0": [null, 0]}}]}], "parents": []}',
    '{"base": 2, "levels": [{"scale": 1, "clusters": [{"id": 0, "members": [0], '
    '"tree": {"0": [null, 0, 1]}}, {"id": 0, "members": [0], '
    '"tree": {"0": [null, 0, 1]}}]}], "parents": []}',
], ids=["empty", "list", "no-levels", "no-clusters", "string-member",
        "short-tree-entry", "repeated-id"])
def test_malformed_cover_cache_raises_value_error(body):
    with pytest.raises(ValueError):
        load_layered_cover("SLPYCOV1\n" + body + "\n")


def test_level_2_over_a_spanning_level_1():
    """A level-2 cover over the two base covers meets the cover and parent
    conditions, and a BFS phase over all three levels is exact."""
    g = unit_path(32)
    layered, decomps, _, _ = grow_cover_stack(g, base=4)
    assert (layered.base, layered.top) == (4, 1)
    cover = build_next_level(g, layered)
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
    max edge congestion 180 -> 179; outputs unchanged). It moved again when
    sigma stopped taking a term from levels whose clusters each span their
    component (here the one-cluster level 1: sigma 13 -> 4, max energy
    18,824 -> 16,720, rounds 769,839 -> 763,944, messages sent 17,508 ->
    17,542, the extra ones level-1 `EB_CONV` reports of nodes the faster
    frontier reaches before the cluster is done; outputs unchanged). It
    moved again when the decomposition began to pack the count and decision
    pairs of one step for one neighbour into one message and to run at
    width 4 instead of 16, with the same logical run (rounds 763,944 ->
    197,964, max energy 16,720 -> 8,112; messages sent, congestion and
    outputs unchanged). It moved again when the decomposition's count and
    decision windows began to be sized by the component's deepest role,
    carried on the barrier, and the barrier by the forest's height instead
    of the component's size (rounds 197,964 -> 60,844; max energy, messages
    sent, congestion and outputs unchanged). It moved again when the cover
    build began to count which clusters span their component and the
    all-awake detection runs were dropped (rounds 60,844 -> 60,596, max
    energy 8,112 -> 7,272, messages sent 17,542 -> 17,148, max edge
    congestion 179 -> 177; outputs and covers unchanged). It moved again
    when the BFS phase began to pack each step's pipeline records for one
    neighbour into one message and to run at width 2 instead of 5, with the
    same logical run (rounds 60,596 -> 55,757, max energy 7,272 -> 4,611,
    messages sent 17,148 -> 17,147, the one saved a pair of records that now
    share a message; outputs unchanged). It moved again when the stack began
    to take the spanning forest's tree as a level whose scale reaches the
    tree's height (here level 1: B = 64 >= H = 64) instead of building the
    scale-64 cover, whose one cluster was that same tree (rounds 55,757 ->
    23,593, max energy 4,611 -> 3,531, messages sent 17,147 -> 10,904, max
    edge congestion 177 -> 113, max bits 23 -> 20; outputs, stack and BFS
    phase unchanged)."""
    outputs, report, *_ = full_bfs(unit_path(65), {0})
    assert (hashlib.sha256(repr(sorted(outputs.items())).encode()).hexdigest()
            == "9a43bee0e850a1612df68d1711926021ce208adee2b7ee48efeb3f72899eab32")
    assert (hashlib.sha256(report.to_json().encode()).hexdigest()
            == "476439aef1cfb24884f1ff94643971bed8a2844bd22105ebf5f55685e59ac32e")


def test_full_bfs_report_keeps_its_stages_channel_demand(monkeypatch):
    """The merged `full_bfs` report reads the largest channel demand of its
    stages: the forest, the scale-1 cover build (path33's level 0 spans the
    path, so no other cover is built) and the BFS phase."""
    stages = []
    finalize = Engine._finalize

    def record_stage(self, status, width):
        stages.append(finalize(self, status, width))
        return stages[-1]

    monkeypatch.setattr(Engine, "_finalize", record_stage)
    _, report, *_ = full_bfs(unit_path(33), {0})
    assert len(stages) == 3
    assert report.max_channel_demand == max(
        r.max_channel_demand for r in stages) >= 1
