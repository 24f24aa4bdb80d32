"""Energy-efficient breadth-first search over a layered sparse cover.

Every cluster runs a convergecast/broadcast pipeline on its Steiner tree
with period equal to its cover scale, using the slot rule of
`engine.PlannedProgram` (`_join_pipe`, `_pipe_slot`): a member at depth dep
wakes at rounds congruent to {p-dep-1, p-dep} (upward slots) and {dep,
dep+1} (downward slots) modulo p, so one full sweep climbs or descends the
tree within one period plus its depth. The BFS frontier advances one hop
every sigma rounds; clusters activate their children when told they have
been reached, and deactivate once every member knows it (level-0 clusters
additionally wait until all their members are reached). Each role listens
on one pipeline at a time: the init pipeline sleeps once the role's and its
parent's init broadcasts have settled, unless the role has activated, which
keeps it until the role is done; a role activated after that joins a new
pipeline from the round after the old one's last. A root's broadcast and a
relayed one pass through one rule (`_bcast`), and so do a source's start and
a relayed frontier hop (`_on_reach`). Inactive nodes are asleep; the
frontier must only ever arrive at awake nodes. The engine logs every lost
message that was not sent critical (`RunReport.losses`), and the
sleep-safety check reads the frontier messages among them to separate
harmless duplicates from real violations.

At a top level where every node lies in a cluster that spans its
component, top 0 included, the phase runs on those clusters alone
(`_phase_stack`): a sourceless cluster there that does not span would
retire its pipeline and then still pass on the reports of members the
frontier reaches.

Pipeline messages are packed. A role's convergecast report (`EB_CONV`) and
broadcast (`EB_BCAST`) are records (level, cid, code), code = kind x 8 +
the three flags; a step packs every role's records for one neighbour into
one critical `EB_PIPE` message (`PlannedProgram._pack_all`), P records to a
message, P = (budget - tag bits) // (bits of the stack's top level + bits
of its largest cluster id + bits of a code), with the budget
`engine.bit_budget` gives the unit graph. A role sends at most one record
on a channel in a round (a second one in the same step rewrites the
first), and a cluster's tree edge carries one role's records each way, so
a channel carries at most the stack's edge multiplicity in records, plus
one `EB_REACH`. The width is ceil(multiplicity / P) + 1 (`_bfs_width`),
computed from the stack alone: 2 on the README's graphs, where it was
multiplicity + 2 with each record a message of its own. The logical run is
the same; only its rounds and energy, logical rounds x width, fall.

`full_bfs` is the one entry point, thresholded or not, building the cover
stack or reusing one.

One function grows the cover stack (`grow_cover_stack`). Each level is
`netdecomp`'s cover (its nodes sleep outside the rounds a message can reach
them), which also counts which clusters span their component; this module
adds the layering, parent links, the stop rule that reads those counts, and
the sleeping BFS phase. The stack builds no level it can already see: it
stops at level 0 when every node lies in a level-0 cluster that spans its
component, and a level whose scale B**l reaches the height H of the
spanning forest that every build runs over is that forest's trees
(`forest_level`), since each root's B**l-ball is then its whole component.
A level's parents are the clusters the next decomposition put their roots in
(`assign_parents`). A built level that fails a guard is a ValueError naming
a requested base, a bad input, and a `ConstructionError` under a derived one.
"""

from __future__ import annotations

from collections import namedtuple
from math import inf

from .engine import (
    Message, PlannedProgram, SimConfig, _records_per_message, merge_reports,
    run_simulation,
)
from .netdecomp import ConstructionError, build_cover_sync, cover_forest
from .structures import ClusterData, Cover, LayeredCover

INF = inf

EB_PIPE = 40  # flat (level, cid, code) records, code = kind x 8 + flags
EB_REACH = 42  # (hop,)

# record kinds, and the flags each carries as bits 2, 1, 0 of its code
EB_CONV = 0  # up the tree: contains_src, reached_any, all_done
EB_BCAST = 1  # down the tree: contains_src, reached, deact
CODE_MAX = EB_BCAST * 8 + 7
_FLAGS = [(f >> 2 & 1, f >> 1 & 1, f & 1) for f in range(8)]  # code & 7 -> flags

C_PIPE = 3  # pipeline sweeps a cluster gets per frontier hop


class _RoleRt:
    """Per-node runtime state for one cluster membership."""

    __slots__ = (
        "level", "cid", "parent", "kids", "depth", "terminal", "period",
        "parent_key", "kid_flags", "sent", "bcast_seen", "init_done",
        "parent_init_done", "active", "pipe", "until", "done", "packed",
        "subs",
    )

    def __init__(self, level, cid, parent, kids, depth, terminal, period,
                 parent_key):
        self.level = level
        self.cid = cid
        self.parent = parent
        self.kids = list(kids)
        self.depth = depth
        self.terminal = terminal
        self.period = period
        self.parent_key = parent_key
        self.kid_flags = {}  # kid -> the flags it last sent up
        self.sent = None
        self.bcast_seen = (0, 0, 0)
        self.init_done = False
        self.parent_init_done = parent_key is None
        self.active = False
        self.pipe = None  # `stop_awake` handle of the role's pipeline
        self.until = None  # the pipeline's last round
        self.done = False
        self.packed = {}  # kind -> (round, where its records were packed)
        self.subs = []  # the node's roles this role parents, in key order


# run-wide schedule constants derived from the measured cover stack
BfsParams = namedtuple("BfsParams", "anchor t0 sigma hop_cap t_end")


class EnergyBfsProgram(PlannedProgram):
    """Sleeping-model node program for cover-driven thresholded BFS."""

    def __init__(self, node, graph, roles, is_source, params, records):
        super().__init__(node, graph)
        self.roles = roles  # dict (level, cid) -> _RoleRt
        self._order = [roles[key] for key in sorted(roles)]
        for rt in self._order:
            rt.subs = [c for c in self._order if c.parent_key == (rt.level, rt.cid)]
        self.is_source = is_source
        self.p = params
        self.reached_hop = None
        self._chunk = 3 * records  # records to a packed `EB_PIPE` message

    # Bound by name so that a profile books these steps to this class.
    on_round = PlannedProgram.on_round

    def _start(self, api):
        for rt in self._order:
            self._join(api, rt, api.round)
            self._maybe_conv(api, rt)
        self._plan_at(api, self.p.t0, "_bfs_start")
        self._plan_at(api, self.p.t_end, "_wrap_up")

    # -- pipeline aggregation -----------------------------------------------------

    def _flags_self(self, rt):
        if not rt.terminal:
            return 0, 0, 1
        reached = self.reached_hop is not None
        know = rt.bcast_seen[1] == 1 and (reached or rt.level > 0)
        return int(self.is_source), int(reached), int(know)

    def _aggregate(self, rt):
        cs, ra, ad = self._flags_self(rt)
        for kid in rt.kids:
            kcs, kra, kad = rt.kid_flags.get(kid, (0, 0, 0))
            cs |= kcs
            ra |= kra
            ad &= kad
        return cs, ra, ad

    def _maybe_conv(self, api, rt):
        if rt.done:
            return
        if rt.sent is None and len(rt.kid_flags) < len(rt.kids):
            return  # first report waits for the whole subtree
        agg = self._aggregate(rt)
        if rt.parent is None:
            self._root_progress(api, rt, agg)
            return
        if agg == rt.sent:
            return
        slot = self._pipe_slot(self.p.anchor, rt.period, rt.depth, True, api.round)
        self._plan_at(api, slot, "_conv_send", rt.level, rt.cid)

    def _conv_send(self, api, level, cid):
        rt = self.roles.get((level, cid))
        if rt is None or rt.done or rt.parent is None:
            return
        agg = self._aggregate(rt)
        if agg == rt.sent:
            return
        rt.sent = agg
        self._pipe_send(api, rt, (rt.parent,), EB_CONV, agg)

    def _root_progress(self, api, rt, agg):
        cs, ra, ad = agg
        old = rt.bcast_seen
        val = (max(old[0], cs), max(old[1], ra),
               1 if ((old[1] or ra) and ad) else old[2])
        if val != old or not rt.init_done:
            self._bcast(api, rt, val)

    def _bcast_send(self, api, level, cid):
        rt = self.roles.get((level, cid))
        if rt is None:
            return
        self._pipe_send(api, rt, rt.kids, EB_BCAST, rt.bcast_seen)

    def _pipe_send(self, api, rt, dsts, kind, flags):
        """Pack the role's record of one kind for each of `dsts`. A role sends
        at most one record on a channel in a round: a second one in the same
        step rewrites the first's code, so the neighbour reads the last."""
        cs, ra, ad = flags
        code = kind * 8 + cs * 4 + ra * 2 + ad
        last = rt.packed.get(kind)
        if last is not None and last[0] == api.round:
            for i in last[1]:
                self._repack(i, rt.level, rt.cid, code)
            return
        rt.packed[kind] = (api.round, self._pack_all(
            dsts, EB_PIPE, rt.level, rt.cid, code))

    def _dispatch(self, api, src, msg):
        if msg.tag == EB_PIPE:
            p, roles = msg.payload, self.roles
            for i in range(0, len(p), 3):
                rt = roles.get((p[i], p[i + 1]))
                if rt is None or rt.done:
                    continue
                code = p[i + 2]
                if code >> 3 == EB_BCAST:
                    self._bcast(api, rt, _FLAGS[code & 7])
                else:
                    rt.kid_flags[src] = _FLAGS[code & 7]
                    self._maybe_conv(api, rt)
        elif msg.tag == EB_REACH:
            self._on_reach(api, msg.payload[0])

    def _bcast(self, api, rt, val):
        """Take in a broadcast value, the root's own or one relayed from the
        parent, and pass it on to the kids in the next down slot."""
        self._apply_bcast(api, rt, val)
        slot = self._pipe_slot(self.p.anchor, rt.period, rt.depth, False,
                               api.round)
        self._plan_at(api, slot, "_bcast_send", rt.level, rt.cid)

    def _apply_bcast(self, api, rt, val):
        cs, ra, de = val
        old = rt.bcast_seen
        rt.bcast_seen = (max(old[0], cs), max(old[1], ra), max(old[2], de))
        if not rt.init_done:
            rt.init_done = True
            self._maybe_retire(api, rt)
        for child in rt.subs:
            if not child.parent_init_done:
                child.parent_init_done = True
                self._maybe_retire(api, child)
            if rt.bcast_seen[0] or rt.bcast_seen[1]:
                self._activate(api, child)
        if rt.parent_key is None and cs:
            self._activate(api, rt)
        if ra and not old[1]:
            self._conv_refresh(api)
        if de and not rt.done:
            rt.done = True
            if rt.active:
                self._retire(api, rt)

    def _join(self, api, rt, a):
        rt.pipe = self._join_pipe(
            api, self.p.anchor, rt.period, rt.depth, a, self.p.t_end)
        rt.until = self.p.t_end

    def _retire(self, api, rt):
        """Sleep the role's pipeline once what it carries has had time to
        reach the ends of the tree."""
        rt.until = api.round + 2 * (rt.period + rt.depth) + 4
        api.stop_awake(rt.pipe, rt.until)

    def _maybe_retire(self, api, rt):
        """Retire the init pipeline once both this cluster's and its parent's
        init broadcasts have settled, unless the role has activated: an
        active role keeps it until it is done. Each flag is set once, so
        this retires once."""
        if not rt.active and rt.init_done and rt.parent_init_done:
            self._retire(api, rt)

    def _activate(self, api, rt):
        """An active role keeps its pipeline; one whose init pipeline was
        retired joins a new one from the round after the old one's last."""
        if rt.active:
            return
        rt.active = True
        if rt.until < self.p.t_end:
            self._join(api, rt, max(api.round, rt.until + 1))
        api.trace("ebfs_active", level=rt.level, cid=rt.cid)

    def _conv_refresh(self, api):
        for rt in self._order:
            self._maybe_conv(api, rt)

    # -- the BFS itself --------------------------------------------------------------

    def _bfs_start(self, api):
        if self.is_source:
            self._on_reach(api, 0)

    def _on_reach(self, api, hop):
        """Take the first hop that reaches this node and send the next one on
        at its frontier round."""
        if self.reached_hop is not None:
            return
        self.reached_hop = hop
        api.trace("ebfs_reached", hop=hop)
        self._conv_refresh(api)
        send_round = self.p.t0 + (hop + 1) * self.p.sigma
        if hop < self.p.hop_cap and send_round < self.p.t_end:
            self._plan_at(api, send_round, "_reach_send")

    def _reach_send(self, api):
        hop = self.reached_hop + 1
        for u in self.nbrs:
            api.send(u, Message(EB_REACH, (hop,)))

    def _wrap_up(self, api):
        api.finish(self.reached_hop if self.reached_hop is not None else INF)


# -- layering harness -------------------------------------------------------------------


def assign_parents(layered, level, decomp_hi):
    """Parent of every level-(level) cluster: the expanded cluster of the next
    cover that the root of its Steiner tree was clustered into. The
    decomposition's colors partition the nodes, so each has one cluster."""
    hi_nodes = {cl.id: set(cl.members) | set(cl.tree)
                for cl in layered.levels[level + 1].clusters}
    cluster_of = {v: cl.id for clusters in decomp_hi.colors
                  for cl in clusters for v in cl.members}
    for cl in layered.levels[level].clusters:
        pid = cluster_of.get(cl.root)
        if pid not in hi_nodes:
            raise ConstructionError(f"level {level} cluster {cl.id}: root "
                                    f"{cl.root} has no parent cluster")
        missing = set(cl.tree) - hi_nodes[pid]
        if missing:
            raise ConstructionError(f"level {level} cluster {cl.id}: parent "
                                    f"{pid} misses {len(missing)} tree nodes")
        layered.parent_of[(level, cl.id)] = pid


def choose_base(stretch: int, requested=None) -> int:
    """Smallest power of two >= 2*stretch (or the requested override)."""
    if requested is not None:
        return requested
    b = 2
    while b < 2 * stretch:
        b <<= 1
    return b


def forest_level(layered, forest):
    """Put the spanning forest's trees on top of the stack as its next level,
    if that level's scale B**(top + 1) reaches the height H of every tree
    (`ForestInfo.height`): a root's ball of that radius is then its whole
    component, so a cover built at the scale would be one spanning cluster
    per component anyway. Each component is one cluster, its id the
    component's, its tree the forest's with every node a terminal; each
    top-level cluster's parent is the component of its root. Returns whether
    the level was added."""
    info = forest[0]
    scale = layered.base ** (layered.top + 1)
    if scale < max(info.height.values(), default=0):
        return False
    clusters = {}
    for v in sorted(info.component):
        c = info.component[v]
        cl = clusters.get(c)
        if cl is None:
            cl = clusters[c] = ClusterData(id=c, members=set(), tree={})
        cl.members.add(v)
        cl.tree[v] = (info.parent[v], info.depth[v], True)
    for cl in layered.levels[-1].clusters:
        layered.parent_of[(layered.top, cl.id)] = info.component[cl.root]
    layered.levels.append(Cover(scale, [clusters[c] for c in sorted(clusters)],
                                spanning=frozenset(clusters)))
    return True


def grow_cover_stack(graph, *, base=None, threshold=None, trace=True):
    """Build the cover stack level by level over one spanning forest
    (`cover_forest`, built and counted once); returns (layered cover,
    decompositions, stage reports, cover traces). Level 0 is the scale-1
    cover and B = `choose_base` of its stretch, or the requested base. The
    stack grows until every node lies in a top-level cluster that spans its
    component (`detect_global_cluster`, read from the flags the builds
    counted) or, with a threshold, until B**top >= 2*threshold. A level whose
    scale reaches the forest's height is the forest's trees
    (`forest_level`); any other is the scale-B**l cover, whose stretch above
    level 1 is at most B/2 unless it is one cluster (the stretch guard) and
    into which the level below links (the link guard, `assign_parents`). A
    failed guard raises ValueError naming a requested base, else a
    `ConstructionError`."""
    forest, rep_f = cover_forest(graph)
    cover0, decomp0, rep0, tl0 = build_cover_sync(
        graph, 1, trace=trace, forest=forest)
    B = choose_base(cover0.measured_stretch(), base)
    layered = LayeredCover(base=B, levels=[cover0])
    decomps, reports, tlogs = [decomp0], [rep_f, rep0], [tl0]
    while not detect_global_cluster(graph, layered.levels[-1]) and (
            threshold is None or B**layered.top < 2 * threshold):
        if forest_level(layered, forest):
            continue
        level = layered.top + 1
        scale = B**level
        cover, decomp, rep, tl = build_cover_sync(
            graph, scale, trace=trace, forest=forest)
        layered.levels.append(cover)
        stretch = cover.measured_stretch()
        try:
            if level > 1 and 2 * stretch > B and len(cover.clusters) > 1:
                raise ConstructionError(f"cover at scale {scale} has stretch "
                                        f"{stretch} > base/2 = {B // 2}")
            assign_parents(layered, level - 1, decomp)
        except ConstructionError as e:
            if base is None:
                raise
            raise ValueError(f"base {base} cannot link the scale-{scale // B} "
                             f"cover into the scale-{scale} one: {e}") from None
        decomps.append(decomp)
        reports.append(rep)
        tlogs.append(tl)
    return layered, decomps, reports, tlogs


def _phase_stack(graph, layered):
    """The clusters the BFS phase runs on, level by level, and their parent
    ids. At a top level where every node lies in a cluster that spans its
    component (`_spanned`), top 0 included, only those clusters run: one
    that does not span holds no node that a spanning one of its component
    lacks, and it cannot tell whether a frontier will reach it, so it would
    relay reports over a pipeline it has retired. A cluster linked to it
    hangs under the spanning cluster of its component with the smallest id
    instead, whose tree holds its own."""
    levels = [cover.clusters for cover in layered.levels]
    top = layered.top
    spans = _spanned(graph, layered.levels[-1])
    if spans is None or len(spans) == len(levels[top]):
        return levels, layered.parent_of
    levels[top] = spans
    if top == 0:
        return levels, layered.parent_of
    home = {}
    for cl in spans:
        for v in cl.members:
            home.setdefault(v, cl.id)
    kept = {cl.id for cl in spans}
    parent_of = dict(layered.parent_of)
    for cl in levels[top - 1]:
        if parent_of.get((top - 1, cl.id)) not in kept:
            parent_of[(top - 1, cl.id)] = home[cl.root]
    return levels, parent_of


def _roles_for(graph, layered):
    """Per-node runtime roles for the clusters of `_phase_stack`, with
    children lists."""
    roles = {v: {} for v in range(graph.n)}
    levels, parent_of = _phase_stack(graph, layered)
    for lvl, clusters in enumerate(levels):
        period = max(1, layered.base**lvl)
        for cl in clusters:
            kids = {v: [] for v in cl.tree}
            for v, (p, _, _) in cl.tree.items():
                if p is not None:
                    kids[p].append(v)
            pkey = None
            pid = parent_of.get((lvl, cl.id))
            if pid is not None and lvl < layered.top:
                pkey = (lvl + 1, pid)
            for v, (p, dep, term) in cl.tree.items():
                roles[v][(lvl, cl.id)] = _RoleRt(
                    lvl, cl.id, p, sorted(kids[v]), dep, term, period, pkey)
    return roles


def detect_global_cluster(graph, cover):
    """Whether every node lies in a cluster that spans its component, read
    from the flags the cover's build counted (`Cover.spanning`)."""
    if cover.spanning is None:
        raise ValueError("the cover carries no spanning flags from its build")
    return _spanned(graph, cover) is not None


def _spanned(graph, cover):
    """The clusters of a cover that span their component, in id order, if
    every node lies in one of them; else None. A built cover answers from
    the flags its build counted (`Cover.spanning`), a loaded one from its
    structure (`_spans_component`). Read at a stack's top level, this is the
    one answer that the build's stop rule, the stack check and the phase's
    clusters share."""
    if cover.spanning is None:
        spans = [cl for cl in cover.clusters if _spans_component(graph, cl)]
    else:
        spans = [cl for cl in cover.clusters if cl.id in cover.spanning]
    if len(set().union(*(cl.members for cl in spans))) < graph.n:
        return None
    return sorted(spans, key=lambda cl: cl.id)


def _spans_component(graph, cl):
    """Whether the cluster's members are closed under graph neighbours, so
    they are its whole connected component."""
    return all(u in cl.members for v in cl.members for u, _ in graph.neighbors(v))


def bfs_schedule(layered, hop_cap, graph):
    """Derive anchor, start round, cadence, and end round from measured trees.

    sigma gives every level >= 1 C_PIPE sweeps of its trees per frontier hop,
    except a level whose clusters each span their component: such a cluster
    holds its component's sources as terminals, so its init broadcast
    activates every child before t0 and no frontier flag has to climb it.
    The levels are those of `_phase_stack`."""
    B = layered.base
    max_depth = 0
    max_period = 1
    sigma = 4
    for lvl, clusters in enumerate(_phase_stack(graph, layered)[0]):
        d = max((cl.depth() for cl in clusters), default=0)
        p = max(1, B**lvl)
        max_depth = max(max_depth, d)
        max_period = max(max_period, p)
        if lvl >= 1 and not all(_spans_component(graph, cl) for cl in clusters):
            need = (C_PIPE * (d + p) // max(1, p // 2)) + 1
            sigma = max(sigma, need)
    init_len = 4 * (max_depth + max_period) + 32
    anchor = 1
    t0 = anchor + init_len
    drain = 4 * (max_depth + max_period) + 32
    t_end = t0 + (hop_cap + 1) * sigma + drain
    return BfsParams(anchor, t0, sigma, hop_cap, t_end)


def run_thresholded_bfs_with_cover(graph, layered, sources, threshold, *,
                                   trace=True):
    """The sleeping-model BFS phase given a layered cover; returns
    (hop outputs, report, engine)."""
    params = bfs_schedule(layered, threshold, graph)
    roles = _roles_for(graph, layered)
    records = _record_cap(graph.n, layered)
    cfg = SimConfig(
        round_limit=params.t_end + 8,
        width=_bfs_width(graph.n, layered),
        collect_trace=trace,
    )
    src = set(sources)
    return run_simulation(
        graph, lambda v: EnergyBfsProgram(v, graph, roles[v], v in src, params,
                                          records),
        cfg)


def _record_cap(n, layered):
    """The (level, cid, code) records one `EB_PIPE` message carries within
    the bit budget of the unit-weight graph on n nodes, with levels up to
    the stack's top and cluster ids up to its largest (at least 1: a record
    past the budget is the engine's bit audit to report)."""
    top_cid = max((cl.id for cover in layered.levels for cl in cover.clusters),
                  default=0)
    return max(1, _records_per_message(
        n, EB_PIPE, (layered.top, top_cid, CODE_MAX)))


def _bfs_width(n, layered):
    """The BFS phase's megaround width. A role sends at most one record on a
    channel in a round, so a channel carries at most the stack's edge
    multiplicity in records, `_record_cap` to a message, plus one `EB_REACH`."""
    return -(-layered.max_edge_multiplicity() // _record_cap(n, layered)) + 1


def full_bfs(graph, sources, *, threshold=None, base=None, trace=True,
             layered=None):
    """Hop distances from the source set with time/energy metering; returns
    (outputs, report, BFS-phase engine, layered cover, decompositions, cover
    traces).

    Builds the cover stack (`grow_cover_stack`), then runs the pipelined BFS
    on the clusters of `_phase_stack`; nodes farther than a given threshold
    output INF. A prebuilt layered cover may be passed to skip construction
    (the cover cache path)."""
    reports, decomps, tlogs = [], [], []
    if layered is None:
        layered, decomps, reports, tlogs = grow_cover_stack(
            graph, base=base, threshold=threshold, trace=trace)
    else:
        fault = stack_fault(graph, layered, threshold)
        if fault is not None:
            raise ValueError(fault)
    threshold = _bfs_threshold(layered, threshold)
    outputs, rep, engine = run_thresholded_bfs_with_cover(
        graph, layered, sources, threshold, trace=trace)
    reports.append(rep)
    return outputs, merge_reports(reports), engine, layered, decomps, tlogs


def _bfs_threshold(layered, threshold=None):
    """The hop threshold `full_bfs` runs the BFS phase to on a cover stack:
    the given one, or twice the stack's deepest tree plus 2."""
    if threshold is not None:
        return threshold
    return 2 * max(layered.max_tree_depth(lvl) for lvl in range(layered.top + 1)) + 2


def stack_fault(graph, layered, threshold=None):
    """Why the BFS phase cannot run on a cover stack to `_bfs_threshold`, or
    None. It needs what `grow_cover_stack` stops at: a top level in which every
    node lies in a cluster that spans its component (`_spanned`), or
    base**top at least twice the threshold."""
    threshold = _bfs_threshold(layered, threshold)
    reach = layered.base**layered.top
    spans = _spanned(graph, layered.levels[-1])
    if reach >= 2 * threshold or spans is not None:
        return None
    return (f"no level has every node in a cluster that spans its component, "
            f"and base**top = {reach} is below 2 x threshold {threshold}")
