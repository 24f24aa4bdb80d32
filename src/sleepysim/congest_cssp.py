"""Exact closest-source shortest paths with polylog per-edge congestion.

The algorithm runs a threshold-halving recursion per node as a stack of
*frames*. Each frame, identified by an integer path id that rides on every
message, executes on its active node set:

  1. base case (threshold 1): one probe round, sent to the peers the frame
     inherits, resolves outputs;
  2. a deterministic spanning-forest computation (Boruvka merge phases in
     fixed round windows sized by the frame's node bound). In phase 0 every
     member sends its component id to each neighbour that may be in the
     frame (all neighbours at the root, else the parent frame's peers); the
     senders are the frame's *peers*, its neighbours inside the frame. A
     later phase sends the id only to peers not yet seen in its own
     component: one component stays one (Gallager-Humblet-Spira's rule that
     an internal edge is never tested again). A near child (step 5) also
     votes in phase 0's idle sweep slots, over its parent frame's tree,
     whether it kept that whole component (`_same_up`); if so, it takes the
     parent's tree and census in phase 0's merge round and merges nothing;
  3. a census rides on the phase whose min-edge convergecast finds no
     outgoing edge (their rule for detecting that a fragment is whole):
     subtrees report their size instead, in the root frame also the
     tree's weighted height h, and the root's decision carries the size
     and the threshold max(2, min(D, pow2(2h + 1))): no distance in the
     component exceeds 2h. So the recursion starts at the component's own
     span, not at n * maxW; a non-root frame keeps half its parent's
     threshold. A forest-only run (`boruvka_forest`) gathers the height in
     hops instead, and its decision carries that height down as it is.
     The cutter starts in that phase's merge round: the component shares
     no edge with the frame's others, still merging;
  4. an approximate distance cutter: weights rounded up to multiples of
     tau = W/(2*N), then a token BFS where an edge of rounded weight a*tau
     delays a rounds, run for 6*N ticks. A node fixes its tick once every
     tick of the step is read, and sends it to the peers whose own tick has
     not reached it yet; the others ignore it. A better candidate withdraws
     the wake-up planned for a worse one;
  5. recursion on the near set with half the threshold; completion detected
     per component by an event-driven convergecast over the spanning tree,
     after which the root schedules the second recursion a safe margin ahead
     and broadcasts the start round. Where every node of a component is
     near, the near child runs on the same induced subgraph, and any
     spanning tree of it serves, so the child reuses its parent's; a child
     that decides not to loses no round to the vote;
  6. finished nodes announce their distances to the peers that lie beyond
     D/2 through them, so cut neighbors can simulate the imaginary sources
     sitting on the crossing edges;
  7. recursion on the remaining set from those simulated sources; outputs
     compose as half-threshold + cut distance.

All distance arithmetic is exact integer tick counting; nothing floats.
A frame is forgotten in the step it completes, except the root frame, which
holds the answer; the forest phases' scratch goes when the cutter starts.

Sends in fixed windows go at once (`_send_slot`). Sends that answer an
event (adoption acknowledgements, completion and start-time messages) join
one queue per neighbour (`_send_queued`), and at the end of each step a free
channel takes the first one due. A message is due in the rounds `_slots`
gives: every round here; the sleeping flavor holds completion messages to
its pipe slots.
"""

from __future__ import annotations

from math import inf

from .engine import Message, PlannedProgram, SimConfig, run_simulation
from .structures import ForestInfo

INF = inf

# message tags
T_COMP = 1
T_MINEDGE = 2
T_DECIDE = 3
T_CHOSEN = 4
T_ADOPT = 5
T_ACK = 6
T_CUT = 9
T_BASE = 10
T_DONE1 = 11
T_START2 = 12
T_OUTANN = 13
T_DONE2 = 14
T_FDONE = 15
T_SAME = 16
T_SAMEB = 17


def pow2_at_least(x: int) -> int:
    d = 1
    while d < x:
        d <<= 1
    return d


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def root_threshold(D_top: int, height: int) -> int:
    """The root frame's threshold in a component whose spanning tree has
    weighted height `height`: no distance there exceeds twice the height
    (the tree-height bound on eccentricity). At least 2, so that its child
    frames keep a threshold of 1 or more."""
    return max(2, min(D_top, pow2_at_least(2 * height + 1)))


def lift_zero_weights(graph):
    """Zero weights become 1; positive weight w becomes n*w."""
    n = graph.n
    return graph.reweighted(lambda w: 1 if w == 0 else n * w)


def project_distance(x, n: int):
    """Map a distance in the lifted graph back: floor(x/n); INF stays INF."""
    if x is INF or x is None:
        return INF
    return x // n


class _Frame:
    """Per-node state of one recursion frame."""

    __slots__ = (
        "path", "D", "N", "t0", "src", "offsets", "peers",
        "comp", "parent", "children", "depth", "size", "phase",
        "nbr_comp", "inside", "agg", "decision", "merging_done", "in_chosen",
        "pend_size", "pend_height", "unacked", "window", "t_cut", "cand",
        "tick", "ticked", "v1", "t_child1", "start2", "v2", "offsets2",
        "done_self", "done_kids", "sent_done", "out", "final", "complete",
        "pipe", "same", "reuse",
    )

    def __init__(self, path, D, N, t0, src, offsets, peers):
        self.path = path
        self.D = D
        self.N = N
        self.t0 = t0
        self.src = src
        self.offsets = offsets  # imaginary-source edge lengths ending here
        # neighbours that may be in the frame, in neighbour order: inherited
        # from the parent frame, narrowed to the frame's own in phase 0's
        # merge round
        self.peers = peers
        self.comp = None
        self.parent = None
        self.children = []
        self.depth = 0
        self.size = 1
        self.phase = 0
        # forest-phase scratch, set by each phase: outside peers' component
        # ids, peers known to share the component, chosen edges received
        self.nbr_comp = None
        self.inside = None
        self.in_chosen = None
        self.agg = None
        self.decision = None
        self.merging_done = False
        # this phase's census of the subtrees below with no outgoing edge
        self.pend_size = 0
        self.pend_height = 0  # largest depth below, root frame only
        self.unacked = 0  # this phase's adoptions sent and not acknowledged
        self.window = None  # handle of the adoption or cutter window
        self.t_cut = None
        self.cand = None
        self.tick = None
        self.ticked = None  # peers whose tick arrived, while the cutter runs
        self.v1 = False
        self.t_child1 = None
        self.start2 = None
        self.v2 = False
        self.offsets2 = []
        # per child, indexed by its path parity: 0 near (half threshold),
        # 1 far (from the cut sources)
        self.done_self = [False, False]
        self.done_kids = [set(), set()]
        self.sent_done = [False, False]
        self.out = [INF, INF]
        self.final = None
        self.complete = False
        self.pipe = None  # completion pipe's handle, in the sleeping flavor
        # a near child's phase-0 vote over its parent frame's tree: T_SAME
        # heard from that tree's children, and whether the whole component
        # is here, so the child keeps the parent's tree
        self.same = 0
        self.reuse = False


class CsspProgram(PlannedProgram):
    """Node program for the threshold-halving recursion (congest flavor).

    Planned actions take the frame path as their first argument and run only
    while that frame exists."""

    def __init__(self, node, graph, sources, D_top, *, forest_only=False):
        super().__init__(node, graph)
        self.weight = dict(graph.neighbors(node))
        self.n = graph.n
        self.is_source = node in sources
        self.D_top = D_top
        self.forest_only = forest_only
        self.frames: dict[int, _Frame] = {}
        self._queue: dict[int, list] = {}  # dst -> [[round, period, msg]]
        self._sent_now: set = set()
        self._answer = None
        self._root_done = False

    # -- plumbing ----------------------------------------------------------

    def _act(self, api, action, args):
        f = self.frames.get(args[0])
        if f is not None:
            getattr(self, action)(api, f, *args[1:])

    def _send(self, api, dst, msg, critical=False):
        """Mark the channel to dst used this round and put msg on the wire."""
        self._sent_now.add(dst)
        api.send(dst, msg, critical)

    def _trace(self, api, kind, **data):
        api.trace(kind, **data)

    def _send_slot(self, api, dst, msg):
        if dst in self._sent_now:
            raise AssertionError(
                f"slotted send collision node {self.node} -> {dst} round {api.round}"
            )
        self._send(api, dst, msg)

    def _send_queued(self, api, dst, msg):
        """Queue msg for the channel to dst, to go in the first of its rounds
        (`_slots`) in which the channel is free."""
        period, residue = self._slots(msg)
        first = api.round + (residue - api.round) % period
        self._queue.setdefault(dst, []).append([first, period, msg])

    def _slots(self, msg):
        """The rounds msg may go in, as (period, residue): those congruent to
        residue mod period. A congest node may send in every round; a
        message held to slots of a longer period goes critical, since its
        receiver listens in them."""
        return 1, 0

    def _period(self, f):
        """The period of frame f's completion messages (`_slots`)."""
        return 1

    # -- engine entry -------------------------------------------------------

    # The shared step, bound by name so that a profile books these steps to
    # this class.
    on_round = PlannedProgram.on_round

    def _start(self, api):
        self._awake_from_start(api)
        self._enter(api, _Frame(1, self.D_top, max(1, self.n), api.round,
                                self.is_source, [], self.nbrs))

    def _end_step(self, api):
        """Send on each free channel the first queued message due, and move
        every other due one to its next round; then wake at the earliest
        queued round (`_queue` holds only pending sends), or finish once the
        root frame is done and nothing is queued."""
        queue, now, sent_now = self._queue, api.round, self._sent_now
        for dst in sorted(queue):
            kept = []
            for item in queue[dst]:
                r, period, msg = item
                if r > now:
                    kept.append(item)
                elif dst in sent_now:
                    # the node steps in each queued round, so r is now
                    item[0] = r + period
                    kept.append(item)
                else:
                    self._send(api, dst, msg, critical=period > 1)
            if kept:
                queue[dst] = kept
            else:
                del queue[dst]
        sent_now.clear()
        if queue:
            first = min(item[0] for q in queue.values() for item in q)
            api.wake_at(first, first - 1 if self._listen_before else None)
        elif self._root_done:
            api.finish(self._answer)

    def _awake_from_start(self, api):
        """Declare the node's awake time at its first step; congest nodes
        never sleep."""
        api.always_awake()

    def _dispatch(self, api, src, msg):
        f = self.frames.get(msg.ctx)
        if f is None:
            return
        tag = msg.tag
        if tag == T_COMP:
            comp = msg.payload[0]
            if comp == f.comp:
                f.inside.add(src)
            else:
                f.nbr_comp[src] = comp
        elif tag == T_CUT:
            self._on_cut(api, f, src, msg.payload[0])
        elif tag == T_MINEDGE:
            self._on_minedge(api, f, src, msg.payload)
        elif tag == T_DECIDE:
            self._on_decide(api, f, msg.payload)
        elif tag == T_CHOSEN:
            f.in_chosen.append(src)
        elif tag == T_ADOPT:
            self._on_adopt(api, f, src, msg.payload)
        elif tag == T_ACK:
            f.children.append(src)
            f.unacked -= 1
            self._adoption_settled(api, f)
        elif tag == T_BASE:
            self._on_base_probe(api, f, src)
        elif tag == T_DONE1 or tag == T_DONE2:
            i = int(tag == T_DONE2)
            f.done_kids[i].add(src)
            self._check_done(api, f, i)
        elif tag == T_START2:
            self._on_start2(api, f, msg.payload[0])
        elif tag == T_OUTANN:
            self._on_outann(api, f, src, msg.payload[0])
        elif tag == T_FDONE:
            self._on_fdone(api, f)
        elif tag == T_SAME:
            f.same += 1
        elif tag == T_SAMEB:
            self._on_sameb(api, f)

    # -- frame lifecycle ----------------------------------------------------

    def _enter(self, api, f):
        self.frames[f.path] = f
        if not self._sets_threshold(f) or f.D == 1 or f.N == 1:
            # a root frame with a forest learns its threshold in `_on_decide`
            self._trace_frame(api, f)
        f.comp = self.node
        if f.D == 1:
            if f.src:
                for u in f.peers:
                    self._send_slot(api, u, Message(T_BASE, (), f.path))
            # base-case probes arrive in the frame's opening round
            api.awake_span(f.t0, f.t0 + 1)
            self._plan_at(api, f.t0 + 1, "_base_resolve", f.path)
            return
        if f.N == 1:
            f.size = 1
            f.t_cut = f.t0
            self._after_census(api, f)
            self._start_cutter(api, f)
            return
        self._phase_start(api, f)

    def _trace_frame(self, api, f):
        self._trace(api, "frame", path=f.path, D=f.D, N=f.N,
                    src=f.src, offsets=tuple(f.offsets))

    def _base_resolve(self, api, f):
        if f.src:
            f.final = 0
        elif f.offsets and min(f.offsets) == 1:
            f.final = 1
        else:
            f.final = INF
        self._frame_complete(api, f)

    def _on_base_probe(self, api, f, src):
        # a weight-1 edge from a probing source acts like an offset-1 source
        if f.D == 1 and not f.src and self.weight[src] == 1:
            f.offsets.append(1)

    # -- spanning forest (merge phases in fixed windows) ----------------------

    def _phase_count(self, f):
        # each merge phase at least halves a frame's components, so every
        # component meets a phase that finds no outgoing edge
        return (f.N - 1).bit_length() + 1

    def _phase_len(self, f):
        return 3 * (f.N + 2) + 4

    def _phase_base(self, f, p):
        return f.t0 + p * self._phase_len(f)

    def _sweep(self, api, f, base, depth, action):
        """Fixed-window convergecast (`action` at this node, at `depth` in
        the tree) and broadcast: the node listens in rounds
        base + N + depth .. +2, where the root's broadcast reaches it."""
        self._sweep_step(api, base, f.N, depth, action, f.path)
        api.awake_span(base + f.N + depth, base + f.N + depth + 2)

    def _phase_start(self, api, f):
        p = f.phase
        assert p < self._phase_count(f), "component still has an outgoing edge"
        base = self._phase_base(f, p)
        if p == 0:
            f.inside = set()
        f.nbr_comp = {}
        f.agg = None
        f.decision = None
        f.in_chosen = []
        f.pend_size = f.pend_height = 0
        inside = f.inside
        for u in f.peers:
            if u not in inside:
                self._send_slot(api, u, Message(T_COMP, (f.comp,), f.path))
        self._sweep(api, f, base, f.depth, "_root_decide" if f.parent is None
                    else "_send_minedge")
        if p == 0 and f.path % 2 == 0:
            # a near child asks, over its parent frame's tree, whether it
            # kept that whole component, and listens for the answer at its
            # depth there; phase 0 has no tree of its own to sweep, so the
            # slots are free
            self._sweep(api, f, base, self.frames[f.path // 2].depth,
                        "_same_up")
        W = f.N + 2
        self._plan_at(api, base + 2 * W + 1, "_send_chosen", f.path)
        # stay up through the adoption wave of this phase, until this node
        # is adopted and the nodes it adopted have acknowledged
        f.window = api.awake_window(base + 2 * W + 1, base + 3 * W + 4)

    def _best_edge(self, f):
        """Fold this node's own outgoing candidate into the best one its
        subtree reported; returns the merged (key, (w, a, b)) or None."""
        for u in sorted(f.nbr_comp):
            w = self.weight[u]
            key = (w, min(self.node, u), max(self.node, u))
            if f.agg is None or key < f.agg[0]:
                f.agg = (key, (w, self.node, u))
        return f.agg

    def _on_minedge(self, api, f, src, payload):
        if payload[0]:
            # no outgoing edge below src: the report is its subtree's census
            self._on_size(f, src, payload[1:])
            return
        _, w, a, b = payload
        key = (w, min(a, b), max(a, b))
        if f.agg is None or key < f.agg[0]:
            f.agg = (key, (w, a, b))

    def _send_minedge(self, api, f):
        best = self._best_edge(f)
        payload = (1, *self._census(f)) if best is None else (0, *best[1])
        self._send_slot(api, f.parent, Message(T_MINEDGE, payload, f.path))

    def _root_decide(self, api, f):
        best = self._best_edge(f)
        # with no outgoing edge the component is whole: decide its census
        self._on_decide(api, f, self._census(f) if best is None else best[1])

    def _on_decide(self, api, f, payload):
        """The chosen edge (w, a, b), or the component's census where it has
        no outgoing edge: its size, in a root frame with its threshold, and
        in a forest's with its hop height."""
        for c in f.children:
            self._send_slot(api, c, Message(T_DECIDE, payload, f.path))
        f.merging_done = len(payload) < 3
        f.decision = () if f.merging_done else payload
        if f.merging_done:
            # no adoption wave passes here
            api.stop_awake(f.window, api.round)
            f.size, *census = payload
            if self._sets_threshold(f):
                f.D = census[0]
                self._trace_frame(api, f)
            elif census:
                f.pend_height = census[0]  # the forest's height
            self._after_census(api, f)

    def _send_chosen(self, api, f):
        if f.phase == 0:
            # every member sent its phase-0 id to all peers it inherited,
            # and all have arrived: the neighbours heard from are the
            # frame's own peers
            heard = f.nbr_comp
            f.peers = [u for u in f.peers if u in heard]
        if f.reuse:
            # take the parent frame's tree and census: nothing to merge
            api.stop_awake(f.window, api.round)
            pf = self.frames[f.path // 2]
            f.parent, f.children, f.depth = pf.parent, pf.children, pf.depth
            f.size, f.comp = pf.size, pf.comp
        if f.reuse or f.merging_done:
            # the component is whole and knows its size: the cutter starts
            # now, skipping the later phases, and the forest scratch goes
            f.nbr_comp = f.inside = f.in_chosen = None
            f.t_cut = api.round
            self._start_cutter(api, f)
            return
        if f.decision and f.decision[1] == self.node:
            self._send_slot(api, f.decision[2], Message(T_CHOSEN, (), f.path))
        self._plan_at(api, api.round + 1, "_merge_kickoff", f.path)
        self._plan_at(api, self._phase_base(f, f.phase + 1), "_phase_end",
                      f.path)

    def _merge_kickoff(self, api, f):
        # core edge: my chosen target also chose me over the same edge
        if f.decision and f.decision[1] == self.node:
            other = f.decision[2]
            if other in f.in_chosen and self.node == min(self.node, other):
                links = self._merge_edges(f)
                f.parent = None
                f.depth = 0
                f.comp = self.node
                f.children = []
                for u in links:
                    self._send_slot(api, u, Message(T_ADOPT, (self.node, 0), f.path))
                f.unacked = len(links)  # the core edge is one of them

    def _merge_edges(self, f):
        """Local edges of the merged structure: old tree + chosen + received."""
        out = set(f.children)
        if f.parent is not None:
            out.add(f.parent)
        if f.decision and f.decision[1] == self.node:
            out.add(f.decision[2])
        out.update(f.in_chosen)
        return sorted(out)

    def _on_adopt(self, api, f, src, payload):
        root, d = payload
        links = self._merge_edges(f)
        f.comp = root
        f.parent = src
        f.depth = d + 1
        f.children = []
        forwards = [u for u in links if u != src]
        for u in forwards:
            self._send_slot(api, u, Message(T_ADOPT, (root, d + 1), f.path))
        f.unacked = len(forwards)
        self._send_queued(api, src, Message(T_ACK, (), f.path))
        self._adoption_settled(api, f)

    def _adoption_settled(self, api, f):
        """Once adopted and acknowledged by every node it adopted, a node
        takes no further part in this phase's adoption wave."""
        if f.unacked == 0:
            api.stop_awake(f.window, api.round)

    def _phase_end(self, api, f):
        f.phase += 1
        self._phase_start(api, f)

    def _same_up(self, api, f):
        """Convergecast over the parent frame's tree: a node reports once
        every child there has, and only if its own parent there is in this
        frame (it sent its phase-0 id). The root, so reached, has the whole
        component and broadcasts reuse; silence means build as usual."""
        pf = self.frames[f.path // 2]
        if f.same < len(pf.children):
            return
        if pf.parent is None:
            self._on_sameb(api, f)
        elif pf.parent in f.nbr_comp:
            self._send_slot(api, pf.parent, Message(T_SAME, (), f.path))

    def _on_sameb(self, api, f):
        f.reuse = True
        for c in self.frames[f.path // 2].children:
            self._send_slot(api, c, Message(T_SAMEB, (), f.path))

    # -- component census ------------------------------------------------------

    def _sets_threshold(self, f):
        """The root frame's census, on the no-edge phase's min-edge reports,
        also gathers the tree's weighted height for the root's threshold."""
        return f.path == 1 and not self.forest_only

    def _on_size(self, f, src, payload):
        f.pend_size += payload[0]
        if len(payload) > 1:
            hop = 1 if self.forest_only else self.weight[src]
            f.pend_height = max(f.pend_height, payload[1] + hop)

    def _census(self, f):
        """This subtree's census, (size[, height]); at the root, the
        component's (size[, threshold]). The root frame's height is the
        tree's weighted height, a forest's its height in hops, which the
        root passes down as it is."""
        size = 1 + f.pend_size
        if f.path != 1:
            return (size,)
        if f.parent is None and not self.forest_only:
            return size, root_threshold(f.D, f.pend_height)
        return size, f.pend_height

    def _after_census(self, api, f):
        if self.forest_only and f.path == 1:
            self._answer = (f.comp, f.parent, f.depth, f.size, f.pend_height)
            self._root_done = True

    # -- approximate cutter -------------------------------------------------------

    def _tick_weight(self, f, w):
        return ceil_div(2 * f.N * w, f.D)

    def _start_cutter(self, api, f):
        if self.forest_only:
            return
        k = 6 * f.N
        cand = None
        if f.src:
            cand = 0
        for o in f.offsets:
            t = self._tick_weight(f, o)
            if cand is None or t < cand:
                cand = t
        f.cand = cand
        f.ticked = set()
        # a node cannot know when the tick wave reaches it, but once its own
        # tick is final it reads no further tick
        f.window = api.awake_window(f.t_cut, f.t_cut + k + 2)
        if cand is not None and cand <= k:
            # the node listens through the window until it runs
            self._plan_at(api, f.t_cut + cand, "_cut_finalize", f.path,
                          in_window=True)
        self._plan_at(api, f.t_cut + k + 2, "_cutter_done", f.path)

    def _on_cut(self, api, f, src, tick):
        if f.tick is not None or f.ticked is None:
            return
        f.ticked.add(src)
        cand = tick + self._tick_weight(f, self.weight[src])
        k = 6 * f.N
        if cand <= k and (f.cand is None or cand < f.cand):
            if f.cand is not None and f.cand <= k:
                # a superseded plan is for a later round: withdraw it
                self._unplan(api, f.t_cut + f.cand, "_cut_finalize", f.path)
            f.cand = cand
            if f.t_cut + cand == api.round:
                # the ticks later in this inbox count before this node sends
                self._plan_after_inbox(api, "_cut_finalize", f.path)
            else:
                self._plan_at(api, f.t_cut + cand, "_cut_finalize", f.path,
                              in_window=True)

    def _cut_finalize(self, api, f):
        f.tick = f.cand
        api.stop_awake(f.window, api.round)
        ticked, f.ticked = f.ticked, None
        for u in f.peers:
            if u not in ticked:
                self._send_slot(api, u, Message(T_CUT, (f.tick,), f.path))

    def _cutter_done(self, api, f):
        f.ticked = None
        f.v1 = f.tick is not None and f.tick < 3 * f.N
        self._trace(api, "cutter", path=f.path, tick=f.tick, v1=f.v1,
                    reuse=f.reuse, size=f.size)
        f.t_child1 = api.round
        if f.v1:
            child = _Frame(f.path * 2, f.D // 2, f.size, f.t_child1,
                           f.src, list(f.offsets), f.peers)
            self._enter(api, child)
        else:
            f.done_self[0] = True
        self._check_done(api, f, 0)

    # -- recursion bookkeeping ---------------------------------------------------

    def _child_complete(self, api, child):
        parent = self.frames.get(child.path // 2)
        if parent is None:
            return
        i = child.path % 2
        parent.out[i] = child.final
        parent.done_self[i] = True
        self._check_done(api, parent, i)

    def _check_done(self, api, f, i):
        """Convergecast the completion of child i (0 near, 1 far) once it
        started here, finished here and in every subtree. The root then
        schedules the far child (i = 0) or closes the frame (i = 1)."""
        started = f.start2 if i else f.t_child1
        if f.sent_done[i] or started is None or not f.done_self[i]:
            return
        kids = f.done_kids[i]
        if not all(c in kids for c in f.children):
            return
        f.sent_done[i] = True
        if f.parent is not None:
            tag = T_DONE2 if i else T_DONE1
            self._send_queued(api, f.parent, Message(tag, (), f.path))
        elif i:
            self._on_fdone(api, f)
        else:
            # The lead covers the start broadcast. Its first down slot comes
            # within one period P (`_period`) of this round. A node reads it
            # in its own down slot and forwards it there, so a node at depth
            # d <= size - 1 reads it d rounds later. Each slot's channel is
            # free: the node's other frames are ancestors, which wait, and
            # descendants, which are complete. The last node so reads it by
            # now + (P - 1) + (size - 1), before start2.
            lead = self._period(f) + f.size + 2
            self._on_start2(api, f, api.round + lead)

    def _on_start2(self, api, f, start2):
        if f.start2 is not None:
            return
        if start2 <= api.round:
            raise AssertionError(
                f"start-time broadcast arrived late at node {self.node}"
            )
        f.start2 = start2
        for c in f.children:
            self._send_queued(api, c, Message(T_START2, (start2,), f.path))
        self._plan_at(api, start2, "_announce_out", f.path)
        self._plan_at(api, start2 + 1, "_start_child2", f.path)

    def _announce_out(self, api, f):
        f.v2 = f.v1 and f.out[0] is not INF
        if f.v2:
            half = f.D // 2
            for u in f.peers:
                # a peer within D/2 through this node is v2 itself and
                # would ignore the announcement
                if f.out[0] + self.weight[u] > half:
                    self._send_slot(api, u, Message(T_OUTANN, (f.out[0],), f.path))

    def _on_outann(self, api, f, src, dist):
        if f.v1 and not f.v2 and f.out[0] is INF:
            off = dist + self.weight[src] - f.D // 2
            assert off >= 1, "cut offset must be positive"
            f.offsets2.append(off)

    def _start_child2(self, api, f):
        if f.v1 and not f.v2:
            # an imaginary source is itself within D/2, so the cut slides
            # forward through its simulated edge: offset o becomes o - D/2
            half = f.D // 2
            inherited = [o - half for o in f.offsets]
            assert all(o >= 1 for o in inherited), "imaginary source behind cut"
            child = _Frame(f.path * 2 + 1, half, f.size, api.round,
                           False, sorted(f.offsets2 + inherited), f.peers)
            self._enter(api, child)
        else:
            f.done_self[1] = True
        self._check_done(api, f, 1)

    def _on_fdone(self, api, f):
        if f.complete:
            return
        for c in f.children:
            self._send_queued(api, c, Message(T_FDONE, (), f.path))
        near, far = f.out
        if f.v2:
            f.final = near
        elif f.v1:
            f.final = (f.D // 2) + far if far is not INF else INF
        else:
            f.final = INF
        self._frame_complete(api, f)

    def _frame_complete(self, api, f):
        f.complete = True
        if f.path == 1:
            self._answer = f.final
            self._root_done = True
        else:
            self._child_complete(api, f)
            self._release(f)

    def _release(self, f):
        """Forget a completed non-root frame: no message or planned action
        names it any more."""
        del self.frames[f.path]


# -- public API ----------------------------------------------------------------


def default_round_limit(n: int, D: int) -> int:
    levels = max(1, D.bit_length())
    logn = max(1, (max(2, n) - 1).bit_length())
    return 256 + 24 * n * levels * (4 * logn + 20)


def run_thresholded_cssp(graph, sources, D, *, program=CsspProgram,
                         round_limit=None, trace=True):
    """Run the distributed D-thresholded computation with node programs of
    class `program` (congest or sleeping); returns (outputs, report, engine).
    An unset or zero `round_limit` means `default_round_limit`; a negative
    one raises ValueError."""
    if round_limit is not None and round_limit < 0:
        raise ValueError("round_limit must be >= 0")
    if D & (D - 1):
        raise ValueError("threshold must be a power of two")
    if not sources:
        raise ValueError("need at least one source")
    if any(w < 1 for (_, _, w) in graph.edges):
        raise ValueError("thresholded run requires weights >= 1 (lift zeros first)")
    cfg = SimConfig(round_limit=round_limit or default_round_limit(graph.n, D),
                    collect_trace=trace)
    src = set(sources)
    return run_simulation(graph, lambda v: program(v, graph, src, D), cfg)


def boruvka_forest(graph, *, program=CsspProgram) -> tuple:
    """Maximal spanning forest of the graph; every node learns its component
    id, parent, depth, component size and the component tree's height in
    hops, whatever the weights. `program` is the node program class,
    congest or sleeping: both build the same forest in the same rounds."""
    cfg = SimConfig(round_limit=default_round_limit(graph.n, 2),
                    collect_trace=False)
    outputs, report, engine = run_simulation(
        graph, lambda v: program(v, graph, set(), 2, forest_only=True), cfg)
    comp, parent, depth, size, height = {}, {}, {}, {}, {}
    for v in range(graph.n):
        comp[v], parent[v], depth[v], size[v], height[v] = outputs[v]
    return ForestInfo(comp, parent, depth, size, height), report, engine


def cssp(graph, sources, *, program=CsspProgram, round_limit=None, trace=True):
    """Exact dist(S, v) for every node; lifts zero weights if present and
    projects the answers back."""
    has_zero = any(w == 0 for (_, _, w) in graph.edges)
    work = lift_zero_weights(graph) if has_zero else graph
    D = pow2_at_least(max(1, work.n * work.max_weight))
    outputs, report, engine = run_thresholded_cssp(
        work, sources, D, program=program, round_limit=round_limit, trace=trace
    )
    if has_zero:
        outputs = {v: project_distance(d, graph.n) for v, d in outputs.items()}
    return outputs, report, engine
