"""Deterministic separated network decomposition and sparse cover construction.

The construction colors the graph in rounds of label-driven cluster growth:
per color, ceil(log2 n) phases split living nodes into blue and red by one
label bit; per step, unstopped blue clusters flood join proposals to hop
distance k, reached reds request to join the first-arriving proposal (ties
to the smallest cluster id), cluster roots count proposers over their
Steiner trees and either absorb them (the tree grows along the proposal
paths, proposers recolor blue) or reject them (the proposers die and the
cluster stops for the phase). Dead and already-colored nodes keep relaying
and remain as nonterminal tree nodes.

Sequencing is fully in-protocol: every sub-window is round arithmetic from
depths the component measures, and step/phase/color transitions are decided
by a barrier aggregation over the component spanning tree, which also
carries the component's deepest role up and back down.

Cover mode appends one expansion wave per color, growing each cluster to its
d-neighborhood and recording the expanded trees, then one count of each
expanded cluster's terminals toward its root. A cluster's members lie in one
connected tree, so it spans its component exactly when its root counts the
component's size, which the forest's census measures (`ForestInfo.size`);
the roots' flags come back as `Cover.spanning`. Each node outputs its color
("color"), its roles in the decomposition's and the cover's trees as
(color, label, parent, depth, terminal) ("decomp", "cover") and the ids of
the spanning clusters it roots ("spanning"); `build_decomposition`
assembles the clusters from them.

Nodes sleep. The spanning forest is built by sleeping `EnergyCsspProgram`
nodes (`forest_only=True`, `cover_forest`; the covers of one `full_bfs` run
share one), and a decomposition node wakes for the rounds in
which it acts and, since a message sent in round s is read in the step at
s + 1, listens in [s, s + 1] for each round s in which one can reach it.
With a step starting at base, t_join = base + k + 2, t_cnt = t_join + k + 2,
t_dec = t_cnt + rho + 2 and t_bar = t_dec + rho + k + 3, those rounds are
as below. rho is the largest role depth in the component when the last
barrier swept it (0 at a color's start), which bounds every tree the step
counts over; a step grows a tree by at most k hops (Rozhon-Ghaffari), so the
decision wave reaches depth at most rho + k before t_bar, and the next
barrier carries the new depth. H is the height of the component's spanning
forest tree, which the forest's census measures (`ForestInfo.height`).
A sweep that finds a node deeper than its cap raises `ProtocolViolation`
(`PlannedProgram._sweep_step`).

  - PD_PROP, PD_EXP (the floods): a flood's source is hop 0, and a message
    moves one hop per round until its hop reaches the flood's radius. A
    node h hops from the nearest source first reads it in round t = a + h,
    where a is the flood's start, forwards it at t to every neighbour except
    those it read from at t, which are nearer, and listens from a through
    t + 1 (a + radius if none reaches it): after t the only messages of the
    flood it receives come at t from neighbours as near as itself. Join
    proposals start at a = base, from the terminals of unstopped blue
    clusters, with radius k; the expansion of color c starts at
    a = base + c(d + 3), from the members of its clusters, with radius d:
    clusters of one color lie more than 2d apart, so one wave reaches a node
    per color;
  - PD_JOIN: t_join + k - hop - 1 for a node holding a proposal of hop < k,
    t_join + k - 1 for a proposer;
  - PD_CNT: base + rho - depth for each role with kids in a cluster blue
    in the phase (only blue roots grow, and joins answer only blue
    proposals), the sweep starting at base: the phase start, which
    recounts terminals, or t_cnt, which counts joins;
  - PD_DEC: t_dec + depth - 1 for each non-root role of a blue cluster, and
    t_dec + st - 1 for a node that sent a join on a proposal with depth st;
  - PD_BUP: t_bar + H - fdepth - 1 for a node with forest kids;
  - PD_BDOWN: t_bar + H + fdepth for a non-root;
  - PD_CNT in the spanning count: t_span + cap - depth for every expanded
    role, with t_span = a + d + 4 after the last color's expansion start a
    and cap = rho_max + d, rho_max the largest depth the color barriers
    carried: an expansion role lies at most d below its source's role, and
    a role does not know its expansion kids, so each listens.

A flood message read after its window closed raises `ProtocolViolation`: it
was sent in the window's last round, so the node no longer listened in the
round it should have read it.

Every message is sent critical, so a message that reaches a sleeping node
raises `ProtocolViolation` instead of quietly changing the cover. The
rounds, decomposition and cover are the all-awake construction's; no wave
message goes to a nearer node, where the all-awake one dropped it unread.

Width. In every build measured, the only sends that coincide on one
channel in one round are the `PD_CNT` (label, count) or `PD_DEC` (label,
verdict) pairs of several roles on one tree edge. A step packs its pairs
(`PlannedProgram._pack`) and sends those of one tag for one neighbour
together when it ends, as one message with a flat pair payload,
P = (budget - tag bits) // (bits of a label <= n - 1 + bits of a value <= n)
pairs to a message, with the budget `engine.bit_budget` gives the unit
graph (P = 4 at n = 16..257). The run's width is
max(2, ceil(max(4, 2b + 2) / P)), so a channel still takes max(4, 2b + 2)
coinciding same-tag roles in a round, as many as when each pair was a
message of its own at width max(4, 2b + 2). The logical run is the same;
only its rounds and energy, logical rounds x width, fall. The spanning count
keys its pairs by cluster id, color x n + label, below 2b x n, so P' pairs
fit a message, with 2b x n in place of n in P (P' = 3 at n = 16..257); at
the same width a channel takes width x P' >= b + 1 coinciding roles for
n <= 4096, as many as the colors of a build whose every color halves the
living nodes.
"""

from __future__ import annotations

from .congest_cssp import boruvka_forest
from .energy_cssp import EnergyCsspProgram
from .engine import (
    Message, PlannedProgram, ProtocolViolation, SimConfig, SimError,
    _records_per_message, merge_reports, run_simulation,
)
from .structures import ClusterData, Cover, Decomposition

PD_PROP = 20
PD_JOIN = 21
PD_CNT = 22
PD_DEC = 23
PD_BUP = 25
PD_BDOWN = 26
PD_EXP = 27

V_STEP = 0
V_PHASE = 1
V_COLOR = 2
V_DONE = 3

DEC_GROW = 1
DEC_STOP = 0


def bits_for(n: int) -> int:
    return max(0, (max(1, n) - 1).bit_length())


def _pair_cap(n: int, keys: int | None = None) -> int:
    """The (key, value) pairs one `PD_CNT` or `PD_DEC` message carries
    within the bit budget of the unit-weight graph on n nodes: a key is below
    `keys` (a label, below n, by default) and a count or verdict at most n."""
    keys = n if keys is None else keys
    return _records_per_message(n, max(PD_CNT, PD_DEC), (keys - 1, n))


def _decomp_width(n: int) -> int:
    """The megaround width of a decomposition on n nodes: room for
    max(4, 2b + 2) coinciding same-tag roles on one channel, `_pair_cap(n)`
    to a message."""
    roles = max(4, 2 * bits_for(n) + 2)
    return max(2, -(-roles // _pair_cap(n)))


def promised_bounds(n: int, k: int | None = None) -> tuple:
    """The bounds this construction promises on n nodes, with b = bits_for(n)
    (at least 1), in the argument order of `oracle.check_cover` (no k: tree
    depth stretch 6b^3, node multiplicity 2b, edge multiplicity 6b^4) or of
    `oracle.check_decomposition` (k-separated: weak diameter 6kb^3, 2b
    colors)."""
    b = max(1, bits_for(n))
    if k is None:
        return 6 * b**3, 2 * b, 6 * b**4
    return 6 * k * b**3, 2 * b


class ConstructionError(SimError):
    """The construction exceeded its color or step budget (indicates a bug)."""


class _Role:
    """My position in one cluster's Steiner tree."""

    __slots__ = ("parent", "depth", "terminal", "kids")

    def __init__(self, parent, depth, terminal):
        self.parent = parent
        self.depth = depth
        self.terminal = terminal
        self.kids = []


class DecompProgram(PlannedProgram):
    """Sleeping node program building one decomposition (plus cover)."""

    def __init__(self, node, graph, forest, kids, k, *, expand_to=None):
        super().__init__(node, graph)
        self.k = k
        self.d = expand_to
        self.n = graph.n
        self.b = bits_for(graph.n)
        self.color_cap = max(1, 2 * bits_for(graph.n))
        self.step_cap = max(8, 10 * self.b * max(1, bits_for(graph.n)))
        self.fheight = forest.height[node]
        self.fsize = forest.size[node]
        self.fparent = forest.parent[node]
        self.fdepth = forest.depth[node]
        self.fkids = kids[node]  # forest.children(), computed once per run
        # color-scoped state
        self.color = 0
        self.phase = 0
        # the count and decision windows' depth cap: the component's largest
        # role depth at the last barrier, kept until the next decision wave
        self.rho = 0
        self.rho_max = 0  # the same over every color so far
        self.in_step = 0
        self.living = True
        self.dead = False
        self.label = node
        self.roles: dict[int, _Role] = {}
        self.root_size = 1
        self.root_stop = False
        self.stopped = False
        # results
        self.my_color = None
        self.my_cluster = None
        self.decomp_roles: list = []
        self.cover_roles: dict[int, _Role] = {}
        self.colors_used = 0
        self.spanning = []  # ids of the expanded clusters I root that span
        # per-step wave state
        self.flood = []  # the step's flood messages, (sender, message)
        self.prop = None  # (label, hop, st, wave parent)
        self.prop_window = [None, -1]  # [window handle, last listening round]
        self.exp_windows = []  # the same, one per color, in cover expansion
        self.t_join = None  # the round this step's join convergecast starts
        self.t_dec = None  # the round this step's cluster roots decide
        self.cnt_kids: dict[int, list] = {}
        self.join_acc: dict[int, int] = {}
        self.bar_active = False
        self.bar_dead = False
        self.bar_depth = 0
        self._acc: dict[int, int] = {}
        self._chunk = 2 * _pair_cap(graph.n)  # fields of the packed pairs

    # -- window arithmetic ----------------------------------------------------

    @staticmethod
    def _listen(api, s):
        """Receive what is sent in round s and read it in the step at s + 1."""
        api.awake_span(s, s + 1)

    @staticmethod
    def _open_window(api, a, b):
        return [api.awake_window(a, b), b]

    @staticmethod
    def _close_window(api, window, r):
        """Stop listening for a flood after round r."""
        api.stop_awake(window[0], r)
        window[1] = min(window[1], r)

    def _check_listening(self, api, window, what):
        """A flood message is read in the round after it is sent, at the
        latest in the window's last round; one read later was sent in that
        round, when no message of the flood may reach me."""
        if api.round > window[1]:
            raise ProtocolViolation(
                f"node {self.node} reads a {what} in round {api.round}, "
                f"after its window closed in round {window[1]}")

    # Bound by name so that a profile books these steps to this class.
    on_round = PlannedProgram.on_round

    def _start(self, api):
        self._plan_at(api, 1, "_color_start")

    def _dispatch(self, api, src, msg):
        tag = msg.tag
        if tag == PD_PROP or tag == PD_EXP:
            if not self.flood:
                self._plan_after_inbox(api, "_read_flood")
            self.flood.append((src, msg))
        elif tag == PD_JOIN:
            label, count = msg.payload
            self.join_acc[label] = self.join_acc.get(label, 0) + count
            self.cnt_kids.setdefault(label, []).append(src)
        elif tag == PD_CNT:
            pairs = msg.payload
            for label, count in zip(pairs[::2], pairs[1::2]):
                self._acc[label] = self._acc.get(label, 0) + count
        elif tag == PD_DEC:
            pairs = msg.payload
            for label, verdict in zip(pairs[::2], pairs[1::2]):
                self._on_dec(api, src, label, verdict)
        elif tag == PD_BUP:
            active, dead, depth = msg.payload
            self.bar_active = self.bar_active or bool(active)
            self.bar_dead = self.bar_dead or bool(dead)
            self.bar_depth = max(self.bar_depth, depth)
        elif tag == PD_BDOWN:
            self._on_verdict(api, *msg.payload)

    # -- color / phase / step sequencing ------------------------------------------

    def _color_start(self, api):
        if self.color >= self.color_cap:
            raise ConstructionError(
                f"color budget {self.color_cap} exhausted with living nodes"
            )
        self.living = self.my_color is None
        self.dead = False
        self.label = self.node
        self.roles = {}
        self.rho = 0
        self.phase = 0
        self.in_step = 0
        self.root_size = 1
        self.root_stop = False
        self._acc = {}
        if self.living:
            self.roles[self.node] = _Role(None, 0, True)
        self._prelude(api)

    def _prelude(self, api):
        """Phase start: recount terminals toward each tree root."""
        base = api.round
        if self.living:
            api.trace("phase_node", color=self.color, phase=self.phase,
                      label=self.label)
        self.stopped = False
        self.root_stop = False
        self._role_sweep(api, base, True)
        self._plan_step(api, base + self.rho + 3)

    def _role_sweep(self, api, base, recount):
        """Plan one count over the tree of every cluster blue in the phase,
        the only ones whose roots grow: a node at depth d sends up at
        base + 1 + rho - d, a root acts at base + rho + 2, and a role with
        kids listens from when they send. A recount counts terminals, a
        step's count the joins."""
        rho = self.rho
        for label in sorted(self.roles):
            if not self._is_blue(label):
                continue
            role = self.roles[label]
            is_root = role.parent is None
            self._sweep_step(api, base, rho, role.depth,
                             "_count_root" if is_root else "_count_up", label,
                             recount, lag=int(is_root), kids=bool(role.kids))

    def _plan_step(self, api, base):
        """Plan the step that starts in round base. The whole step is
        planned ahead: the roles and forest position it depends on change
        only in its decision wave, after every count, so only a proposer
        wakes at base."""
        self.in_step += 1
        if self.in_step > self.step_cap:
            raise ConstructionError("step budget exceeded within a phase")
        self.prop = None
        self.cnt_kids = {}
        self.join_acc = {}
        self.bar_active = False
        self.bar_dead = False
        self.bar_depth = 0
        k, rho = self.k, self.rho
        t_join = base + k + 2
        t_cnt = t_join + k + 2
        t_dec = t_cnt + rho + 2
        t_bar = t_dec + rho + k + 3
        self.t_join, self.t_dec = t_join, t_dec
        # rounds are declared roughly in ascending order, which the schedule
        # mostly appends
        mine = self.roles.get(self.label)
        proposer = (self.living and mine is not None and mine.terminal
                    and self._is_blue(self.label) and not self.stopped)
        if proposer:
            self._plan_at(api, base, "_propose", mine.depth)
        # proposals travel at most k hops; the window closes at the wave front
        self.prop_window = self._open_window(api, base, base + k)
        if proposer:
            self._listen(api, t_join + k - 1)  # joins from hop 1
        self._role_sweep(api, t_cnt, False)
        # a blue root's decision reaches depth d of its tree in t_dec + d - 1
        for label, role in self.roles.items():
            if role.parent is not None and self._is_blue(label):
                self._listen(api, t_dec + role.depth - 1)
        self._barrier(api, t_bar)

    def _is_blue(self, label):
        return ((label >> self.phase) & 1) == 0

    def _propose(self, api, depth):
        # every neighbour reads this proposal first and skips me when it
        # forwards: only other proposers' proposals reach me, sent now
        self._close_window(api, self.prop_window, api.round + 1)
        self._flood(api, PD_PROP, self.k, 0, (), self.label, depth)

    # -- floods -----------------------------------------------------------------------

    def _flood(self, api, tag, radius, hop, nearer, label, depth, *color):
        """Pass a flood message on from hop `hop` of its source (the source
        is hop 0) and depth `depth` of its tree, to every neighbour not in
        `nearer`, while hop is below the flood's radius."""
        if hop < radius:
            msg = Message(tag, (label, hop + 1, depth + 1) + color)
            for u in self.nbrs:
                if u not in nearer:
                    api.send(u, msg, critical=True)

    def _read_flood(self, api):
        """Read the step's flood messages after its whole inbox. The first by
        (cluster id, sender) decides; its senders are one hop nearer the
        source, and a flood message read after its window closed raises.
        One as near as I am sends to me in this round, and one farther away
        reads mine and skips me, so I listen through the next round only."""
        msgs, self.flood = self.flood, []
        src, msg = min(msgs, key=lambda m: (m[1].payload[0], m[0]))
        if msg.tag == PD_PROP:
            window, what, read = self.prop_window, "proposal", self._on_prop
        else:
            window, what = self.exp_windows[msg.payload[3]], "cover expansion"
            read = self._on_expand
        self._check_listening(api, window, what)
        self._close_window(api, window, api.round + 1)
        read(api, src, msg.payload, {u for u, _ in msgs})

    def _on_prop(self, api, src, payload, nearer):
        """Take the first proposal that reaches me, pass it on and plan its
        join; later ones are dropped."""
        if self.prop is not None:
            return
        label, hop, st = payload
        self.prop = (label, hop, st, src)
        role = self.roles.get(label)
        self._flood(api, PD_PROP, self.k, hop, nearer, label,
                    st if role is None else role.depth)
        # joins converge one hop per round from t_join: the farthest first
        t_up = self.t_join + self.k - hop
        heard = t_up - 1 if hop < self.k else None  # joins from hop + 1
        self._plan_at(api, t_up, "_join_up", listen_from=heard)

    def _wants_join(self):
        if self.prop is None:
            return False
        label = self.prop[0]
        return (self.living and not self._is_blue(self.label)
                and label not in self.roles)

    def _join_up(self, api):
        label, hop, st, parent = self.prop
        if label in self.roles:
            return  # counts feed the Steiner aggregation at this node
        if self._wants_join():
            suffix = (1 << self.phase) - 1
            assert (self.label ^ label) & suffix == 0, "cross-class proposal"
        total = (1 if self._wants_join() else 0) + self.join_acc.pop(label, 0)
        if total > 0:
            api.send(parent, Message(PD_JOIN, (label, total)), critical=True)
            # the decision comes back down the proposal path
            self._listen(api, self.t_dec + st - 1)

    # -- counting and decisions ----------------------------------------------------------

    def _subtree_count(self, label, recount):
        """A role's count: its kids' plus its own share, which is its terminal
        bit in a recount and the joins its wave kids sent in a step's count."""
        own = self.roles[label].terminal if recount else self.join_acc.pop(label, 0)
        return own + self._acc.pop(label, 0)

    def _count_up(self, api, label, recount):
        self._pack(self.roles[label].parent, PD_CNT, label,
                   self._subtree_count(label, recount))

    def _count_root(self, api, label, recount):
        count = self._subtree_count(label, recount)
        if recount:
            self.root_size = count
            return
        if self.root_stop:
            return
        grow = count > 0 and 2 * self.b * count > self.root_size
        if grow:
            self.root_size += count
        else:
            self.root_stop = True
            if self.label == label:
                self.stopped = True
        self._handle_dec(api, label, DEC_GROW if grow else DEC_STOP)

    def _on_dec(self, api, src, label, verdict):
        role = self.roles.get(label)
        from_tree = role is not None and role.parent == src
        from_wave = (self.prop is not None and self.prop[0] == label
                     and self.prop[3] == src)
        if not (from_tree or from_wave):
            return
        self._handle_dec(api, label, verdict)

    def _handle_dec(self, api, label, verdict):
        """Relay a decision down tree and wave, and apply it locally."""
        role = self.roles.get(label)
        if role is not None:
            self._pack_all(role.kids, PD_DEC, label, verdict)
        wave_kids = self.cnt_kids.pop(label, [])
        self._pack_all(wave_kids, PD_DEC, label, verdict)
        if role is not None:
            if verdict == DEC_GROW:
                role.kids.extend(c for c in wave_kids if c not in role.kids)
            elif self.label == label:
                self.stopped = True
            return
        if self.prop is None or self.prop[0] != label:
            return
        _, hop, st, parent = self.prop
        joined = self._wants_join()
        if verdict == DEC_GROW:
            if joined or wave_kids:
                new = _Role(parent, st, joined)
                new.kids.extend(wave_kids)
                self.roles[label] = new
            if joined:
                old = self.roles.get(self.label)
                if old is not None and self.label != label:
                    old.terminal = False
                self.label = label
                self.stopped = False
        elif joined:
            self.living = False
            self.dead = True
            old = self.roles.get(self.label)
            if old is not None:
                old.terminal = False
            api.trace("killed", color=self.color, phase=self.phase,
                      label=self.label)

    # -- barrier -------------------------------------------------------------------------

    def _barrier(self, api, t_bar):
        """Plan the step's aggregation over the forest, which starts at
        t_bar: with H the forest's height in the component, a node at depth
        d reports at t_bar + H - d, the root decides at t_bar + H + 1 and
        its verdict reaches depth d at t_bar + H + d."""
        H = self.fheight
        root = self.fparent is None
        self._sweep_step(api, t_bar - 1, H, self.fdepth,
                         "_bar_root" if root else "_bar_up",
                         lag=int(root), kids=bool(self.fkids))
        if not root:
            self._listen(api, t_bar + H + self.fdepth)  # the verdict

    def _bar_own(self):
        """Fold this node's own share into the aggregate, after the step's
        decisions: an unstopped blue root with terminals keeps the phase
        stepping, a node killed in it asks for another color, and its
        deepest role bounds the next step's windows."""
        root_role = self.roles.get(self.node)
        if (root_role is not None and root_role.parent is None
                and self._is_blue(self.node) and not self.root_stop
                and self.root_size > 0):
            self.bar_active = True
        self.bar_dead = self.bar_dead or self.dead
        for role in self.roles.values():
            if role.depth > self.bar_depth:
                self.bar_depth = role.depth

    def _bar_up(self, api):
        self._bar_own()
        api.send(self.fparent, Message(
            PD_BUP, (1 if self.bar_active else 0, 1 if self.bar_dead else 0,
                     self.bar_depth)), critical=True)

    def _bar_root(self, api):
        self._bar_own()
        if self.bar_active:
            verdict = V_STEP
        elif self.phase + 1 < self.b:
            verdict = V_PHASE
        elif self.bar_dead:
            verdict = V_COLOR
        else:
            verdict = V_DONE
        self._on_verdict(api, verdict, self.bar_depth)

    def _on_verdict(self, api, verdict, depth):
        """Pass the verdict and the component's deepest role down, and go on
        from the round all of the component ends the barrier."""
        for c in self.fkids:
            api.send(c, Message(PD_BDOWN, (verdict, depth)), critical=True)
        end = api.round + (self.fheight - self.fdepth) + 2
        self.rho = depth
        self.rho_max = max(self.rho_max, depth)
        if verdict == V_STEP:
            self._plan_step(api, end)
        elif verdict == V_PHASE:
            self.phase += 1
            self.in_step = 0
            self._plan_at(api, end, "_prelude")
        elif verdict == V_COLOR:
            self._archive_color(api)
            self.color += 1
            self._plan_at(api, end, "_color_start")
        else:
            self._archive_color(api)
            self.colors_used = self.color + 1
            if self.d is None:
                self._finish(api)
            else:
                self._plan_at(api, end, "_expand_start")

    def _archive_color(self, api):
        if self.living and self.my_color is None:
            self.my_color = self.color
            self.my_cluster = self.label
        for label, role in sorted(self.roles.items()):  # all made this color
            self.decomp_roles.append(
                (self.color, label, role.parent, role.depth, role.terminal))

    # -- cover expansion ---------------------------------------------------------------------

    def _expand_start(self, api):
        base = api.round
        self.cover_roles = {}
        for color, label, parent, depth, terminal in self.decomp_roles:
            self.cover_roles[(color, label)] = _Role(parent, depth, terminal)
        for c in range(self.colors_used):
            start = base + c * (self.d + 3)
            # waves travel d hops; each window closes at the wave front
            self.exp_windows.append(self._open_window(api, start, start + self.d))
            self._plan_at(api, start, "_expand_wave", c)
        self._plan_at(api, base + self.colors_used * (self.d + 3) + 1,
                      "_span_sweep")

    def _expand_wave(self, api, c):
        if self.my_color != c:
            return
        role = self.cover_roles.get((c, self.my_cluster))
        if role is not None and role.terminal:
            # as a source: every neighbour skips me when it forwards
            self._close_window(api, self.exp_windows[c], api.round + 1)
            self._flood(api, PD_EXP, self.d, 0, (), self.my_cluster, role.depth, c)

    def _on_expand(self, api, src, payload, nearer):
        """Join the cluster whose expansion reaches me. Clusters of one color
        are more than 2d apart, so one cluster's wave reaches me per color."""
        label, hop, st, c = payload
        role = self.cover_roles.get((c, label))
        if role is None:
            role = self.cover_roles[(c, label)] = _Role(src, st, True)
        elif role.terminal:
            return  # wave already seen here
        role.terminal = True
        self._flood(api, PD_EXP, self.d, hop, nearer, label, role.depth, c)

    # -- spanning clusters -----------------------------------------------------------------

    def _span_cap(self):
        """The spanning count's depth cap: an expansion role lies at most d
        below its source's role, which is no deeper than the component's
        deepest role in any color."""
        return self.rho_max + self.d

    def _span_sweep(self, api):
        """Plan one count of terminals over every expanded cluster's tree,
        keyed by cluster id, color x n + label; a role does not know its
        expansion kids, so each listens in the round they send."""
        base, cap = api.round, self._span_cap()
        self._chunk = 2 * _pair_cap(self.n, self.color_cap * self.n)  # wider keys
        for (color, label), role in sorted(self.cover_roles.items()):
            root = role.parent is None
            self._sweep_step(api, base, cap, role.depth,
                             "_span_root" if root else "_span_up", color, label,
                             lag=int(root), kids=True)
        self._plan_at(api, base + cap + 2, "_finish")

    def _span_count(self, color, label):
        cid = color * self.n + label
        return cid, self.cover_roles[(color, label)].terminal + self._acc.pop(cid, 0)

    def _span_up(self, api, color, label):
        cid, count = self._span_count(color, label)
        if count:
            self._pack(self.cover_roles[(color, label)].parent, PD_CNT,
                       cid, count)

    def _span_root(self, api, color, label):
        """The members of a cluster lie in one connected tree, so it spans
        its component exactly when it counts the component's size."""
        cid, count = self._span_count(color, label)
        if count == self.fsize:
            self.spanning.append(cid)

    def _finish(self, api):
        cover = [
            (color, label, r.parent, r.depth, r.terminal)
            for (color, label), r in sorted(self.cover_roles.items())
        ]
        api.finish({
            "color": self.my_color,
            "decomp": sorted(self.decomp_roles),
            "cover": cover,
            "spanning": self.spanning,
        })


def _assemble(outputs, id_base, key):
    clusters = {}
    node_color = {}
    for v in sorted(outputs):
        out = outputs[v]
        if out is None:
            continue
        if out["color"] is not None:
            node_color[v] = out["color"]
        for color, label, parent, depth, terminal in out[key]:
            cid = color * id_base + label
            cl = clusters.get(cid)
            if cl is None:
                cl = clusters[cid] = ClusterData(id=cid, members=set(), tree={})
            cl.tree[v] = (parent, depth, terminal)
            if terminal:
                cl.members.add(v)
    return {cid: cl for cid, cl in clusters.items() if cl.members}, node_color


def cover_forest(graph):
    """The sleeping spanning forest that decompositions of the graph run
    over, built on unit weights, and its children map: ((forest, kids),
    report). Every cover built over one graph can share it."""
    unit = graph.reweighted(lambda w: 1)
    forest, report, _ = boruvka_forest(unit, program=EnergyCsspProgram)
    return (forest, forest.children()), report


def build_decomposition(graph, k, *, trace=True, expand_to=None, forest=None):
    """k-separated weak-diameter decomposition, k >= 1 (optionally expanded
    into a sparse cover when expand_to=d >= 1 is given, which needs k >= 2d).
    Returns (Decomposition, Cover | None, report, trace_log). `forest` is a
    `cover_forest(graph)` pair to run over, whose report the caller counts;
    without it the run builds its own and counts it."""
    if k < 1:
        raise ValueError(f"a decomposition needs k >= 1, got k = {k}")
    if expand_to is not None and expand_to < 1:
        raise ValueError(f"a cover needs a scale d >= 1, got d = {expand_to}")
    if expand_to is not None and k < 2 * expand_to:
        raise ValueError(f"a cover of scale {expand_to} needs k >= "
                         f"{2 * expand_to}, got k = {k}")
    reports = []
    if forest is None:
        forest, rep0 = cover_forest(graph)
        reports.append(rep0)
    forest, kids = forest
    unit = graph.reweighted(lambda w: 1)
    cfg = SimConfig(round_limit=200_000_000,
                    width=_decomp_width(graph.n), collect_trace=trace)
    outputs, rep1, engine = run_simulation(
        unit, lambda v: DecompProgram(v, unit, forest, kids, k, expand_to=expand_to),
        cfg)
    if rep1.status != "done":
        raise ConstructionError(f"decomposition run ended with {rep1.status}")
    id_base = graph.n
    dclusters, node_color = _assemble(outputs, id_base, "decomp")
    ncolors = 1 + max(node_color.values(), default=0)
    colors = [[] for _ in range(ncolors)]
    for cid, cl in sorted(dclusters.items()):
        colors[cid // id_base].append(cl)
    decomp = Decomposition(separation=k, colors=colors, node_color=node_color)
    cover = None
    if expand_to is not None:
        cclusters, _ = _assemble(outputs, id_base, "cover")
        cover = Cover(scale=expand_to, clusters=[
            cl for _, cl in sorted(cclusters.items())], spanning=frozenset(
                cid for out in outputs.values() for cid in out["spanning"]))
    report = merge_reports(reports + [rep1])
    return decomp, cover, report, engine.trace_log


def build_cover_sync(graph, d, *, trace=True, forest=None):
    """Sparse d-cover via a (2d+1)-separated decomposition plus expansion;
    `forest` as for `build_decomposition`."""
    decomp, cover, report, tlog = build_decomposition(
        graph, 2 * d + 1, trace=trace, expand_to=d, forest=forest)
    return cover, decomp, report, tlog
