"""Deterministic round-synchronous execution engine.

Semantics: computation and communication happen in lock-step rounds. A node
that is awake in round r receives every message sent to it in round r and may
act on them at its next awake round (>= r+1). A sleeping node performs no
computation; messages addressed to it are dropped, counted as lost and
logged in `RunReport.losses`, except a critical one, which raises.

The implementation is event-driven: rounds in which nothing happens are
skipped outright, so wall-clock cost scales with messages and program steps,
not with the round counter. Awake time is declared through schedule
components (spans, and windows and periodic patterns that a node may end
early), which lets listening-only rounds be charged for energy without
executing any code. No component starts, or is cut back, before the round
of the step that declares or cuts it, so each `Schedule` keeps merged spans
plus the components that may still be cut, and folds the rest into a count.

Steps are kept in a calendar of due rounds: a dict from round to the set of
nodes due then, and a heap of the distinct rounds in it. Each round is popped
once; its nodes, less the finished ones, step in ascending id order. A
message sent in round r reaches a receiver that is awake in r and has not
finished, and the receiver steps at its next awake round; each receiver's
schedule answers both once per round however many messages reach it.

Megarounds: with width k, every logical round of the loop stands for k
physical rounds. A node awake in a logical round is charged k physical
rounds, and may send up to k messages per neighbor in it.
"""

from __future__ import annotations

import heapq
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import inf


class SimError(RuntimeError):
    """Hard simulation failure (bit budget, oversubscription, protocol)."""


class ProtocolViolation(SimError):
    """A message marked protocol-critical was sent to a sleeping node."""


def bit_budget(n: int, max_w: int) -> int:
    """Per-message budget: 8 * ceil(log2(n*(maxW+2)))."""
    return 8 * max(1, (n * (max_w + 2) - 1).bit_length())


class Message:
    """A tagged bounded-integer message; ctx carries subproblem/instance id."""

    __slots__ = ("tag", "payload", "ctx")

    def __init__(self, tag: int, payload: tuple = (), ctx: int | None = None):
        self.tag = tag
        self.payload = payload
        self.ctx = ctx

    def __repr__(self):
        return f"Message(tag={self.tag}, payload={self.payload}, ctx={self.ctx})"


def audit_message(msg: Message) -> int:
    """Exact charged size in bits of one message: each wire integer v (tag,
    ctx when set, payload) costs ceil(log2(v+2)) bits and must be >= 0."""
    tag, ctx = msg.tag, msg.ctx
    if tag < 0:
        raise SimError(f"negative wire integer {tag}")
    bits = (tag + 1).bit_length()
    if ctx is not None:
        if ctx < 0:
            raise SimError(f"negative wire integer {ctx}")
        bits += (ctx + 1).bit_length()
    for v in msg.payload:
        if v < 0:
            raise SimError(f"negative wire integer {v}")
        bits += (v + 1).bit_length()
    return bits


@dataclass
class SimConfig:
    round_limit: int = 10_000_000  # logical rounds
    width: int = 1  # physical rounds per logical round (megaround width)
    extra_ctx_bits: int = 0  # instance-id allowance for concurrent scheduling
    collect_trace: bool = True


@dataclass
class RunReport:
    """Exact per-run metering; identical inputs yield identical reports."""

    rounds: int = 0
    energy: dict = field(default_factory=dict)
    congestion: dict = field(default_factory=dict)  # (u,v) u<v -> [u->v, v->u]
    delivered: int = 0
    lost: int = 0
    max_bits: int = 0
    bit_limit: int = 0
    status: str = "done"
    max_channel_demand: int = 0  # per-edge-direction sends in one round
    oversubscribed: list = field(default_factory=list)
    critical_losses: list = field(default_factory=list)
    losses: list = field(default_factory=list)  # (round, src, dst, tag, payload)

    def max_energy(self) -> int:
        return max(self.energy.values(), default=0)

    def max_congestion(self) -> int:
        return max((max(c) for c in self.congestion.values()), default=0)

    def total_sent(self) -> int:
        return sum(f + r for (f, r) in self.congestion.values())

    def to_json(self) -> str:
        doc = {
            "rounds": self.rounds,
            "energy": {str(v): e for v, e in sorted(self.energy.items())},
            "congestion": {
                f"{u}-{v}": list(c) for (u, v), c in sorted(self.congestion.items())
            },
            "max_bits": self.max_bits,
            "status": self.status,
        }
        return json.dumps(doc, sort_keys=True)


# -- awake schedules -------------------------------------------------------


FOLD_EVERY = 32  # growth in spans and components between two folds


class Schedule:
    """Union of awake components for one node.

    One invariant: no declaration starts, and no component is cut back,
    before the round of the step that makes it (`NodeApi` checks both), and
    a node's steps come at nondecreasing rounds. So every round before
    `now`, the round of a declaring step, is final.

    Two kinds of state hold the rounds from `now` on. Spans are merged into
    two parallel lists: `starts[i]..ends[i]` are inclusive intervals, sorted,
    disjoint and not adjacent, so one bisect answers a span query; an empty
    span (a > b) adds nothing, nor does any once `always` is set. `comps`
    maps a handle to each component that may still be cut (once, `_stop`):
    a periodic (anchor, period, residues, a, b) is awake in each round r of
    [a, b] with (r - anchor) % period in `residues`, a sorted tuple of
    distinct values in [0, period); a window [a, b] is (a, 1, (0,), a, b),
    and joins the spans once cut. One that is never awake is not kept.

    `passed` counts the awake rounds in [1, now) (round 0 is free). Once the
    spans and components have grown by `FOLD_EVERY`, `_fold` moves `now` to
    the declaring step's round, counts the rounds in between with `_count`,
    as `awake_rounds` does, and drops all that ends before `now`. So
    `awake_at` answers about rounds from `now` on, `next_awake_after` and
    `awake_rounds` from `now` - 1 on, as the engine asks; an earlier query
    raises `SimError`. `always` overrides all of them and is never unset.
    """

    __slots__ = ("always", "starts", "ends", "comps", "opened", "passed",
                 "now", "fold_at")

    def __init__(self):
        self.always = False
        self.starts = []
        self.ends = []
        self.comps = {}
        self.opened = 0  # components declared so far: the next handle
        self.passed = 0  # awake rounds in [1, now)
        self.now = 0
        self.fold_at = FOLD_EVERY  # fold once spans and components grow past this

    def _add(self, component, now) -> int:
        """Keep a component declared in round `now`; returns its handle."""
        handle = self.opened
        self.opened += 1
        if component[3] <= component[4] and component[2] and not self.always:
            self.comps[handle] = component
            if len(self.ends) + len(self.comps) > self.fold_at:
                self._fold(now)
        return handle

    def _stop(self, handle, at_round):
        """Cut a component after round `at_round`, once: a cut periodic is
        kept under a handle no caller holds."""
        component = self.comps.pop(handle, None)
        if component is None:  # cut before, or never kept
            return
        anchor, period, residues, a, b = component
        if period > 1:
            self.comps[~handle] = (anchor, period, residues, a, min(b, at_round))
        else:
            self._add_span(a, min(b, at_round))

    def _add_span(self, a: int, b: int, now=None):
        """Merge [a, b] into the intervals; `now` is the round of the step
        declaring it, if a step does."""
        if a > b or self.always:  # always is never unset: a span cannot matter
            return
        ends = self.ends
        if not ends or a > ends[-1] + 1:  # after every interval, as most spans are
            self.starts.append(a)
            ends.append(b)
        else:
            starts = self.starts
            if a >= starts[-1]:  # overlaps or touches the last interval only
                if b > ends[-1]:
                    ends[-1] = b
                return
            i = bisect_left(ends, a - 1)  # first interval ending at or after a - 1
            if starts[i] <= a and b <= ends[i]:
                return  # inside one interval
            j = bisect_right(starts, b + 1, i)  # past the last starting by b + 1
            if j == i + 1:  # one interval absorbs it
                if a < starts[i]:
                    starts[i] = a
                if b > ends[i]:
                    ends[i] = b
                return
            if j > i:
                starts[i:j] = (min(a, starts[i]),)
                ends[i:j] = (max(b, ends[j - 1]),)
                return
            starts.insert(i, a)
            ends.insert(i, b)
        if now is not None and len(ends) + len(self.comps) > self.fold_at:
            self._fold(now)

    def _fold(self, now):
        """Count the rounds before `now` into `passed`; drop what ends there."""
        if now > self.now:
            self.passed += self._count(max(1, self.now), now - 1)
            self.now = now
            i = bisect_left(self.ends, now)
            del self.starts[:i], self.ends[:i]
            self.comps = {h: c for h, c in self.comps.items() if c[4] >= now}
        self.fold_at = len(self.ends) + len(self.comps) + FOLD_EVERY

    def _count(self, lo, hi) -> int:
        """Awake rounds in [lo, hi], hi >= lo - 1: the span lengths, clipped,
        plus the component rounds, marked in a bytearray by strided slices,
        that no span covers."""
        starts, ends = self.starts, self.ends
        # the intervals that meet [lo, hi]; only the first and the last can
        # reach past it
        i, j = bisect_left(ends, lo), bisect_right(starts, hi)
        count = 0
        if i < j:
            count = (sum(ends[i:j]) - sum(starts[i:j]) + j - i
                     - max(0, lo - starts[i]) - max(0, ends[j - 1] - hi))
        comps = self.comps.values()
        if not comps:
            return count
        # marks are needed only where some component may be awake
        lo, hi = max(lo, min(c[3] for c in comps)), min(hi, max(c[4] for c in comps))
        if hi < lo:
            return count
        marks = bytearray(hi - lo + 1)
        for anchor, period, residues, a, b in comps:
            a, b = max(a, lo) - lo, min(b, hi) - lo  # offsets into marks
            for res in residues:
                first = a + (anchor + res - lo - a) % period
                if first <= b:
                    marks[first:b + 1:period] = b"\1" * ((b - first) // period + 1)
        i, j = bisect_left(ends, lo, i, j), bisect_right(starts, hi, i, j)
        return count + marks.count(1) - sum(
            marks.count(1, max(a, lo) - lo, min(b, hi) - lo + 1)
            for a, b in zip(starts[i:j], ends[i:j]))

    def _folded_query(self, r):
        raise SimError(f"schedule query about folded round {r}")

    def awake_at(self, r: int) -> bool:
        if self.always:
            return True
        if r < self.now:
            self._folded_query(r)
        ends = self.ends
        i = bisect_left(ends, r)
        if i < len(ends) and self.starts[i] <= r:
            return True
        for anchor, period, residues, a, b in self.comps.values():
            if a <= r <= b and (r - anchor) % period in residues:
                return True
        return False

    def next_awake_after(self, r: int):
        """Smallest awake round strictly greater than r, or None."""
        if self.always:
            return r + 1
        if r < self.now - 1:
            self._folded_query(r)
        ends = self.ends
        i = bisect_right(ends, r)
        best = max(self.starts[i], r + 1) if i < len(ends) else inf
        if best == r + 1:  # no round comes earlier
            return best
        for anchor, period, residues, a, b in self.comps.values():
            start = a if a > r else r + 1
            if start > b or start >= best:  # ended, or no earlier than best
                continue
            off = (start - anchor) % period
            k = bisect_left(residues, off)
            if k < len(residues):
                cand = start + residues[k] - off
            else:
                cand = start + period - off + residues[0]
            if cand <= b and cand < best:
                best = cand
        return best if best < inf else None

    def awake_rounds(self, horizon: int) -> int:
        """Number of awake rounds in [1, horizon] (round 0 is free)."""
        if self.always:
            return max(0, horizon)
        if horizon < self.now - 1:
            self._folded_query(horizon)
        return self.passed + self._count(max(1, self.now), horizon)


class NodeApi:
    """Per-step facade handed to a node program."""

    __slots__ = ("engine", "node", "round", "inbox", "_sends")

    def __init__(self, engine, node, rnd, inbox):
        self.engine = engine
        self.node = node
        self.round = rnd
        self.inbox = inbox
        self._sends = []

    def send(self, dst: int, msg: Message, critical: bool = False):
        self._sends.append((dst, msg, critical))

    def wake_at(self, r: int, listen_from=None):
        """Step in round r, which is after this step's; with `listen_from`,
        not before this step's round, listen from there through r too."""
        if r <= self.round:
            raise SimError(f"wake_at({r}) not in the future of round {self.round}")
        a = r
        if listen_from is not None and listen_from < r:
            if listen_from < self.round:
                self._before_now("wake_at", listen_from)
            a = listen_from
        engine = self.engine
        engine._schedules[self.node]._add_span(a, r, self.round)
        engine._push_step(r, self.node)

    def step_at(self, r: int):
        """Step in round r, which is after this step's, declaring no awake
        round: the node listens then through a window of its own. Unlike a
        `wake_at`, the step may be withdrawn with `unwake`."""
        if r <= self.round:
            raise SimError(f"step_at({r}) not in the future of round {self.round}")
        self.engine._push_step(r, self.node)

    def unwake(self, r: int):
        """Withdraw this node's step in round r, which is after this step's:
        a delivery may still wake it then. The program must plan nothing else
        for r."""
        if r <= self.round:
            raise SimError(f"unwake({r}) not in the future of round {self.round}")
        due = self.engine._due.get(r)
        if due is not None:
            due.discard(self.node)

    def _before_now(self, call, a):
        raise SimError(f"{call}: start {a} before round {self.round}")

    def awake_span(self, a: int, b: int):
        """Listen in rounds [a, b]; a is not before this step's round."""
        if a < self.round:
            self._before_now("awake_span", a)
        self.engine._schedules[self.node]._add_span(a, b, self.round)

    def awake_window(self, a: int, b: int):
        """Listen in rounds [a, b] like `awake_span`, but return a handle
        with which `stop_awake` may end the window early."""
        if a < self.round:
            self._before_now("awake_window", a)
        return self.engine._schedules[self.node]._add((a, 1, (0,), a, b),
                                                      self.round)

    def awake_periodic(self, anchor: int, period: int, residues, a: int, b: int):
        """Declare a periodic listening schedule; returns a handle that can be
        retired early with stop_awake (effective from the next round).
        Every residue must lie in [0, period), period must be >= 1 and a is
        not before this step's round."""
        if a < self.round:
            self._before_now("awake_periodic", a)
        residues = tuple(sorted(set(residues)))
        if period < 1 or any(not 0 <= x < period for x in residues):
            raise SimError(f"awake_periodic: residues {list(residues)} "
                           f"not in [0, period) for period {period}")
        return self.engine._schedules[self.node]._add(
            (anchor, period, residues, a, b), self.round)

    def stop_awake(self, handle: int, at_round: int):
        """Keep a window's or periodic's rounds only up to `at_round`, not
        before this step's round. A component ends once; later calls, like a
        call on an always-awake node, change nothing."""
        if at_round < self.round:
            raise SimError(f"stop_awake({at_round}) before round {self.round}")
        self.engine._schedules[self.node]._stop(handle, at_round)

    def always_awake(self):
        self.engine._schedules[self.node].always = True

    def finish(self, output=None):
        self.engine._finish(self.node, output)

    def trace(self, kind: str, **data):
        self.engine.trace(kind, node=self.node, round=self.round, **data)


def _records_per_message(n: int, tag: int, field_max) -> int:
    """The records one packed message under `tag` carries within the bit
    budget of the unit-weight graph on n nodes, a record's fields each at
    most its bound in `field_max`, at the cost `audit_message` charges."""
    record_bits = sum((v + 1).bit_length() for v in field_max)
    return (bit_budget(n, 1) - (tag + 1).bit_length()) // record_bits


class PlannedProgram:
    """Base for node programs that plan their own actions for exact rounds.

    The shared step `on_round` calls `_start(api)` at the node's first step,
    then `_dispatch(api, src, msg)` for each inbox message, then runs the due
    actions, then `_end_step(api)`, which sends what the step packed. A
    subclass binds it by name (`on_round = PlannedProgram.on_round`) and may
    override `_end_step`, as `CsspProgram` does to flush its send queue.

    Packed sends: `_pack(dst, tag, *fields)` queues a record of integers for
    a neighbour in the step's outbox (`_pack_all` one for each of several),
    and `_repack` replaces one queued in the same step. When the step ends,
    the records of one neighbour and tag leave as critical messages whose
    payload is the records' fields, flat and in queueing order, at most
    `_chunk` fields to a message; a class sets `_chunk` to a whole number of
    records that fits the bit budget. So records that coincide on a channel
    in one round share a message, and a run's width counts messages, not
    records.

    An action is a method name plus arguments. Planned for the current round
    it runs at once; planned for a later round it is kept (once per round and
    arguments) and the node wakes then, through one `wake_at` per planned
    round; a past round is a protocol error. An action that reads messages
    sent before its round listens from there (`listen_from`); a class whose
    actions all read the round before sets `_listen_before`.
    `_plan_after_inbox` keeps one for the current round until the inbox has
    been read. An action planned `in_window` falls in a window the node
    listens through anyway, so its wake declares nothing, and `_unplan`
    withdraws it: the node does not step for it.

    Tree pipelines: a node at depth d of a tree that pipelines with period p
    listens on the residues {p-d-1, p-d, d, d+1} mod p (d taken mod p). It
    sends up on p-d, where its parent listens as p-(d-1)-1, and down on d+1,
    where its children listen as their own depth.
    """

    def __init__(self, node, graph):
        self.node = node
        self.nbrs = [u for (u, _) in graph.neighbors(node)]
        self._plan: dict[int, list] = {}
        self._bare: set = set()  # planned rounds whose wake declared nothing
        self._started = False
        self._outbox: list = []  # the step's records, (dst, tag, fields)

    def on_round(self, api):
        if not self._started:
            self._started = True
            self._start(api)
        for src, msg in api.inbox:
            self._dispatch(api, src, msg)
        self._run_due(api)
        self._end_step(api)

    def _end_step(self, api):
        """Send what the step packed."""
        out = self._outbox
        if out:
            if len(out) == 1:  # most sending steps: one record, one message
                dst, tag, fields = out.pop()
                api.send(dst, Message(tag, fields), True)
            else:
                self._send_packed(api)

    _chunk = 0  # fields to a packed message

    def _pack(self, dst, tag, *fields):
        """Queue a record for `dst` under `tag`; returns its place in the
        step's outbox, for `_repack`."""
        out = self._outbox
        out.append((dst, tag, fields))
        return len(out) - 1

    def _pack_all(self, dsts, tag, *fields):
        """Queue one record for each of `dsts` in one pass; returns their
        places in the step's outbox, for `_repack`."""
        out = self._outbox
        start = len(out)
        for dst in dsts:
            out.append((dst, tag, fields))
        return range(start, len(out))

    def _repack(self, i, *fields):
        """Replace the fields of the record queued at place i this step."""
        dst, tag, _ = self._outbox[i]
        self._outbox[i] = (dst, tag, fields)

    def _send_packed(self, api):
        """Send the step's records, those of one neighbour and tag together,
        at most `_chunk` fields to a message."""
        out, self._outbox = self._outbox, []
        packed = {}
        for dst, tag, fields in out:
            key = (dst, tag)
            held = packed.get(key)
            packed[key] = fields if held is None else held + fields
        chunk, send = self._chunk, api.send
        for (dst, tag), fields in packed.items():
            if len(fields) <= chunk:
                send(dst, Message(tag, fields), True)
                continue
            for i in range(0, len(fields), chunk):
                send(dst, Message(tag, fields[i:i + chunk]), True)

    @staticmethod
    def _join_pipe(api, anchor, period, depth, a, b):
        """Listen on the pipeline residues of depth in rounds [a, b]; returns
        the `stop_awake` handle."""
        dep = depth % period
        residues = {(period - dep - 1) % period, (period - dep) % period,
                    dep, (dep + 1) % period}
        return api.awake_periodic(anchor, period, residues, a, b)

    @staticmethod
    def _pipe_slot(anchor, period, depth, up, earliest):
        """First round >= earliest in which a node at depth sends up (to its
        parent) or down (to its children)."""
        dep = depth % period
        residue = (period - dep) % period if up else (dep + 1) % period
        return earliest + (residue - (earliest - anchor)) % period

    def _sweep_step(self, api, base, cap, depth, action, *args, lag=0, kids=False):
        """Plan a fixed-window convergecast from round `base` over a tree of
        depth <= `cap`: a node at depth d acts at base + 1 + cap - d + `lag`,
        after its kids send; with `kids`, it listens from the round they do.
        A node deeper than the cap raises: the window is too short for the
        tree."""
        if depth > cap:
            raise ProtocolViolation(
                f"node {self.node} at depth {depth} is swept by a window "
                f"for depth {cap}")
        heard = base + cap - depth
        self._plan_at(api, heard + 1 + lag, action, *args,
                      listen_from=heard if kids else None)

    _listen_before = False

    def _plan_at(self, api, r, action, *args, listen_from=None,
                 in_window=False):
        """Plan an action for round r; `listen_from` also listens from that
        round through r, for an action that reads what arrives before it.
        With `in_window`, the node already listens in r and the round before
        until the action runs or is withdrawn (`_unplan`)."""
        if r == api.round:
            self._act(api, action, args)
            return
        item = (action, args)
        bucket = self._plan.get(r)
        if bucket is None:  # the first action planned for round r
            self._plan[r] = [item]
        else:
            if item not in bucket:
                bucket.append(item)
            if in_window or r not in self._bare:  # the round's wake will do
                if listen_from is not None:
                    api.awake_span(listen_from, r)
                return
        if in_window:
            self._bare.add(r)
            api.step_at(r)
            return
        self._bare.discard(r)
        if listen_from is None and self._listen_before:
            listen_from = max(1, r - 1)
        api.wake_at(r, listen_from)

    def _unplan(self, api, r, action, *args):
        """Withdraw an action planned `in_window` for round r, after this
        step's; the node no longer steps in r unless something else is
        planned then."""
        bucket = self._plan[r]
        bucket.remove((action, args))
        if not bucket:
            del self._plan[r]
            self._bare.discard(r)
            api.unwake(r)

    def _plan_after_inbox(self, api, action, *args):
        """Plan an action for the current round while its inbox is being
        dispatched: it runs with the due actions, once every message of the
        step has been read."""
        bucket = self._plan.setdefault(api.round, [])
        item = (action, args)
        if item not in bucket:
            bucket.append(item)

    def _act(self, api, action, args):
        getattr(self, action)(api, *args)

    def _run_due(self, api):
        """Run every action planned for this round, in planning order."""
        if self._bare:
            self._bare.discard(api.round)
        for action, args in self._plan.pop(api.round, ()):
            self._act(api, action, args)


class Engine:
    """Synchronous-round simulator over one graph."""

    def __init__(self, graph, config: SimConfig | None = None):
        self.graph = graph
        self.config = config or SimConfig()
        self.n = graph.n
        self.budget = (bit_budget(self.n, max(1, graph.max_weight))
                       + self.config.extra_ctx_bits)
        self._adj = graph.adjacency()
        self._nbr = {v: {u for (u, _) in nb} for v, nb in self._adj.items()}
        self._schedules = {v: Schedule() for v in range(self.n)}
        self._inboxes = {v: [] for v in range(self.n)}
        self._outputs = {}
        self._done = set()
        self._due = {}  # round -> set of nodes to step in it
        self._rounds = []  # heap of the distinct rounds in _due
        self._report = RunReport(bit_limit=self.budget)
        self._congestion = {}
        self._trace = []
        self._last_event_round = 0

    # -- plumbing ---------------------------------------------------------

    def _push_step(self, r, node):
        nodes = self._due.get(r)
        if nodes is None:
            self._due[r] = {node}
            heapq.heappush(self._rounds, r)
        else:
            nodes.add(node)

    def _finish(self, node, output):
        self._outputs[node] = output
        self._done.add(node)

    def trace(self, kind: str, **data):
        if self.config.collect_trace:
            self._trace.append((kind, data))

    @property
    def trace_log(self):
        return self._trace

    # -- main loop ---------------------------------------------------------

    def run(self, programs: dict) -> tuple[dict, RunReport]:
        """Run per-node programs until all finish or the round limit hits.

        `programs` maps node id -> object with .on_round(api). Nodes are
        stepped at round 0 for initialization.
        """
        cfg = self.config
        width, limit = cfg.width, cfg.round_limit
        for v in sorted(programs):
            self._push_step(0, v)

        status = "done"
        due_at, rounds, done, inboxes = self._due, self._rounds, self._done, self._inboxes
        while rounds:
            r = rounds[0]
            if r > limit:
                status = "timeout"
                break
            heapq.heappop(rounds)
            due = due_at.pop(r) - done
            if not due:
                continue
            self._last_event_round = max(self._last_event_round, r)
            all_sends = []
            for v in sorted(due):
                inbox = inboxes[v]
                inboxes[v] = []
                api = NodeApi(self, v, r, inbox)
                programs[v].on_round(api)
                if api._sends:
                    all_sends.append((v, api._sends))
            if all_sends:
                self._deliver(r, all_sends, width)
            if len(done) == self.n:
                break
        if len(done) < self.n and status == "done":
            status = "timeout"

        return self._outputs, self._finalize(status, width)

    def _deliver(self, r, all_sends, width):
        rep = self._report
        nbr, schedules, done = self._nbr, self._schedules, self._done
        inboxes, congestion = self._inboxes, self._congestion
        budget = self.budget
        audit, push = audit_message, self._push_step
        # whether each receiver listens in round r: its schedule is asked
        # once per round, since no schedule changes during delivery
        listening = {}
        per_channel = {}
        max_bits, demand = rep.max_bits, rep.max_channel_demand
        delivered, lost = rep.delivered, rep.lost
        try:
            for src, sends in all_sends:
                adj = nbr[src]
                for dst, msg, critical in sends:
                    if dst not in adj:
                        raise SimError(f"node {src} sent to non-neighbor {dst}")
                    bits = audit(msg)
                    if bits > max_bits:
                        max_bits = bits
                    if bits > budget:
                        raise SimError(
                            f"bit budget violation: tag {msg.tag} uses {bits} bits "
                            f"(budget {budget}) at round {r}"
                        )
                    chan = (src, dst)
                    cnt = per_channel.get(chan, 0) + 1
                    per_channel[chan] = cnt
                    if cnt > demand:
                        demand = cnt
                    if cnt > width:
                        raise SimError(
                            f"channel oversubscription {src}->{dst} round {r} "
                            f"(width {width}, tag {msg.tag})"
                        )
                    ek = chan if src < dst else (dst, src)
                    slot = congestion.get(ek)
                    if slot is None:
                        slot = congestion[ek] = [0, 0]
                    slot[0 if src < dst else 1] += 1
                    heard = listening.get(dst)
                    if heard is None:  # the receiver's first message now
                        sched = schedules[dst]
                        heard = listening[dst] = (dst not in done
                                                  and sched.awake_at(r))
                        if heard:  # it reads the message at its next step
                            nxt = sched.next_awake_after(r)
                            if nxt is not None:
                                push(nxt, dst)
                    if heard:
                        inboxes[dst].append((src, msg))
                        delivered += 1
                        continue
                    lost += 1
                    if critical:
                        rep.critical_losses.append((r, src, dst, msg.tag))
                        raise ProtocolViolation(
                            f"critical message tag {msg.tag} from {src} lost at "
                            f"sleeping node {dst} in round {r}"
                        )
                    rep.losses.append((r, src, dst, msg.tag, msg.payload))
        finally:
            rep.max_bits, rep.max_channel_demand = max_bits, demand
            rep.delivered, rep.lost = delivered, lost

    def _finalize(self, status, width) -> RunReport:
        rep = self._report
        rep.status = status
        horizon = self._last_event_round
        rep.rounds = horizon * width
        rep.energy = {v: sched.awake_rounds(horizon) * width
                      for v, sched in self._schedules.items()}
        rep.congestion = dict(sorted(self._congestion.items()))
        return rep


def merge_reports(reports) -> RunReport:
    """Combine sequential stage reports into one cumulative report."""
    out = RunReport()
    for rep in reports:
        out.rounds += rep.rounds
        for v, e in rep.energy.items():
            out.energy[v] = out.energy.get(v, 0) + e
        for ek, (f, r) in rep.congestion.items():
            slot = out.congestion.setdefault(ek, [0, 0])
            slot[0] += f
            slot[1] += r
        out.delivered += rep.delivered
        out.lost += rep.lost
        out.max_bits = max(out.max_bits, rep.max_bits)
        out.bit_limit = max(out.bit_limit, rep.bit_limit)
        out.max_channel_demand = max(out.max_channel_demand,
                                     rep.max_channel_demand)
        out.oversubscribed.extend(rep.oversubscribed)
        out.critical_losses.extend(rep.critical_losses)
        out.losses.extend(rep.losses)
        if rep.status != "done":
            out.status = rep.status
    out.congestion = dict(sorted(out.congestion.items()))
    out.energy = dict(sorted(out.energy.items()))
    return out


def run_simulation(graph, program_factory, config: SimConfig | None = None):
    """Build one program per node via `program_factory(node_id)` and run."""
    engine = Engine(graph, config)
    programs = {v: program_factory(v) for v in range(graph.n)}
    outputs, report = engine.run(programs)
    return outputs, report, engine
