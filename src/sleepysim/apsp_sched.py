"""All-pairs shortest paths: one single-source instance per source, started
at a random delay.

Instance s runs the closest-source recursion from s and starts in round
delay_s + 1, with delay_s drawn uniformly from [0, delta) as a pure function
of the seed; the delays are the only randomness in the repository. An
instance is the congest node program plus its id: `ApspProgram` subclasses
`CsspProgram`, and its send packs the id into the message context above the
recursion path bits (the channel budget gets the instance-id allowance on
top of the base per-message budget). The instances never interact: every
node is awake throughout, channels may be oversubscribed in the joint
schedule, and each instance keeps its own send queues. So each instance runs
alone, in an engine of its own over the whole graph, at the absolute rounds
it has in the joint schedule; there it sends at most once per channel and
round. The joint run's figures are composed from the solo runs:

- a node's row of distances is known once every instance finished there;
- rounds are the last event round of any instance times the megaround width,
  and every node, awake throughout, spends that many in energy;
- congestion, delivered and lost messages add up; `max_bits` is the maximum;
- channel demand counts the instances that send on one directed channel in
  one round. Sends past the width are listed as oversubscribed, in the order
  the joint run delivers them: by round, sender, instance, then send order;
- the trace merges the solo logs by (round, node); ties keep instance order.

One case would differ: a message that reaches a node after its instance
finished there is lost in the solo run, where a joint host, awake for the
other instances, would take it in and drop it. No run checked against a
joint run had such a message: `lost` was 0 in every one.
"""

from __future__ import annotations

import heapq
import random
from array import array
from collections import Counter
from math import inf

from .congest_cssp import CsspProgram, default_round_limit, pow2_at_least
from .engine import SimConfig, merge_reports, run_simulation

INF = inf

# A send is logged on its directed channel as one integer that orders it
# as the joint run delivers it: ((round * n + instance) * n + pos) << _TAG_BITS
# | tag, where pos counts the instance's sends in that step on that node
# (below n: a recursion instance sends at most once per neighbor per round)
# and the tag is below 2**_TAG_BITS.
_TAG_BITS = 8


class ApspProgram(CsspProgram):
    """One node's program in the solo run of the instance from `source`:
    awake from round 0, it steps as a `CsspProgram` from round delay + 1 on.
    Its messages carry the instance id above the path bits of their context:
    packed on send, where the send is also logged on its channel, and
    stripped on receipt. Its trace events get an `inst` field."""

    def __init__(self, node, graph, source, delay, D_top, channels):
        super().__init__(node, graph, {source}, D_top)
        self.source = source
        self.delay = delay
        path_bits = D_top.bit_length() + 2
        self._ctx = source << path_bits
        self._mask = (1 << path_bits) - 1
        self._nn = graph.n * graph.n
        self._first = source * graph.n
        self._out = {u: channels[(node, u)] for u in self.nbrs}
        self._stamp = self._pos = 0

    def on_round(self, api):
        if api.round == 0:
            api.always_awake()
            api.wake_at(self.delay + 1)
            return
        mask = self._mask
        for _, msg in api.inbox:
            msg.ctx &= mask
        self._stamp = api.round * self._nn + self._first
        self._pos = 0
        CsspProgram.on_round(self, api)

    def _send(self, api, dst, msg, critical=False):
        msg.ctx |= self._ctx
        self._out[dst].append(((self._stamp + self._pos) << _TAG_BITS) | msg.tag)
        self._pos += 1
        super()._send(api, dst, msg, critical)

    def _trace(self, api, kind, **data):
        api.trace(kind, inst=self.source, **data)


def draw_delays(n: int, delta: int, seed: int) -> dict:
    rng = random.Random(seed)
    return {s: rng.randrange(max(1, delta)) for s in range(n)}


def apsp_random_delay(graph, delta=None, seed=0, *, round_limit=None,
                      trace=False):
    """Distances for every ordered pair, one recursion per source under
    random-delay scheduling. Returns (matrix, report, trace log, delays),
    the log merged from the solo runs. An unset or zero `round_limit` means
    4 * (single-source limit + delta); a negative one raises ValueError."""
    if round_limit is not None and round_limit < 0:
        raise ValueError("round_limit must be >= 0")
    n = graph.n
    if delta is None:
        delta = n
    if any(w < 1 for (_, _, w) in graph.edges):
        raise ValueError("all-pairs scheduling expects positive weights")
    D_top = pow2_at_least(max(1, n * graph.max_weight))
    delays = draw_delays(n, delta, seed)
    cfg = SimConfig(
        round_limit=round_limit or default_round_limit(n, D_top) * 4 + 4 * delta,
        width=max(8, 4 * max(1, (n - 1).bit_length())),
        extra_ctx_bits=8 * max(1, (n - 1).bit_length()),
        collect_trace=trace,
    )
    channels = {}
    for u, v, _ in graph.edges:
        channels[(u, v)], channels[(v, u)] = array("q"), array("q")
    outputs, reports, logs = [], [], []
    for s in range(n):
        out, rep, solo = run_simulation(
            graph,
            lambda v: ApspProgram(v, graph, s, delays[s], D_top, channels),
            cfg)
        outputs.append(out)
        reports.append(rep)
        logs.append(solo.trace_log)
    report = merge_reports(reports)
    report.rounds = max((rep.rounds for rep in reports), default=0)
    report.energy = {v: report.rounds for v in range(n)}
    report.max_channel_demand, report.oversubscribed = _channel_demand(
        channels, n, cfg.width)
    log = list(heapq.merge(*logs, key=lambda e: (e[1]["round"], e[1]["node"])))
    done = set(range(n)).intersection(*outputs)
    matrix = {(s, v): outputs[s][v] if v in done else INF
              for v in range(n) for s in range(n)}
    return matrix, report, log, delays


def _channel_demand(channels, n, width):
    """The largest number of sends on one directed channel in one round, and
    every send past `width` there as (round, src, dst, tag), in the joint
    run's delivery order."""
    per_round = (n * n) << _TAG_BITS
    demand, over = 0, []
    for (src, dst), log in channels.items():
        counts = Counter(map(per_round.__rfloordiv__, log))
        demand = max(demand, max(counts.values(), default=0))
        full = {r for r, c in counts.items() if c > width}
        if not full:
            continue
        keys = sorted(k for k in log if k // per_round in full)
        for i, k in enumerate(keys):
            r, rest = divmod(k, per_round)
            if i >= width and keys[i - width] // per_round == r:
                over.append((r, src, rest, dst))
    over.sort()
    tag_mask = (1 << _TAG_BITS) - 1
    return demand, [(r, src, dst, rest & tag_mask) for r, src, rest, dst in over]
