"""All-pairs shortest paths by concurrent single-source instances.

One engine run hosts n logically independent copies of the closest-source
recursion, one per source, each started at a uniformly drawn delay in
[0, delta). The delays are the only randomness in the repository and are a
pure function of the seed. Instance ids ride in the message context, packed
above the recursion path bits, and the channel budget gets the instance-id
allowance on top of the base per-message budget.

A node hosts every instance but steps one only when it is due: in its first
round, in a round it asked to wake for (a planned action or a pending send
queue) and in a round it has mail. An instance has nothing to do in any other
round, so skipping it there changes no output, report or trace. Due instances
are stepped in ascending instance order; mail for an instance that has not
started or has finished is dropped.

Per-round per-edge demand is metered; if it exceeds the configured megaround
width the run continues in relaxed-audit mode and reports the overflow
instead of failing.
"""

from __future__ import annotations

import random
from math import inf

from .congest_cssp import CsspProgram, default_round_limit, pow2_at_least
from .engine import SimConfig, run_simulation

INF = inf


class _SubApi:
    """Message facade for one hosted instance: rewrites ctx on the way out
    and books the instance's wake rounds with its host."""

    def __init__(self, host, inst, api, inbox):
        self.host = host
        self.inst = inst
        self.inbox = inbox
        self.round = api.round
        self._api = api

    def send(self, dst, msg, critical=False):
        msg.ctx = (self.inst << self.host.path_bits) | msg.ctx
        self._api.send(dst, msg, critical)

    def wake_at(self, r):
        self._api.wake_at(r)
        self.host._book(r, self.inst)

    def always_awake(self):
        self._api.always_awake()

    def finish(self, output=None):
        self.host.finished[self.inst] = output

    def trace(self, kind, **data):
        self._api.trace(kind, inst=self.inst, **data)


class ApspProgram:
    """Hosts one recursion instance per source on a single node."""

    def __init__(self, node, graph, delays, D_top):
        self.node = node
        self.delays = delays
        self.path_bits = D_top.bit_length() + 2
        self.subs = {
            s: CsspProgram(node, graph, {s}, D_top)
            for s in range(graph.n)
        }
        self.finished = {}
        self._due = {}  # round -> instances that asked to be stepped then
        self._done_sent = False

    def _book(self, r, inst):
        self._due.setdefault(r, set()).add(inst)

    def on_round(self, api):
        r = api.round
        if r == 0:
            api.always_awake()
            for s, delay in sorted(self.delays.items()):
                api.wake_at(delay + 1)
                self._book(delay + 1, s)
        mask = (1 << self.path_bits) - 1
        boxes = {}
        for src, msg in api.inbox:
            inst = msg.ctx >> self.path_bits
            msg.ctx &= mask
            boxes.setdefault(inst, []).append((src, msg))
        due = self._due.pop(r, set())
        due.update(boxes)
        for s in sorted(due):
            if s in self.finished or r <= self.delays[s]:
                continue
            self.subs[s].on_round(_SubApi(self, s, api, boxes.get(s, [])))
        if len(self.finished) == len(self.subs) and not self._done_sent:
            self._done_sent = True
            api.finish(dict(sorted(self.finished.items())))


def draw_delays(n: int, delta: int, seed: int) -> dict:
    rng = random.Random(seed)
    return {s: rng.randrange(max(1, delta)) for s in range(n)}


def apsp_random_delay(graph, delta=None, seed=0, *, round_limit=None,
                      trace=False):
    """Distances for every ordered pair, one recursion per source under
    random-delay scheduling. Returns (matrix, report, engine, delays). An
    unset or zero `round_limit` means 4 * (single-source limit + delta); a
    negative one raises ValueError."""
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
        allow_oversubscription=True,
        collect_trace=trace,
    )
    outputs, report, engine = run_simulation(
        graph, lambda v: ApspProgram(v, graph, delays, D_top), cfg)
    matrix = {}
    for v in range(n):
        row = outputs.get(v) or {}
        for s in range(n):
            matrix[(s, v)] = row.get(s, INF)
    return matrix, report, engine, delays
