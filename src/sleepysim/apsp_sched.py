"""All-pairs shortest paths by concurrent single-source instances.

One engine run hosts n logically independent copies of the closest-source
recursion, one per source, each started at a uniformly drawn delay in
[0, delta). The delays are the only randomness in the repository and are a
pure function of the seed. Instance ids ride in the message context, packed
above the recursion path bits, and the channel budget gets the instance-id
allowance on top of the base per-message budget.

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
    """Message facade for one hosted instance: rewrites ctx on the way out."""

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
        self.n = graph.n
        self.delays = delays
        self.path_bits = D_top.bit_length() + 2
        self.subs = {
            s: CsspProgram(node, graph, {s}, D_top)
            for s in range(graph.n)
        }
        self.finished = {}
        self._done_sent = False

    def on_round(self, api):
        if api.round == 0:
            api.always_awake()
            for s, delay in sorted(self.delays.items()):
                api.wake_at(delay + 1)
        mask = (1 << self.path_bits) - 1
        boxes = {s: [] for s in self.subs}
        for src, msg in api.inbox:
            inst = msg.ctx >> self.path_bits
            msg.ctx &= mask
            boxes[inst].append((src, msg))
        for s in sorted(self.subs):
            sub = self.subs[s]
            started = api.round > self.delays[s]
            if s in self.finished or not started:
                continue
            sub_api = _SubApi(self, s, api, boxes[s])
            sub.on_round(sub_api)
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
    unset or zero `round_limit` means 4 * (single-source limit + delta)."""
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
        row = outputs[v] or {}
        for s in range(n):
            matrix[(s, v)] = row.get(s, INF)
    return matrix, report, engine, delays
