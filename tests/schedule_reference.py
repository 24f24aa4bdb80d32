"""Brute-force reference for awake schedules, and a recorder of the
declarations a run makes.

`reference` keeps every component as declared and answers "awake in round
r" by checking each one. `record` logs every declaration that runs make
through `NodeApi`, in the reference's terms, for tests that ask about a
run's schedules after it ended, when each `Schedule` holds only what it has
not folded into a count yet.
"""

from collections import defaultdict

from sleepysim import engine as engine_module
from sleepysim.engine import NodeApi

H = 60  # the property tests ask about rounds 0..H, which a reference covers
FAR = 1 << 62  # an open-ended periodic component, as energy_cssp declares


def reference(ops, always_at):
    """A predicate for "awake in round r", from the components as declared,
    and a round past which only an open-ended periodic is awake, within one
    period. Ops are ("span", a, b), ("window", a, b), ("periodic", anchor,
    period, residues, a, b) and ("stop", k, r), which ends the k-th window
    or periodic after round r unless a stop ended it before; `always_at`
    is the index of the op before which `always_awake` came, or None."""
    spans, comps, stopped = [], [], set()
    for op in ops:
        if op[0] == "span":
            spans.append(op[1:])
        elif op[0] == "window":
            comps.append([op[1], 1, {0}, op[1], op[2]])
        elif op[0] == "periodic":
            comps.append(list(op[1:]))
        elif op[1] not in stopped:
            stopped.add(op[1])
            comps[op[1]][4] = min(comps[op[1]][4], op[2])

    def awake(r):
        return (always_at is not None
                or any(a <= r <= b for a, b in spans)
                or any(a <= r <= b and (r - anchor) % period in residues
                       for anchor, period, residues, a, b in comps))

    bounds = [H] + [b for _, b in spans] + [c[4] for c in comps if c[4] < FAR]
    last = max(bounds) + 20 + max((c[1] for c in comps), default=0)
    return awake, last


class Declared:
    """One node's declarations in a run, as `reference` ops."""

    def __init__(self):
        self.ops = []
        self.always_at = None
        self.cut_ables = 0  # windows and periodics declared so far
        self.index = {}  # handle -> its index among the windows and periodics

    def cut_able(self, handle, op):
        # a later run's schedule hands out the same handles again
        self.index[handle] = self.cut_ables
        self.cut_ables += 1
        self.ops.append(op)
        return handle

    def awake(self):
        return reference(self.ops, self.always_at)[0]

    def periodics(self):
        return [op[1:] for op in self.ops if op[0] == "periodic"]


def record(monkeypatch):
    """Log every declaration that the runs which follow make through
    `NodeApi`; returns node -> `Declared`. A declaration the facade rejects
    is not logged."""
    log = defaultdict(Declared)

    class Recording(NodeApi):
        __slots__ = ()

        def wake_at(self, r, listen_from=None):
            super().wake_at(r, listen_from)
            a = r if listen_from is None else min(listen_from, r)
            log[self.node].ops.append(("span", a, r))

        def awake_span(self, a, b):
            super().awake_span(a, b)
            log[self.node].ops.append(("span", a, b))

        def awake_window(self, a, b):
            handle = super().awake_window(a, b)
            return log[self.node].cut_able(handle, ("window", a, b))

        def awake_periodic(self, anchor, period, residues, a, b):
            handle = super().awake_periodic(anchor, period, residues, a, b)
            return log[self.node].cut_able(
                handle, ("periodic", anchor, period, tuple(sorted(set(residues))),
                         a, b))

        def stop_awake(self, handle, at_round):
            super().stop_awake(handle, at_round)
            declared = log[self.node]
            declared.ops.append(("stop", declared.index[handle], at_round))

        def always_awake(self):
            super().always_awake()
            declared = log[self.node]
            if declared.always_at is None:
                declared.always_at = len(declared.ops)

    monkeypatch.setattr(engine_module, "NodeApi", Recording)
    return log
