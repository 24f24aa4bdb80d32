"""Differential test of the engine's delivery rule against a brute-force
reference.

A message sent in round r reaches its receiver exactly when the receiver is
awake in round r and has not finished; the receiver then steps at its next
awake round after r. Nodes on a small complete graph declare random spans,
windows, periodics, stops and `always_awake` through `NodeApi` (recorded with
`schedule_reference.record`), send to neighbours in random rounds, and some
of them finish. Each message is then checked against
`schedule_reference.reference`, built from the declarations the receiver had
made by the end of round r.
"""

import pytest

from schedule_reference import FAR, H, record, reference
from sleepysim.engine import Engine, Message
from sleepysim.graph import Graph

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example = hypothesis.given, hypothesis.example

KINDS = ("span", "span", "window", "periodic", "periodic", "stop", "send",
         "send", "send", "always", "finish")


@st.composite
def op(draw, n):
    """One op of a step in round t, with its rounds as offsets from t."""
    kind = draw(st.sampled_from(KINDS))
    if kind in ("span", "window"):
        a = draw(st.integers(0, 10))
        return kind, a, a + draw(st.integers(-1, 12))
    if kind == "periodic":
        period = draw(st.integers(1, 9))
        residues = draw(st.sets(st.integers(0, period - 1), max_size=period))
        a = draw(st.integers(0, 10))
        end = draw(st.one_of(st.integers(-2, 25), st.none()))
        return (kind, draw(st.integers(-10, H)), period, tuple(residues), a,
                None if end is None else a + end)
    if kind == "stop":
        return kind, draw(st.integers(0, 5)), draw(st.integers(0, 15))
    if kind == "send":
        return kind, draw(st.integers(1, n - 1))  # to node (v + that) % n
    return (kind,)


@st.composite
def scripts(draw):
    """Node count and, for each node, round -> ops of its step then."""
    n = draw(st.integers(2, 4))
    nodes = []
    for _ in range(n):
        rounds = draw(st.sets(st.integers(1, H), max_size=5)) | {0}
        nodes.append({t: draw(st.lists(op(n), max_size=5)) for t in rounds})
    return n, nodes


class Scripted:
    """Runs its script: steps in round 0 and, through `step_at`, which
    declares no awake round, in each scripted round; logs its steps, the
    messages it reads and sends, and what it had declared after each step."""

    def __init__(self, node, n, script, declared, log):
        self.node, self.n, self.script = node, n, script
        self.declared, self.log = declared, log
        self.handles = []

    def on_round(self, api):
        t, log = api.round, self.log
        log["steps"][self.node].append(t)
        for _, msg in api.inbox:
            log["read"][msg.payload[0]] = (self.node, t)
        if t == 0:
            for r in sorted(self.script):
                if r > 0:
                    api.step_at(r)
        sent_to = set()
        for item in self.script.get(t, ()):
            kind = item[0]
            if kind in ("span", "window"):
                a, b = t + item[1], t + item[2]
                if kind == "span":
                    api.awake_span(a, b)
                else:
                    self.handles.append(api.awake_window(a, b))
            elif kind == "periodic":
                _, anchor, period, residues, a, b = item
                self.handles.append(api.awake_periodic(
                    anchor, period, residues, t + a, FAR if b is None else t + b))
            elif kind == "stop":
                if item[1] < len(self.handles):
                    api.stop_awake(self.handles[item[1]], t + item[2])
            elif kind == "send":
                dst = (self.node + item[1]) % self.n
                if dst not in sent_to:  # one message per channel and round
                    sent_to.add(dst)
                    seq = len(log["sent"])
                    log["sent"].append((t, self.node, dst, seq))
                    api.send(dst, Message(0, (seq,)))
            elif kind == "always":
                api.always_awake()
            else:
                api.finish()
                log["finished"][self.node] = t
                break
        declared = self.declared[self.node]
        log["declared"][self.node].append(
            (t, len(declared.ops), declared.always_at))


def next_awake(awake, last, r):
    return next((x for x in range(r + 1, last + 1) if awake(x)), None)


@given(scripts())
@example((2, [{0: [("send", 1)]}, {0: []}]))  # asleep: lost
@example((2, [{0: [("always",)], 3: [("send", 1)]},
              {0: [("span", 2, 4), ("periodic", 0, 5, (1,), 5, None)]}]))
@example((2, [{0: [("always",), ("send", 1)]}, {0: [("always",)]}]))
@example((2, [{0: [], 4: [("send", 1)]},
              {0: [("always",), ("finish",)]}]))  # finished: lost
@example((3, [{0: [("window", 0, 30)], 2: [("stop", 0, 0)], 5: [("send", 1)]},
              {0: [("span", 0, 3)], 3: [("send", 2)], 5: [("send", 2)]},
              {0: [("window", 0, 20), ("span", 8, 9)], 4: [("stop", 0, 0)]}]))
def test_delivery_follows_the_receivers_schedule(case):
    n, scripts_ = case
    log = {"steps": {v: [] for v in range(n)}, "read": {}, "sent": [],
           "finished": {}, "declared": {v: [] for v in range(n)}}
    graph = Graph.build(n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)])
    with pytest.MonkeyPatch.context() as mp:
        declared = record(mp)
        engine = Engine(graph)
        programs = {v: Scripted(v, n, scripts_[v], declared, log)
                    for v in range(n)}
        _, report = engine.run(programs)

    expected_steps = {v: {0} | set(scripts_[v]) for v in range(n)}
    lost = []
    for r, src, dst, seq in log["sent"]:
        # the receiver's declarations by the end of round r: deliveries in
        # round r follow every step of that round
        _, count, always_at = [d for d in log["declared"][dst] if d[0] <= r][-1]
        awake, last = reference(declared[dst].ops[:count], always_at)
        finished = log["finished"].get(dst)
        if awake(r) and (finished is None or finished > r):
            following = next_awake(awake, last, r)
            if following is not None:
                expected_steps[dst].add(following)
            later = [x for x in log["steps"][dst] if x > r]
            assert log["read"].get(seq) == ((dst, later[0]) if later else None)
        else:
            lost.append((r, src, dst, 0, (seq,)))
            assert seq not in log["read"]
    assert sorted(report.losses) == sorted(lost)
    assert report.lost == len(lost)
    assert report.delivered + report.lost == len(log["sent"])
    for v in range(n):
        finished = log["finished"].get(v)
        assert log["steps"][v] == sorted(
            x for x in expected_steps[v] if finished is None or x <= finished), v
