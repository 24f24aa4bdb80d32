"""Differential tests of `engine.Schedule` against a brute-force reference.

Components are declared through `NodeApi`, as node programs do, so the tests
also cover the `always` shortcut of `Schedule._add_span` and the round checks
of the facade. The reference (`schedule_reference.reference`) keeps every
component as declared and answers each query by checking each round.
"""

import pytest

from schedule_reference import FAR, H, record, reference
from sleepysim import engine as engine_module
from sleepysim.engine import FOLD_EVERY, Engine, NodeApi, SimError
from sleepysim.graph import Graph

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example = hypothesis.given, hypothesis.example


def test_record_matches_the_schedule(monkeypatch):
    """The recorder logs what the schedule holds: each kind of declaration,
    a cut, a repeated cut and a rejected one."""
    log = record(monkeypatch)
    engine = Engine(Graph.build(1, []))
    api = engine_module.NodeApi(engine, 0, 0, [])
    api.wake_at(3, listen_from=1)
    api.awake_span(6, 7)
    window = api.awake_window(10, 20)
    periodic = api.awake_periodic(0, 5, [4, 2, 4], 0, FAR)
    api.stop_awake(window, 12)
    api.stop_awake(window, 11)
    api.stop_awake(periodic, 30)
    with pytest.raises(SimError):
        api.awake_periodic(0, 0, [0], 1, 2)
    declared = log[0]
    assert declared.ops == [("span", 1, 3), ("span", 6, 7), ("window", 10, 20),
                            ("periodic", 0, 5, (2, 4), 0, FAR), ("stop", 0, 12),
                            ("stop", 0, 11), ("stop", 1, 30)]
    awake = declared.awake()
    sched = engine._schedules[0]
    assert [r for r in range(40) if awake(r)] == [
        r for r in range(40) if sched.awake_at(r)] == [
        1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 14, 17, 19, 22, 24, 27, 29]


@st.composite
def schedules(draw):
    """(ops, always_at): components to declare, and where `always_awake`
    goes in that order (None: never)."""
    ops, comps = [], 0
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(("span", "span", "periodic", "stop")))
        if kind == "span":
            a = draw(st.integers(0, H))
            ops.append(("span", a, a + draw(st.integers(-1, 10))))
        elif kind == "periodic":
            period = draw(st.integers(1, 9))
            residues = draw(st.sets(st.integers(0, period - 1), max_size=period))
            a = draw(st.integers(0, H))
            b = draw(st.one_of(st.integers(a - 2, H + 10), st.just(FAR)))
            ops.append(("periodic", draw(st.integers(-10, H)), period,
                        residues, a, b))
            comps += 1
        elif comps:
            ops.append(("stop", draw(st.integers(0, comps - 1)),
                        draw(st.integers(0, H + 5))))
    always_at = draw(st.one_of(st.none(), st.integers(0, len(ops))))
    return ops, always_at


def apply(api, op, handles):
    """Declare one op through `api`; `handles` lists the handles of the
    windows and periodics declared so far, in order."""
    if op[0] == "span":
        api.awake_span(op[1], op[2])
    elif op[0] == "window":
        handles.append(api.awake_window(op[1], op[2]))
    elif op[0] == "periodic":
        handles.append(api.awake_periodic(*op[1:]))
    else:
        api.stop_awake(handles[op[1]], op[2])


def declare(ops, always_at):
    """The engine after node 0 declared the ops in the step of round 0, and
    the handles of its windows and periodics."""
    engine = Engine(Graph.build(1, []))
    api = NodeApi(engine, 0, 0, [])
    handles = []
    for i, op in enumerate(ops):
        if i == always_at:
            api.always_awake()
        apply(api, op, handles)
    if always_at == len(ops):
        api.always_awake()
    return engine, handles


def check_against(sched, awake, last, rounds):
    truth = [awake(r) for r in range(last + 1)]
    for r in rounds:
        following = next((rr for rr in range(r + 1, last + 1) if truth[rr]), None)
        assert sched.awake_at(r) == truth[r], r
        assert sched.next_awake_after(r) == following, r
        assert sched.awake_rounds(r) == sum(truth[1:r + 1]), r


@given(schedules())
@example(([("span", 5, 9), ("span", 10, 12), ("span", 3, 4), ("span", 14, 14),
           ("span", 6, 7), ("span", 13, 13)], None))  # adjacent and nested
@example(([("periodic", 3, 4, {0, 2}, 1, FAR), ("stop", 0, 20),
           ("span", 30, 31)], None))
@example(([("periodic", 0, 1, {0}, 4, FAR), ("stop", 0, 20), ("stop", 0, 9)],
          None))  # a period-1 periodic joins the spans, and ends once
@example(([("span", 2, 40), ("periodic", 0, 1, {0}, 0, 9)], 1))
def test_schedule_matches_brute_force(case):
    ops, always_at = case
    engine, _ = declare(ops, always_at)
    sched = engine._schedules[0]
    awake, last = reference(ops, always_at)

    starts, ends = sched.starts, sched.ends
    assert len(starts) == len(ends)
    assert all(a <= b for a, b in zip(starts, ends))
    assert all(b + 1 < a for b, a in zip(ends, starts[1:]))
    for _, period, residues, _, _ in sched.comps.values():
        assert list(residues) == sorted(set(residues))
        assert all(0 <= x < period for x in residues)

    check_against(sched, awake, last, range(H + 1))
    # a query changes no answer: asked again from the last round back, each
    # round answers the same
    check_against(sched, awake, last, range(H, -1, -1))


@st.composite
def windowed(draw):
    """(ops, always_at, t, ends): components as `schedules` draws them with
    ("window", a, b) among them, the round t of the step that ends windows,
    and (window number, round it ends after) pairs, each round >= t: before
    the window opens, inside it, or after it closed; a window may be ended
    twice."""
    ops, always_at = draw(schedules())
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(0, H))
        ops.insert(draw(st.integers(0, len(ops))),
                   ("window", a, a + draw(st.integers(-1, 25))))
    if always_at is not None:
        always_at = draw(st.integers(0, len(ops)))
    t = draw(st.integers(0, H))
    count = sum(op[0] == "window" for op in ops)
    ends = draw(st.lists(st.tuples(st.integers(0, count - 1),
                                   st.integers(t, H + 30)), max_size=6))
    return renumbered(ops), always_at, t, ends


def renumbered(ops):
    """The ops with each stop naming its periodic by its index among the
    windows and periodics, where `schedules` counted periodics only."""
    comps, periodics, out = 0, [], []
    for op in ops:
        if op[0] == "periodic":
            periodics.append(comps)
        elif op[0] == "stop":
            op = ("stop", periodics[op[1]], op[2])
        comps += op[0] in ("window", "periodic")
        out.append(op)
    return out


def window_stops(ops, ends):
    """The stop ops that end windows after `ends`, in the reference's
    numbering of windows and periodics."""
    comps = [op[0] for op in ops if op[0] in ("window", "periodic")]
    windows = [k for k, kind in enumerate(comps) if kind == "window"]
    return [("stop", windows[k], at) for k, at in ends]


@given(windowed())
@example(([("window", 5, 20), ("span", 12, 14)], None, 9, [(0, 9)]))  # early
@example(([("window", 5, 20)], None, 3, [(0, 3)]))  # before it opens
@example(([("window", 5, 20)], None, 8, [(0, 40), (0, 9)]))  # after b, twice
@example(([("window", 5, 20)], 0, 9, [(0, 9)]))  # on an always-awake node
@example(([("window", 5, 9), ("window", 8, 30), ("periodic", 0, 4, {1}, 0, FAR)],
          None, 12, [(1, 14), (0, 12)]))  # one window past before its end
def test_windows_match_brute_force(case):
    """Windows answer queries as spans do, before and after they end: queries
    about the rounds before the ending step see the windows as declared, and
    queries about any round after it see each window cut at its end."""
    ops, always_at, t, ends = case
    engine, handles = declare(ops, always_at)
    sched = engine._schedules[0]
    awake, last = reference(ops, always_at)
    check_against(sched, awake, last, range(t))

    api = NodeApi(engine, 0, t, [])
    stops = window_stops(ops, ends)
    for stop in stops:
        apply(api, stop, handles)
    awake, last = reference(ops + stops, always_at)
    check_against(sched, awake, last, range(H + 1))
    check_against(sched, awake, last, range(H, -1, -1))


@st.composite
def stepped(draw):
    """Steps of one node at nondecreasing rounds: (round, ops) pairs whose
    spans, windows and periodics start at or after the step's round and
    whose stops cut at or after it. Each step declares a window or a
    periodic, which no span absorbs, and more than `FOLD_EVERY` steps come,
    so the schedule folds, with periodics present."""
    steps, t, comps = [], 0, 0
    for _ in range(FOLD_EVERY + draw(st.integers(8, 24))):
        t += draw(st.integers(0, 3))
        ops = []
        for kind in ["component"] + draw(st.lists(
                st.sampled_from(("span", "span", "stop", "component")), max_size=2)):
            a = t + draw(st.integers(0, 8))
            if kind == "span":
                ops.append(("span", a, a + draw(st.integers(-1, 6))))
            elif kind == "stop":
                ops.append(("stop", draw(st.integers(0, comps - 1)),
                            t + draw(st.integers(0, 12))))
            elif draw(st.booleans()):
                period = draw(st.integers(1, 9))
                residues = draw(st.sets(st.integers(0, period - 1), max_size=period))
                b = draw(st.one_of(st.integers(a - 2, a + 60), st.just(FAR)))
                ops.append(("periodic", draw(st.integers(-10, t + 10)), period,
                            residues, a, b))
                comps += 1
            else:
                ops.append(("window", a, a + draw(st.integers(-1, 25))))
                comps += 1
        steps.append((t, ops))
    return steps


@given(stepped())
@hypothesis.settings(max_examples=100)  # each example runs some 40 steps
def test_folding_schedule_matches_brute_force(steps):
    """A node's steps come at nondecreasing rounds, and the engine asks
    about each step's round after it, as a delivery does, and counts the
    awake rounds once the run ends: the schedule answers as the reference
    does over every component declared so far, while it folds the rounds
    before each declaring step's round into a count."""
    engine = Engine(Graph.build(1, []))
    sched = engine._schedules[0]
    ops, handles = [], []
    for t, step in steps:
        api = NodeApi(engine, 0, t, [])
        for op in step:
            apply(api, op, handles)
        ops += step
        awake, last = reference(ops, None)
        assert sched.awake_at(t) == awake(t), t
        following = next((r for r in range(t + 1, last + 1) if awake(r)), None)
        assert sched.next_awake_after(t) == following, t
        assert sched.now <= t
    truth = [awake(r) for r in range(last + 1)]
    for horizon in range(max(0, steps[-1][0] - 1), last + 1):
        assert sched.awake_rounds(horizon) == sum(truth[1:horizon + 1]), horizon


def test_window_cannot_end_in_the_past():
    """`stop_awake` cuts a window or a periodic only from the step's round
    on; a rejected cut leaves the component as it was."""
    engine = Engine(Graph.build(1, []))
    api = NodeApi(engine, 0, 0, [])
    window = api.awake_window(2, 9)
    periodic = api.awake_periodic(0, 2, {0}, 10, 30)
    late = NodeApi(engine, 0, 5, [])
    for handle in (window, periodic):
        with pytest.raises(SimError, match=r"stop_awake\(4\) before round 5"):
            late.stop_awake(handle, 4)
    sched = engine._schedules[0]
    assert sched.next_awake_after(4) == 5
    assert sched.awake_rounds(40) == 8 + 11
    late.stop_awake(window, 5)  # a cut in the step's own round is fine
    late.stop_awake(periodic, 12)
    assert sched.awake_rounds(40) == 4 + 2


@pytest.mark.parametrize("declare", [
    lambda api: api.awake_span(4, 9),
    lambda api: api.awake_window(4, 9),
    lambda api: api.awake_periodic(0, 3, {1}, 4, 9),
    lambda api: api.wake_at(9, listen_from=4),
], ids=["awake_span", "awake_window", "awake_periodic", "wake_at"])
def test_declaration_cannot_start_in_the_past(declare):
    engine = Engine(Graph.build(1, []))
    with pytest.raises(SimError, match="start 4 before round 5"):
        declare(NodeApi(engine, 0, 5, []))
    sched = engine._schedules[0]
    assert sched.starts == [] and not sched.comps
    assert sched.next_awake_after(0) is None
    declare(NodeApi(engine, 0, 4, []))  # a start in the step's own round is fine
    assert sched.next_awake_after(3) == 4


@pytest.mark.parametrize("first", [None, "periodic", "window", "passed window",
                                   "cut window"])
def test_passed_spans_fold_into_a_count(first):
    """Spans and components that end before the declaring step's round leave
    the schedule and count as they stand, periodics present or not: the
    count of the folded rounds, and every later answer, is the reference's;
    a query about a folded round raises."""
    engine = Engine(Graph.build(1, []))
    sched = engine._schedules[0]
    api = NodeApi(engine, 0, 0, [])
    ops = []
    if first == "periodic":  # awake in rounds 999 and 1999
        ops.append(("periodic", 0, 1000, {999}, 0, 2000))
    elif first in ("window", "cut window"):  # open when the last span comes
        ops.append(("window", 300, 660))
    elif first == "passed window":  # never ended, long past at the last span
        ops.append(("window", 100, 110))
    handles = []
    for op in ops:
        apply(api, op, handles)
    for t in range(0, 600, 5):  # 120 spans of two rounds each
        if first == "cut window" and t == 450:
            NodeApi(engine, 0, t, []).stop_awake(handles[0], 455)
            ops.append(("stop", 0, 455))
        NodeApi(engine, 0, t, []).awake_span(t + 1, t + 2)
        ops.append(("span", t + 1, t + 2))
    awake, last = reference(ops, None)
    truth = [awake(r) for r in range(2001)]
    assert len(sched.starts) < 60 and sched.now > 300
    assert sched.passed == sum(truth[1:sched.now])
    assert len(sched.comps) == (first in ("periodic", "window"))
    for r in range(sched.now, 2000):
        assert sched.awake_at(r) == truth[r], r
    assert sched.next_awake_after(sched.now) == next(
        r for r in range(sched.now + 1, 2001) if truth[r])
    assert sched.awake_rounds(2000) == sum(truth[1:])
    with pytest.raises(SimError, match="folded round 3"):
        sched.awake_at(3)
    with pytest.raises(SimError, match=f"folded round {sched.now - 1}"):
        sched.awake_at(sched.now - 1)
    with pytest.raises(SimError, match=f"folded round {sched.now - 2}"):
        sched.next_awake_after(sched.now - 2)
    with pytest.raises(SimError, match=f"folded round {sched.now - 2}"):
        sched.awake_rounds(sched.now - 2)
