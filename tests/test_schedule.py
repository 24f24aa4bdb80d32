"""Differential test of `engine.Schedule` against a brute-force reference.

Components are declared through `NodeApi`, as node programs do, so the test
also covers the `always` shortcut of `Schedule._add_span`. The reference keeps
every component as declared and answers each query by checking each round.
"""

import pytest

from sleepysim.engine import Engine, NodeApi, SimError
from sleepysim.graph import Graph

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example = hypothesis.given, hypothesis.example

H = 60  # queries cover rounds 0..H
FAR = 1 << 62  # an open-ended periodic component, as energy_cssp declares


@st.composite
def schedules(draw):
    """(ops, always_at): components to declare, and where `always_awake`
    goes in that order (None: never)."""
    ops, handles = [], 0
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
            handles += 1
        elif handles:
            ops.append(("stop", draw(st.integers(0, handles - 1)),
                        draw(st.integers(0, H + 5))))
    always_at = draw(st.one_of(st.none(), st.integers(0, len(ops))))
    return ops, always_at


def declare(ops, always_at):
    """The engine's schedule for node 0 after the declarations."""
    engine = Engine(Graph.build(1, []))
    api = NodeApi(engine, 0, 0, [])
    for i, op in enumerate(ops):
        if i == always_at:
            api.always_awake()
        if op[0] == "span":
            api.awake_span(op[1], op[2])
        elif op[0] == "periodic":
            api.awake_periodic(*op[1:])
        else:
            api.stop_awake(op[1], op[2])
    if always_at == len(ops):
        api.always_awake()
    return engine._schedules[0]


def reference(ops, always_at):
    """A predicate for "awake in round r", from the components as declared."""
    spans, periodics = [], []
    for op in ops:
        if op[0] == "span":
            spans.append(op[1:])
        elif op[0] == "periodic":
            periodics.append(list(op[1:]))
        else:
            periodics[op[1]][4] = min(periodics[op[1]][4], op[2])

    def awake(r):
        return (always_at is not None
                or any(a <= r <= b for a, b in spans)
                or any(a <= r <= b and (r - anchor) % period in residues
                       for anchor, period, residues, a, b in periodics))

    # past this round nothing but an open-ended periodic is awake, and that
    # one within one period
    last = H + 20 + max((p[1] for p in periodics), default=0)
    return awake, last


@given(schedules())
@example(([("span", 5, 9), ("span", 10, 12), ("span", 3, 4), ("span", 14, 14),
           ("span", 6, 7), ("span", 13, 13)], None))  # adjacent and nested
@example(([("periodic", 3, 4, {0, 2}, 1, FAR), ("stop", 0, 20),
           ("span", 30, 31)], None))
@example(([("span", 2, 40), ("periodic", 0, 1, {0}, 0, 9)], 1))
def test_schedule_matches_brute_force(case):
    ops, always_at = case
    sched = declare(ops, always_at)
    awake, last = reference(ops, always_at)

    starts, ends = sched.starts, sched.ends
    assert len(starts) == len(ends)
    assert all(a <= b for a, b in zip(starts, ends))
    assert all(b + 1 < a for b, a in zip(ends, starts[1:]))
    for _, period, residues, _, _ in sched.periodics:
        assert list(residues) == sorted(set(residues))
        assert all(0 <= x < period for x in residues)

    truth = [awake(r) for r in range(last + 1)]
    following = [next((rr for rr in range(r + 1, last + 1) if truth[rr]), None)
                 for r in range(H + 1)]
    for r in range(H + 1):
        assert sched.awake_at(r) == truth[r], r
        assert sched.next_awake_after(r) == following[r], r
        assert sched.awake_rounds(r) == sum(truth[1:r + 1])
    # queries about earlier rounds still see the periodics that ended since
    for r in range(H, -1, -1):
        assert sched.awake_at(r) == truth[r], r
        assert sched.next_awake_after(r) == following[r], r


@st.composite
def windowed(draw):
    """(ops, always_at, t, ends): components as `schedules` draws them with
    ("window", a, b) among them, the round t of the step that ends windows,
    and (window index, round it ends after) pairs, each round >= t: before
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
    return ops, always_at, t, ends


def declare_windowed(ops, always_at):
    """As `declare`, with windows: (engine, window handles in order)."""
    engine = Engine(Graph.build(1, []))
    api = NodeApi(engine, 0, 0, [])
    handles = []
    for i, op in enumerate(ops):
        if i == always_at:
            api.always_awake()
        if op[0] == "window":
            handles.append(api.awake_window(op[1], op[2]))
        elif op[0] == "span":
            api.awake_span(op[1], op[2])
        elif op[0] == "periodic":
            api.awake_periodic(*op[1:])
        else:
            api.stop_awake(op[1], op[2])
    if always_at == len(ops):
        api.always_awake()
    return engine, handles


def as_spans(ops, ends):
    """The ops with each window replaced by the span it keeps after `ends`."""
    last = {}
    for k, at in ends:
        last.setdefault(k, at)  # only the first end counts
    out, k = [], 0
    for op in ops:
        if op[0] == "window":
            out.append(("span", op[1], min(op[2], last.get(k, op[2]))))
            k += 1
        else:
            out.append(op)
    return out


def check_against(sched, awake, last, rounds):
    truth = [awake(r) for r in range(last + 1)]
    for r in rounds:
        following = next((rr for rr in range(r + 1, last + 1) if truth[rr]), None)
        assert sched.awake_at(r) == truth[r], r
        assert sched.next_awake_after(r) == following, r
        assert sched.awake_rounds(r) == sum(truth[1:r + 1]), r


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
    engine, handles = declare_windowed(ops, always_at)
    sched = engine._schedules[0]
    awake, last = reference(as_spans(ops, []), always_at)
    check_against(sched, awake, last, range(t))

    api = NodeApi(engine, 0, t, [])
    for k, at in ends:
        api.end_window(handles[k], at)
    awake, last = reference(as_spans(ops, ends), always_at)
    check_against(sched, awake, last, range(H + 1))
    check_against(sched, awake, last, range(H, -1, -1))


def test_window_cannot_end_in_the_past():
    engine = Engine(Graph.build(1, []))
    handle = NodeApi(engine, 0, 0, []).awake_window(2, 9)
    with pytest.raises(SimError):
        NodeApi(engine, 0, 5, []).end_window(handle, 4)
    assert engine._schedules[0].next_awake_after(4) == 5


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
    assert sched.starts == [] and not sched.windows and not sched.periodics
    declare(NodeApi(engine, 0, 4, []))  # a start in the step's own round is fine
    assert sched.next_awake_after(3) == 4


@pytest.mark.parametrize("first", [None, "periodic", "window", "passed window"])
def test_passed_spans_fold_into_a_count(first):
    """Spans that end before the declaring step's round leave the lists and
    count as they stand, unless a periodic could overlap them; while a window
    is open, only those that also end before it opens, and a window that
    ended before that round folds with them. The energy count is the same
    either way."""
    engine = Engine(Graph.build(1, []))
    sched = engine._schedules[0]
    api = NodeApi(engine, 0, 0, [])
    extra = 0
    if first == "periodic":  # awake in rounds 999 and 1999
        api.awake_periodic(0, 1000, {999}, 0, 2000)
        extra = 2
    elif first == "window":  # still open when the last span is declared
        api.awake_window(300, 660)
        extra = 361 - 120  # rounds 300..660, of which the last 60 spans hold 120
    elif first == "passed window":  # never ended, long past at the last span
        api.awake_window(100, 110)
        extra = 11 - 4  # rounds 100..110, of which two spans hold 4
    for t in range(0, 600, 5):  # 120 spans of two rounds each
        NodeApi(engine, 0, t, []).awake_span(t + 1, t + 2)
    assert sched.awake_rounds(2000) == 240 + extra
    last = 660 if first == "window" else 597
    assert sched.awake_at(last) and not sched.awake_at(last + 1)
    if first == "periodic":
        assert len(sched.starts) == 120
        assert sched.awake_at(2) and not sched.awake_at(3)
        return
    assert len(sched.starts) < 60
    # the first 60 spans, then the window through round 600
    assert sched.awake_rounds(600) == (120 + 301 if first == "window"
                                       else 240 + extra)
    assert not sched.windows
    with pytest.raises(SimError, match="folded round 3"):
        sched.awake_at(3)
    if first == "window":  # every span before the window opens, none after
        assert sched.folded == 297 and sched.starts[0] == 300
