import ast
import importlib
from pathlib import Path

import pytest

from sleepysim import engine as engine_module
from sleepysim.engine import (
    Engine, Message, NodeApi, PlannedProgram, RunReport, SimConfig,
    ProtocolViolation, SimError, audit_message, bit_budget, merge_reports,
    run_simulation,
)
from sleepysim.graph import Graph
from schedule_reference import record


def line(n, w=1):
    return Graph.build(n, [(i, i + 1, w) for i in range(n - 1)])


class Quit:
    def __init__(self, node):
        self.node = node

    def on_round(self, api):
        api.finish("ok")


class Flood:
    """Sends one ping to every neighbor at round 0, finishes on round 1."""

    def __init__(self, node, nbrs):
        self.node = node
        self.nbrs = nbrs

    def on_round(self, api):
        if api.round == 0:
            api.always_awake()
            for u in self.nbrs:
                api.send(u, Message(1, (self.node,)))
            api.wake_at(1)
        else:
            api.finish(len(api.inbox))


def test_single_node_immediate():
    g = Graph.build(1, [])
    outputs, report, _ = run_simulation(g, Quit)
    assert outputs == {0: "ok"}
    assert report.rounds == 0
    assert report.status == "done"
    assert report.energy == {0: 0}


def test_two_node_flood_congestion():
    g = line(2)
    outputs, report, _ = run_simulation(g, lambda v: Flood(v, [1 - v]))
    assert outputs == {0: 1, 1: 1}
    assert report.congestion[(0, 1)] == [1, 1]
    assert report.delivered == 2 and report.lost == 0


def test_sleeping_node_loses_message():
    class Sender:
        def on_round(self, api):
            if api.round == 0:
                api.always_awake()
                api.send(1, Message(2, ()))
                api.wake_at(1)
            else:
                api.finish(None)

    class Sleeper:
        def on_round(self, api):
            # never declares wakefulness beyond round 0
            api.finish("slept")

    g = line(2)
    outputs, report, _ = run_simulation(g, lambda v: Sender() if v == 0 else Sleeper())
    assert report.lost == 1 and report.delivered == 0
    assert outputs[1] == "slept"


def test_critical_loss_raises():
    class Sender:
        def on_round(self, api):
            if api.round == 0:
                api.always_awake()
                api.send(1, Message(3, ()), critical=True)
                api.wake_at(1)
            else:
                api.finish(None)

    class Sleeper:
        def on_round(self, api):
            api.finish(None)

    g = line(2)
    with pytest.raises(ProtocolViolation):
        run_simulation(g, lambda v: Sender() if v == 0 else Sleeper())


def test_audit_examples():
    assert audit_message(Message(0, ())) == 1  # ceil(log2(2))
    assert audit_message(Message(3, ())) == 3  # ceil(log2(5))
    assert audit_message(Message(3, (0,))) == 3 + 1
    assert audit_message(Message(3, (0,), 6)) == 3 + 1 + 3
    n, max_w = 64, 64**3
    big = Message(1, (n * max_w,))
    assert audit_message(big) <= bit_budget(n, max_w)


def test_bit_budget_violation_names_tag():
    g = line(2, w=1)

    class Fat:
        def on_round(self, api):
            api.always_awake()
            api.send(1, Message(7, (1 << 200,)))
            api.finish(None)

    with pytest.raises(SimError, match="tag 7"):
        run_simulation(g, lambda v: Fat() if v == 0 else Quit(v))


def test_oversubscription():
    g = line(2)

    class Spam:
        def on_round(self, api):
            api.always_awake()
            api.send(1, Message(1, ()))
            api.send(1, Message(1, ()))
            api.finish(None)

    with pytest.raises(SimError, match="oversubscription"):
        run_simulation(g, lambda v: Spam() if v == 0 else Quit(v))
    cfg = SimConfig(width=2)
    _, report, _ = run_simulation(
        g, lambda v: Spam() if v == 0 else Quit(v), cfg
    )
    assert report.congestion[(0, 1)] == [2, 0]


def test_megaround_charging():
    class Waker:
        def on_round(self, api):
            if api.round == 0:
                api.awake_span(1, 3)
                api.wake_at(3)
            elif api.round == 3:
                api.finish(None)

    g = Graph.build(1, [])
    cfg = SimConfig(width=4)
    _, report, _ = run_simulation(g, lambda v: Waker(), cfg)
    assert report.rounds == 12  # 3 logical rounds * width 4
    assert report.energy[0] == 12  # awake logical rounds 1..3, each charged 4


def test_periodic_schedule_listen_without_step():
    hits = []

    class Pinger:
        def on_round(self, api):
            if api.round == 0:
                api.always_awake()
                api.wake_at(5)
            elif api.round == 5:
                api.send(1, Message(1, ()))
                api.wake_at(6)
            else:
                api.finish(None)

    class Dozer:
        def on_round(self, api):
            if api.round == 0:
                # awake at rounds 5, 10, 15, ... only
                api.awake_periodic(0, 5, {0}, 1, 100)
            else:
                hits.append(api.round)
                api.finish(len(api.inbox))

    g = line(2)
    outputs, report, _ = run_simulation(
        g, lambda v: Pinger() if v == 0 else Dozer()
    )
    # message sent in round 5 lands while dozer is awake; it steps at round 10
    assert outputs[1] == 1
    assert hits == [10]
    assert report.energy[1] == 2  # rounds 5 and 10


def test_determinism_byte_identical():
    g = line(5)

    def factory(v):
        return Flood(v, [u for (u, _) in g.neighbors(v)])

    _, r1, _ = run_simulation(g, factory)
    _, r2, _ = run_simulation(g, factory)
    assert r1.to_json() == r2.to_json()


def test_sent_equals_delivered_plus_lost():
    from sleepysim.congest_cssp import cssp
    from sleepysim.graph import GraphSpec, gen_graph

    g = gen_graph(GraphSpec("random-gnm", 20, seed=8, m=40,
                            weight_mode="uniform", max_w=7))
    _, report, _ = cssp(g, {0}, trace=False)
    assert report.total_sent() == report.delivered + report.lost


class Planner(PlannedProgram):
    """Plans actions from round 0 and logs (round, action) as they run."""

    def __init__(self, node, graph, plans):
        super().__init__(node, graph)
        self.plans = plans  # (round to plan for, action, args) made at round 0
        self.log = []

    def _start(self, api):
        api.always_awake()
        for r, action, args in self.plans:
            self._plan_at(api, r, action, *args)

    def _mark(self, api, tag):
        self.log.append((api.round, tag))

    def _end(self, api):
        api.finish(self.log)


def run_planner(plans, cls=Planner):
    g = Graph.build(1, [])
    return run_simulation(g, lambda v: cls(v, g, plans))


def test_plan_same_action_twice_runs_once():
    outputs, report, _ = run_planner([(3, "_mark", ("a",)), (3, "_mark", ("a",)),
                                      (3, "_mark", ("b",)), (5, "_end", ())])
    assert outputs[0] == [(3, "a"), (3, "b")]
    assert report.rounds == 5


def test_plan_for_current_round_runs_at_once():
    outputs, _, _ = run_planner([(0, "_mark", ("now",)), (2, "_end", ())])
    assert outputs[0] == [(0, "now")]


def test_plan_into_past_round_raises():
    class Late(Planner):
        def _mark(self, api, tag):
            self._plan_at(api, api.round - 1, "_end")

    with pytest.raises(SimError, match="not in the future"):
        run_planner([(4, "_mark", ("late",))], Late)


class WindowPlanner(Planner):
    """Sleeps but for a listening window [1, 10]; `_close` withdraws the
    `in_window` plans listed in `withdrawn` and ends the window. Logs every
    step."""

    def __init__(self, node, graph, plans, withdrawn):
        super().__init__(node, graph, plans)
        self.withdrawn = withdrawn
        self.steps = []

    def on_round(self, api):
        self.steps.append(api.round)
        PlannedProgram.on_round(self, api)

    def _start(self, api):
        self.window = api.awake_window(1, 10)
        for r, action, args, in_window in self.plans:
            self._plan_at(api, r, action, *args, in_window=in_window)

    def _close(self, api):
        for r, action, args in self.withdrawn:
            self._unplan(api, r, action, *args)
        api.stop_awake(self.window, api.round)


def test_withdrawn_plan_neither_steps_nor_listens():
    """A plan made `in_window` declares no listening; once withdrawn the node
    does not step for it, unless an ordinary plan shares its round, which
    keeps both its step and its own listening round."""
    g = Graph.build(1, [])
    prog = WindowPlanner(0, g, [
        (3, "_mark", ("a",), True), (7, "_mark", ("b",), True),
        (8, "_mark", ("c",), True), (8, "_mark", ("d",), False),
        (4, "_close", (), False), (12, "_end", (), False)],
        [(7, "_mark", ("b",)), (8, "_mark", ("c",))])
    outputs, report, _ = run_simulation(g, lambda v: prog)
    assert outputs[0] == [(3, "a"), (8, "d")]
    assert prog.steps == [0, 3, 4, 8, 12]
    # rounds 1-4 of the window, then 8 and 12 for the ordinary plans
    assert report.energy == {0: 6}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_planned_programs_own_their_step():
    """perfbench books a step to the module of the class whose vars() hold
    `on_round`, so every node program binds the step under its own name."""
    import sleepysim.apsp_sched  # noqa: F401 (registers)
    import sleepysim.energy_bfs, sleepysim.energy_cssp  # noqa: F401 (registers)

    ours = [c for c in _subclasses(PlannedProgram)
            if c.__module__.startswith("sleepysim.")]
    assert {c.__name__ for c in ours} == {
        "CsspProgram", "EnergyCsspProgram", "ApspProgram", "DecompProgram",
        "EnergyBfsProgram"}
    for cls in ours:
        assert "on_round" in vars(cls), cls.__name__


def test_perfbench_tracer_names_resolve():
    """perfbench's tracer counts the calls of the package functions named in
    its COUNT_ONLY set, times those in AGGREGATED and reads the arguments or
    results of those keyed in PRE_HOOKS and POST_HOOKS, and its layer metrics
    read the tracer by dotted name through `tr.total`, `tr.calls` and
    `tr.self_time`; a name that no longer resolves would read 0 there without
    an error. Each `self_time(prefix, ".on_round")` module needs a class that
    binds `on_round` itself."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    sets = {}
    for node in ast.parse((perfbench / "tracer.py").read_text()).body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        name = getattr(target, "id", None)
        if name in ("COUNT_ONLY", "AGGREGATED"):
            sets[name] = ast.literal_eval(node.value.args[0])
        elif name in ("PRE_HOOKS", "POST_HOOKS"):
            sets[name] = {ast.literal_eval(key) for key in node.value.keys}
    assert set(sets) == {"COUNT_ONLY", "AGGREGATED", "PRE_HOOKS", "POST_HOOKS"}
    assert sets["PRE_HOOKS"] and sets["POST_HOOKS"]
    read, steps = _metric_names(ast.parse((perfbench / "run.py").read_text()))
    assert {"energy_bfs.run_thresholded_bfs_with_cover",
            "energy_bfs.detect_global_cluster", "graph.load_graph",
            "engine.Schedule.awake_at", "apsp_sched.ApspProgram.on_round",
            "netdecomp.build_decomposition"} <= read
    for name in sorted(read.union(*sets.values())):
        assert callable(_package_attr(name)), name
    assert steps == {"congest_cssp.", "energy_cssp.", "netdecomp.", "energy_bfs."}
    for prefix in sorted(steps):
        module = _package_attr(prefix.rstrip("."))
        assert any(isinstance(obj, type) and obj.__module__ == module.__name__
                   and "on_round" in vars(obj)
                   for obj in vars(module).values()), prefix


def _package_attr(name):
    module, *path = name.split(".")
    obj = importlib.import_module(f"sleepysim.{module}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return obj


def _metric_names(tree):
    """The dotted names a perfbench module reads through `tr.total`,
    `tr.calls` and `tr.self_time` (`parent=` included), and the module
    prefixes of `self_time(prefix, ".on_round")`. A name given through a
    variable is followed to its string or tuple of strings."""
    strings = {}  # variable -> the names it stands for
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            value = node.value
            items = value.elts if isinstance(value, ast.Tuple) else [value]
            if all(isinstance(v, ast.Constant) and isinstance(v.value, str)
                   for v in items):
                strings[node.targets[0].id] = [v.value for v in items]
    for node in ast.walk(tree):
        if isinstance(node, ast.comprehension) and isinstance(node.iter, ast.Name):
            strings[node.target.id] = strings.get(node.iter.id, [])

    def names(arg):
        return [arg.value] if isinstance(arg, ast.Constant) else strings[arg.id]

    read, steps = set(), set()
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if not (isinstance(func, ast.Attribute)
                and getattr(func.value, "id", None) == "tr"
                and func.attr in ("total", "calls", "self_time")):
            continue
        suffix = [a.value for a in node.args[1:]]
        if suffix:
            assert (func.attr, suffix) == ("self_time", [".on_round"]), suffix
            steps.update(names(node.args[0]))
            continue
        read.update(names(node.args[0]))
        for kw in node.keywords:
            read.update(names(kw.value))
    return read, steps


def test_pipe_slot():
    slot = PlannedProgram._pipe_slot
    assert slot(0, 4, 2, True, 6) == 6  # up residue 4 - 2
    assert slot(0, 4, 2, True, 7) == 10
    assert slot(1, 3, 2, False, 1) == 1  # down residue (2 + 1) % 3


def test_pipe_handshake(monkeypatch):
    """A child's up-slot is a round its parent listens in, the parent's
    down-slot one its children listen in, and each slot is the first round
    >= earliest with its residue."""
    log = record(monkeypatch)
    api = engine_module.NodeApi(Engine(Graph.build(1, [])), 0, 0, [])
    slot = PlannedProgram._pipe_slot

    def listens(anchor, period, depth):
        PlannedProgram._join_pipe(api, anchor, period, depth, 1, 50)
        return log[0].periodics()[-1][2]

    for period in range(1, 17):
        for depth in range(2 * period + 1):
            for anchor in (0, 5):
                up = slot(anchor, period, depth + 1, True, 0)
                assert (up - anchor) % period in listens(anchor, period, depth)
                down = slot(anchor, period, depth, False, 0)
                assert (down - anchor) % period in listens(anchor, period, depth + 1)
                for is_up, want in ((True, -depth % period),
                                    (False, (depth + 1) % period)):
                    for earliest in range(anchor + 2 * period + 1):
                        first = earliest
                        while (first - anchor) % period != want:
                            first += 1
                        assert slot(anchor, period, depth, is_up, earliest) == first


@pytest.mark.parametrize("period, residues", [
    (0, {0}), (0, set()), (-3, {1}), (4, {4}), (4, {0, 5}), (4, {-1}),
])
def test_periodic_rejects_bad_period_or_residue(period, residues, monkeypatch):
    log = record(monkeypatch)
    engine = Engine(Graph.build(1, []))
    with pytest.raises(SimError, match="awake_periodic"):
        engine_module.NodeApi(engine, 0, 0, []).awake_periodic(
            0, period, residues, 1, 50)
    assert not log[0].ops
    sched = engine._schedules[0]
    assert not sched.comps and sched.next_awake_after(0) is None


def test_periodic_residues_kept_sorted():
    engine = Engine(Graph.build(1, []))
    api = NodeApi(engine, 0, 0, [])
    handle = api.awake_periodic(2, 5, [3, 0, 3], 1, 50)
    assert engine._schedules[0].comps == {handle: (2, 5, (0, 3), 1, 50)}
    assert engine._schedules[0].next_awake_after(5) == 7


def test_spans_of_always_awake_node_not_stored():
    engine = Engine(Graph.build(1, []))
    api = NodeApi(engine, 0, 0, [])
    api.awake_span(3, 4)
    api.always_awake()
    api.awake_span(10, 12)
    api.wake_at(20)
    sched = engine._schedules[0]
    assert (sched.starts, sched.ends) == ([3], [4])
    assert sched.awake_rounds(6) == 6


class Steps:
    """Logs every (round, node) step into `log`; `plan` maps a round to the
    calls the node makes in it: ("wake", r), ("send", dst) or ("finish",)."""

    def __init__(self, node, log, plan):
        self.node = node
        self.log = log
        self.plan = plan

    def on_round(self, api):
        self.log.append((api.round, self.node))
        if api.round == 0:
            api.always_awake()
        for call in self.plan.get(api.round, ()):
            if call[0] == "wake":
                api.wake_at(call[1])
            elif call[0] == "send":
                api.send(call[1], Message(1, ()))
            else:
                api.finish(api.round)


def run_steps(g, plans, config=None):
    log = []
    outputs, report, _ = run_simulation(
        g, lambda v: Steps(v, log, plans.get(v, {})), config)
    return log, outputs, report


def test_wake_and_delivery_in_one_round_step_once():
    log, _, report = run_steps(line(2), {
        0: {0: [("wake", 1)], 1: [("send", 1), ("finish",)]},
        1: {0: [("wake", 2)], 2: [("finish",)]},
    })
    assert report.delivered == 1
    assert [r for r, v in log if v == 1] == [0, 2]


def test_finished_node_with_mail_or_planned_wake_not_stepped():
    log, outputs, report = run_steps(line(2), {
        0: {0: [("wake", 1)], 1: [("send", 1), ("wake", 2)],
            2: [("send", 1), ("wake", 6)], 6: [("finish",)]},
        1: {0: [("wake", 1), ("wake", 5)], 1: [("finish",)]},
    })
    assert [r for r, v in log if v == 1] == [0, 1]
    assert outputs == {0: 6, 1: 1}
    assert (report.delivered, report.lost, report.rounds) == (0, 2, 6)


def test_due_nodes_step_in_ascending_id_order():
    # node v asks for round 4 in round 3 - v, so the pushes come 3, 2, 1, 0;
    # node 0's message to node 1 in round 3 pushes node 1 once more
    plans = {v: {0: [("wake", 3 - v)] if v < 3 else [("wake", 4)],
                 3 - v: [("wake", 4)], 4: [("finish",)]} for v in range(4)}
    plans[0][3] = [("send", 1), ("wake", 4)]
    log, _, report = run_steps(line(4), plans)
    assert [v for r, v in log if r == 4] == [0, 1, 2, 3]
    assert report.delivered == 1


@pytest.mark.parametrize("limit, status, rounds", [(9, "done", 9), (8, "timeout", 2)])
def test_wake_at_round_limit_runs_one_past_times_out(limit, status, rounds):
    _, outputs, report = run_steps(
        Graph.build(1, []), {0: {0: [("wake", 2)], 2: [("wake", 9)],
                                 9: [("finish",)]}},
        SimConfig(round_limit=limit))
    assert report.status == status
    assert report.rounds == rounds
    assert outputs == ({0: 9} if status == "done" else {})


@pytest.mark.parametrize("msg", [Message(-1, ()), Message(1, (), -3),
                                 Message(1, (4, -2))], ids=["tag", "ctx", "payload"])
def test_negative_wire_integer_raises(msg):
    class Neg:
        def on_round(self, api):
            api.always_awake()
            api.send(1, msg)
            api.finish(None)

    with pytest.raises(SimError, match="negative wire integer"):
        audit_message(msg)
    with pytest.raises(SimError, match="negative wire integer"):
        run_simulation(line(2), lambda v: Neg() if v == 0 else Quit(v))


def test_report_counters_kept_when_delivery_raises():
    class Two:
        def on_round(self, api):
            api.always_awake()
            if api.node == 0:
                api.send(1, Message(1, (5,)))
                api.send(1, Message(7, (1 << 200,)))

    engine = Engine(line(2))
    with pytest.raises(SimError, match="tag 7"):
        engine.run({0: Two(), 1: Two()})
    rep = engine._report
    assert rep.delivered == 1
    assert rep.max_bits == audit_message(Message(7, (1 << 200,)))
    assert rep.max_channel_demand == 1


def test_merged_report_keeps_channel_demand():
    """A merged report's channel demand is its stages' largest and its
    oversubscribed sends are theirs in stage order; neither is in the JSON."""
    stages = [RunReport(rounds=4, max_channel_demand=1),
              RunReport(rounds=6, max_channel_demand=3,
                        oversubscribed=[(2, 0, 1, 9)]),
              RunReport(rounds=2, max_channel_demand=2,
                        oversubscribed=[(1, 1, 0, 7)])]
    merged = merge_reports(stages)
    assert merged.max_channel_demand == 3
    assert merged.oversubscribed == [(2, 0, 1, 9), (1, 1, 0, 7)]
    assert merged.to_json() == RunReport(rounds=12).to_json()
