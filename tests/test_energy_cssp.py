import hashlib
import random

import pytest

from sleepysim.congest_cssp import (
    T_ACK, T_ADOPT, CsspProgram, boruvka_forest, cssp,
    pow2_at_least, run_thresholded_cssp,
)
from sleepysim.energy_cssp import EnergyCsspProgram, cssp_energy
from sleepysim.engine import run_simulation
from sleepysim.graph import Graph, GraphSpec, gen_graph
from sleepysim.oracle import INF, dijkstra
from sleepysim.structures import ForestInfo
from sleepysim.trace_checks import (
    check_cutter_contract, check_recursion_accounting,
)
from schedule_reference import record


def log2c(n):
    return max(1, (max(2, n) - 1).bit_length())


def sleeping_forest(g):
    """Forest-only sleeping nodes run through the engine: (forest, report)."""
    outputs, report, _ = run_simulation(
        g, lambda v: EnergyCsspProgram(v, g, set(), 2, forest_only=True))
    forest = ForestInfo(*({v: out[i] for v, out in outputs.items()}
                          for i in range(5)))
    return forest, report


def test_forest_energy_triangle():
    g = Graph.build(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    forest, report = sleeping_forest(g)
    assert len(set(forest.component.values())) == 1
    assert all(s == 3 for s in forest.size.values())
    c = 8
    assert report.max_energy() <= c * log2c(g.n) ** 2 + 64


def test_forest_energy_singleton():
    g = Graph.build(3, [])
    forest, report = sleeping_forest(g)
    assert all(s == 1 for s in forest.size.values())
    assert report.max_energy() <= 8 * log2c(g.n) ** 2 + 64


def test_forest_energy_path_matches_congest():
    g = Graph.build(4, [(0, 1, 2), (1, 2, 5), (2, 3, 1)])
    fe, report = sleeping_forest(g)
    fc, _, _ = boruvka_forest(g)
    assert fe.component == fc.component
    assert fe.size == fc.size
    assert report.max_energy() <= 8 * log2c(g.n) ** 2 + 64


def test_thresholded_p3():
    g = Graph.build(3, [(0, 1, 2), (1, 2, 3)])
    outputs, report, _ = run_thresholded_cssp(g, {0}, 4, program=EnergyCsspProgram)
    assert outputs == {0: 0, 1: 2, 2: INF}
    assert report.critical_losses == []


def test_base_case_star():
    g = Graph.build(5, [(0, i, 1) for i in range(1, 5)])
    outputs, _, _ = run_thresholded_cssp(g, {0}, 1, program=EnergyCsspProgram)
    assert outputs == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1}


@pytest.mark.parametrize("seed", range(8))
def test_oracle_equivalence(seed):
    rng = random.Random(seed * 77 + 3)
    n = rng.randint(2, 24)
    m = min(n * (n - 1) // 2, rng.randint(n - 1, 3 * n))
    mode = rng.choice(["unit", "uniform", "zero-heavy"])
    g = gen_graph(GraphSpec("random-gnm", n, seed=seed, m=m,
                            weight_mode=mode, max_w=rng.choice([1, 5, 13])))
    sources = set(rng.sample(range(n), rng.randint(1, max(1, n // 4))))
    outputs, report, engine = cssp_energy(g, sources)
    assert outputs == dijkstra(g, sources)
    assert report.status == "done"
    assert report.critical_losses == []
    if not any(w == 0 for (_, _, w) in g.edges):
        ok, detail = check_cutter_contract(g, engine.trace_log)
        assert ok, detail
        ok, detail = check_recursion_accounting(engine.trace_log, g.n)
        assert ok, detail


def test_sleeping_saves_energy():
    """Nodes in a far component spend little awake time while the recursion
    grinds through the source component."""
    edges = [(i, i + 1, 3) for i in range(11)] + [(i, i + 1, 3) for i in range(12, 23)]
    g = Graph.build(24, edges)
    outputs, report, _ = cssp_energy(g, {0})
    assert outputs == dijkstra(g, {0})
    hot = max(report.energy[v] for v in range(12))
    cold = max(report.energy[v] for v in range(12, 24))
    assert cold < hot


def test_waiting_is_periodic_not_busy():
    """While one branch recurses, other nodes wake only for pipeline slots and
    their own windows: total energy stays clearly under all-awake cost."""
    g = gen_graph(GraphSpec("path", 33, weight_mode="uniform", max_w=9, seed=4))
    outputs, report, _ = cssp_energy(g, {0})
    assert outputs == dijkstra(g, {0})
    total = sum(report.energy.values())
    assert total < 0.8 * g.n * report.rounds
    assert min(report.energy.values()) < 0.5 * report.rounds


def test_waiting_pipeline_shape(monkeypatch):
    """Waiting schedules are at most 4 residues per period, the component
    size rounded up to a power of two, so waiting costs O(1) awake rounds
    per pipeline cycle; and a node's pipes at one depth nest: every residue
    of the longer period is, mod the shorter one, a residue of the shorter
    pipe, so the longer pipe adds no awake round (a 12-node path: sizes 12,
    10 and 7 at node 3's depth 0 give periods 16, 16 and 8)."""
    log = record(monkeypatch)
    pipes = {}  # node -> (size, depth) of each pipe joined, in order

    class Recording(EnergyCsspProgram):
        def _cutter_done(self, api, f):
            super()._cutter_done(api, f)
            if f.pipe is not None:
                pipes.setdefault(self.node, []).append((f.size, f.depth))

    g = gen_graph(GraphSpec("path", 12, weight_mode="uniform", max_w=5, seed=2))
    outputs, _, _ = cssp(g, {0}, program=Recording, trace=False)
    assert outputs == dijkstra(g, {0})
    nested = 0
    for v in range(g.n):
        periodics = log[v].periodics()
        assert len(periodics) == len(pipes.get(v, ()))
        held = {}  # depth -> residue sets by period
        for (_, period, residues, _, _), (size, depth) in zip(
                periodics, pipes.get(v, ())):
            assert period == pow2_at_least(size)
            assert len(residues) <= 4
            held.setdefault(depth, {}).setdefault(period, set()).update(residues)
        for by_period in held.values():
            for p, short in by_period.items():
                for q, long in by_period.items():
                    if p < q:
                        nested += 1
                        assert {x % p for x in long} <= short, (v, p, q)
    assert nested > 0


@pytest.mark.parametrize("base, k", [(EnergyCsspProgram, 4),
                                     (EnergyCsspProgram, 5),
                                     (CsspProgram, 4), (CsspProgram, 5)],
                         ids=["4", "5", "congest-4", "congest-5"])
def test_start_time_lead_covers_the_longest_period(base, k):
    """The second recursion's start round leads the root's decision by the
    pipe period P plus size + 2, and in the sleeping flavor P may be
    2 * size - 2, on a path of 2^k + 1 nodes. Every node reads the start
    time within P - 1 rounds of the decision plus its depth, so before the
    start round."""
    decided = {}  # (root, path) -> the round the root set the start time
    reads = []  # (root, path, read round, start round, period, depth)

    class Recording(base):
        def _check_done(self, api, f, i):
            root = f.parent is None and i == 0 and not f.sent_done[0]
            super()._check_done(api, f, i)
            if root and f.sent_done[0]:
                decided[f.comp, f.path] = api.round

        def _on_start2(self, api, f, start2):
            if f.start2 is None:
                reads.append((f.comp, f.path, api.round, start2,
                              self._period(f), f.depth))
            super()._on_start2(api, f, start2)

    n = 2 ** k + 1
    g = gen_graph(GraphSpec("path", n, weight_mode="uniform", max_w=9, seed=k))
    outputs, report, _ = cssp(g, {0}, program=Recording, trace=False)
    assert outputs == dijkstra(g, {0})
    assert report.lost == 0
    assert report.critical_losses == []
    longest = 2 * n - 2 if base is EnergyCsspProgram else 1
    assert any(period == longest for *_, period, _ in reads)
    assert len(decided) > 1
    for comp, path, read, start2, period, depth in reads:
        at = decided[comp, path]
        assert read <= at + period - 1 + depth < start2


@pytest.mark.parametrize("weight_mode", ["uniform", "zero-heavy"])
@pytest.mark.parametrize("base", [CsspProgram, EnergyCsspProgram],
                         ids=["congest", "energy"])
def test_every_message_goes_through_send(base, weight_mode):
    """`_send` is the one path to the wire in both flavors: a subclass that
    counts its calls sees every message the report counts. APSP logs each
    channel's sends in its override."""
    g = gen_graph(GraphSpec("random-gnm", 16, seed=3, m=40,
                            weight_mode=weight_mode, max_w=9))
    assert any(w == 0 for _, _, w in g.edges) == (weight_mode == "zero-heavy")
    calls = []

    class Counting(base):
        def _send(self, api, dst, msg, critical=False):
            calls.append(dst)
            super()._send(api, dst, msg, critical)

    outputs, report, _ = cssp(g, {0}, program=Counting, trace=False)
    assert outputs == dijkstra(g, {0})
    assert len(calls) == report.total_sent() > 0


def test_determinism():
    g = gen_graph(GraphSpec("random-gnm", 14, seed=9, m=30,
                            weight_mode="uniform", max_w=6))
    _, r1, _ = cssp_energy(g, {0, 3})
    _, r2, _ = cssp_energy(g, {0, 3})
    assert r1.to_json() == r2.to_json()


GOLDEN = [
    (GraphSpec("random-gnm", 24, seed=5, m=72, weight_mode="uniform", max_w=60),
     {0},
     "0072f2f252478fea29af588dae0405cfcc9e2855e85d806a520415bc111af92a",
     "40edef8fec1262c83020503267a5dfbb10a383991ab20053c4eab0a03c53af27"),
    (GraphSpec("random-gnm", 20, seed=6, m=60, weight_mode="zero-heavy", max_w=60),
     {0, 7},
     "a89ba36ed76e1715b2e16ec84dd7fcb9a3eac42d10388ffbaedae7c89f6e68f9",
     "cec24999e29fa760fd9bcb80ec3b94e8aa3e33748e9784c74cfb9247d73bf2dc"),
    # the benchmark's energy-gnm instances
    (GraphSpec("random-gnm", 36, seed=201, m=108, weight_mode="uniform", max_w=60),
     {0},
     "48c103c5eb8cb809ab95c1b787df8c6cc078b492223789164b9b12224dfc9ced",
     "2873d4145a75ebd84a3215db1601ea017fb41447a89c8504831ada270d0bfcc9"),
    (GraphSpec("random-gnm", 36, seed=202, m=108, weight_mode="uniform", max_w=60),
     {24, 26, 30},
     "e53436efc54767117467b9f1fb3d77d3c7b0732d6e98f62af0ba66e7849fff05",
     "0930bdd613e8348d0ea1da4c22e440cb99121e54c1a272c3e05d4c4ffc32d9d5"),
    (GraphSpec("random-gnm", 28, seed=203, m=84, weight_mode="zero-heavy", max_w=60),
     {0},
     "f302ebbdabbf59929201252df7bd058b28af870bcca570dd3ad54bc6807a6e7d",
     "07e5475725c34b9707572cdaf25411eb597f7a81613e5f6ffb48535fa466f3e8"),
]
GOLDEN_IDS = ["gnm24", "gnm20-zeroheavy", "gnm36-1src", "gnm36-3src",
              "gnm28-zeroheavy"]


@pytest.mark.parametrize("spec, sources, outputs_sha, report_sha", GOLDEN,
                         ids=GOLDEN_IDS)
def test_golden_outputs_and_report(spec, sources, outputs_sha, report_sha):
    """Pinned hashes of the outputs and the report: a change to the awake
    schedules that moves any round, energy or congestion figure shows here,
    where a rerun of the same code cannot. The sleeping run also puts the
    same messages on every edge as the congest run and loses none: frames
    send only to peers, and a peer listens when a frame message is due.
    Pinned again when the root frame began to run at its component's
    threshold from the tree height and superseded cutter wake-ups were
    withdrawn (outputs unchanged), and again when a near child that keeps
    its parent's whole component began to reuse the parent's spanning tree
    (fewer rounds, messages and awake rounds; outputs unchanged). Pinned
    again when completion pipes went to power-of-two periods, so that a
    node's nested pipes share their awake rounds, and a reused child began
    to start its cutter in phase 0's merge round (less energy, rounds
    within 1%; messages, congestion and outputs unchanged). Pinned again
    when the component census began to ride on the Boruvka phase that
    finds no outgoing edge, whose merge round starts the cutter, and the
    far child's start lead began to follow the pipe period (fewer rounds,
    messages and awake rounds; outputs unchanged). Pinned again when a
    completed frame's pipe began to stop listening in the round the frame
    completes, since no later message names a released frame (fewer awake
    rounds; rounds, messages, congestion and outputs unchanged)."""
    g = gen_graph(spec)
    outputs, report, _ = cssp_energy(g, sources)
    assert hashlib.sha256(repr(sorted(outputs.items())).encode()).hexdigest() == outputs_sha
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == report_sha
    _, congest, _ = cssp(g, sources, trace=False)
    assert report.congestion == congest.congestion
    assert report.lost == 0


@pytest.mark.parametrize("spec, sources, bound", [
    (GraphSpec("random-gnm", 32, seed=0, m=96, weight_mode="uniform", max_w=60),
     {0}, 3529),
    (*GOLDEN[0][:2], 2566),
    (*GOLDEN[1][:2], 2253),
], ids=["gnm32", "gnm24", "gnm20-zeroheavy"])
def test_max_energy_bound(spec, sources, bound):
    """Max per-node energy may only fall: waiting nodes share one pipeline
    grid with power-of-two periods, so a node's nested pipes at one depth
    listen on the same rounds whatever their component sizes, the
    cutter and adoption windows close once the node's own wave has passed,
    the recursion starts at the component's threshold, a near child
    that keeps its parent's whole component reuses the parent's tree, a
    component starts its cutter once a Boruvka phase finds it whole, and a
    completed frame's pipe stops listening in the round it completes."""
    g = gen_graph(spec)
    outputs, report, _ = cssp_energy(g, sources, trace=False)
    assert outputs == dijkstra(g, sources)
    assert report.max_energy() <= bound


def test_listening_ends_with_the_wave(monkeypatch):
    """Cutter and adoption windows close at the node's own wave front. In
    the root frame, a node whose tick is final in round R sleeps from R + 2
    to the cutter's end; in each Boruvka phase a node sleeps from two rounds
    after its last adoption event (adopted, adoption sent, or acknowledgement
    read) to the round before the phase ends. The first phase that finds
    no outgoing edge starts the cutter in its merge round."""
    g = gen_graph(GOLDEN[0][0])
    N, W = g.n, g.n + 2
    phase_len = 3 * W + 4
    last_event = {}  # (node, phase) -> last adoption round in the root frame
    programs = {}

    class Watching(EnergyCsspProgram):
        def _note(self, api, msg):
            if msg.ctx == 1 and msg.tag in (T_ADOPT, T_ACK):
                last_event[(self.node, api.round // phase_len)] = api.round

        def _dispatch(self, api, src, msg):
            self._note(api, msg)
            super()._dispatch(api, src, msg)

        def _send(self, api, dst, msg, critical=False):
            self._note(api, msg)
            super()._send(api, dst, msg, critical)

    def program(*args, **kw):
        p = programs[args[0]] = Watching(*args, **kw)
        return p

    log = record(monkeypatch)
    outputs, report, _ = cssp(g, GOLDEN[0][1], program=program, trace=False)
    assert outputs == dijkstra(g, GOLDEN[0][1])
    assert report.lost == 0
    awake = {v: log[v].awake() for v in range(g.n)}

    def asleep(v, lo, hi):
        return not any(awake[v](r) for r in range(lo, hi + 1))

    merges = max(p for _, p in last_event) + 1
    assert 2 <= merges < (N - 1).bit_length()
    root = {v: p.frames[1] for v, p in programs.items()}
    t_cut = root[0].t_cut
    assert t_cut == merges * phase_len + 2 * W + 1
    assert all(f.t_cut == t_cut for f in root.values())
    ticked = [v for v, f in root.items() if f.tick is not None]
    assert len(ticked) > g.n // 2
    for v in ticked:
        assert asleep(v, t_cut + root[v].tick + 2, t_cut + 6 * N), v
    for p in range(merges):
        base = p * phase_len
        for v in range(g.n):
            lo = last_event.get((v, p), base + 2 * W + 1) + 2
            assert asleep(v, lo, base + phase_len - 2), (v, p)


def test_windows_are_declared_once():
    """The sleeping flavor restates no frame window: `CsspProgram` declares
    each listening window where it plans the work."""
    assert not {"_enter", "_phase_start", "_send_chosen",
                "_start_cutter"} & set(vars(EnergyCsspProgram))


def test_one_send_queue():
    """Both flavors send through `CsspProgram`'s one queue and release frames
    by its rule: the sleeping flavor only says in which rounds a completion
    message may go (`_slots`)."""
    assert not {"_send_queued", "_pipe_send", "_release",
                "_may_finish"} & set(vars(EnergyCsspProgram))


@pytest.mark.parametrize("spec, sources", [g[:2] for g in GOLDEN], ids=GOLDEN_IDS)
@pytest.mark.parametrize("base", [CsspProgram, EnergyCsspProgram],
                         ids=["congest", "energy"])
def test_released_frames_are_never_named(base, spec, sources):
    """A completed non-root frame is released in the step it completes;
    afterwards no dispatched message and no planned action names its path,
    and a finished run keeps only each node's root frame."""
    released = {}  # node -> released paths

    class Watching(base):
        def _frame_complete(self, api, f):
            super()._frame_complete(api, f)
            assert (f.path in self.frames) == (f.path == 1)

        def _release(self, f):
            super()._release(f)
            gone = released.setdefault(self.node, set())
            assert f.path not in gone
            gone.add(f.path)
            assert all(args[0] != f.path
                       for bucket in self._plan.values() for _, args in bucket)

        def _dispatch(self, api, src, msg):
            assert msg.ctx not in released.get(self.node, ())
            super()._dispatch(api, src, msg)

        def _act(self, api, action, args):
            assert args[0] not in released.get(self.node, ())
            super()._act(api, action, args)

    g = gen_graph(spec)
    programs = []

    def program(*args, **kw):
        programs.append(Watching(*args, **kw))
        return programs[-1]

    outputs, _, _ = cssp(g, sources, program=program, trace=False)
    assert outputs == dijkstra(g, sources)
    assert sum(map(len, released.values())) > g.n
    assert all(list(p.frames) == [1] for p in programs)
