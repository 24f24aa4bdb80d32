"""Fast self-test of the benchmark: python -m pytest perfbench -q

A tiny instance of every workload runs end to end, untraced and traced, and
one planted wrong output per workload must be caught by its verification.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def pkg():
    return run.import_package()


def _tiny(pkg, wl):
    graphs, problems = run.build_graphs(pkg, wl.tiny)
    assert problems == []
    return graphs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_instances_verify(pkg, name):
    wl = WORKLOADS[name]
    graphs = _tiny(pkg, wl)
    for inst in wl.tiny:
        _, res, problems = run.run_op(pkg, wl, inst, graphs[inst.name])
        assert problems == [], (inst.name, problems)


# the check each planted fault must trip
CAUGHT_BY = {
    "congest-gnm": "distance mismatch",
    "energy-gnm": "distance mismatch",
    "bfs-cover": "cover",
    "apsp-gnm": "matrix mismatch",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_planted_fault_is_caught(pkg, name):
    wl = WORKLOADS[name]
    graphs = _tiny(pkg, wl)
    inst = wl.tiny[0]
    g = graphs[inst.name]
    res = wl.run(pkg, g, inst)
    assert wl.verify(pkg, g, inst, res) == []
    wl.corrupt(res)
    problems = wl.verify(pkg, g, inst, res)
    assert problems
    assert all(p.startswith(CAUGHT_BY[name]) for p in problems), problems


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_round_reports_every_layer(pkg, name):
    wl = WORKLOADS[name]
    graphs = _tiny(pkg, wl)
    tally = run.Tally()
    tracer = Tracer(pkg)
    installed = tracer.install()
    try:
        run.run_round(pkg, wl, graphs, wl.tiny, tally, tracer=tracer)
    finally:
        tracer.uninstall()
    assert installed > 0
    assert tally.failed == 0 and tally.problems == []
    values = run.layer_metrics(tracer, 0.0, tally.op_s(), 0)
    names = {m["name"] for m in run.bench_spec()["per_layer"]}
    assert set(values) == names
    assert values["engine.run_s"] > 0 and values["engine.steps"] > 0
    reached = {
        "congest-gnm": "cssp.frames",
        "energy-gnm": "energy_cssp.step_s",
        "bfs-cover": "netdecomp.rounds",
        "apsp-gnm": "apsp_sched.substeps",
    }[name]
    assert values[reached] > 0
    # the originals are back: nothing the package exposes is still wrapped
    assert pkg.netdecomp.build_cover_sync is pkg.energy_bfs.build_cover_sync
    assert not hasattr(pkg.engine.Engine.run, "__wrapped__")
