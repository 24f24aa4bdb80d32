"""Differential test of the component census.

Every frame's component size rides on the min-edge convergecast of the
Boruvka phase that finds no outgoing edge, and the root's decision carries
it down. `trace_checks.check_component_sizes` compares the size each
`cutter` event reports with the node's component in the subgraph induced by
its frame group, read from the graph's connectivity. Inputs are random gnm
graphs of 4 to 16 nodes, sparse enough to be disconnected, with isolated
nodes, zero weights and several sources. Both CSSP flavors must stay exact,
the sleeping flavor must lose no message, and the audit must pass; a census
that drops one child's report must fail it.
"""

import pytest

from sleepysim.congest_cssp import CsspProgram, cssp, lift_zero_weights
from sleepysim.energy_cssp import EnergyCsspProgram
from sleepysim.graph import GraphSpec, gen_graph
from sleepysim.oracle import dijkstra
from sleepysim.trace_checks import check_component_sizes

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


@st.composite
def graphs(draw):
    """(graph, sources): a random gnm graph of 4 to 16 nodes and 0 to 2n
    edges."""
    n = draw(st.integers(4, 16))
    spec = GraphSpec("random-gnm", n, seed=draw(st.integers(0, 999)),
                     m=draw(st.integers(0, min(2 * n, n * (n - 1) // 2))),
                     weight_mode=draw(st.sampled_from(["uniform", "zero-heavy"])),
                     max_w=draw(st.sampled_from([1, 9, 60])))
    sources = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    return gen_graph(spec), sources


@pytest.mark.parametrize("program", [CsspProgram, EnergyCsspProgram],
                         ids=["congest", "energy"])
@settings(max_examples=100)
@given(case=graphs())
def test_component_sizes_match_the_graph(program, case):
    graph, sources = case
    outputs, report, engine = cssp(graph, sources, program=program, trace=True)
    assert report.status == "done"
    assert report.lost == 0
    assert outputs == dijkstra(graph, sources)
    zero = any(w == 0 for _, _, w in graph.edges)
    work = lift_zero_weights(graph) if zero else graph
    ok, detail = check_component_sizes(work, engine.trace_log)
    assert ok, detail
    cutters = sum(kind == "cutter" for kind, _ in engine.trace_log)
    assert detail == f"{cutters} component sizes verified"


@pytest.mark.parametrize("program", [CsspProgram, EnergyCsspProgram],
                         ids=["congest", "energy"])
def test_planted_census_that_drops_a_child_fails(program):
    """A census that drops its smallest child's report undercounts; the
    cutter contract does not see it, the size audit does."""

    class Dropping(program):
        def _on_size(self, f, src, payload):
            if src != min(f.children):
                super()._on_size(f, src, payload)

    g = gen_graph(GraphSpec("random-gnm", 12, seed=1, m=20,
                            weight_mode="uniform", max_w=9))
    _, _, engine = cssp(g, {0}, program=Dropping, trace=True)
    ok, detail = check_component_sizes(g, engine.trace_log)
    assert not ok
    assert detail == "path 1: node 0 has size 6, component 12"
