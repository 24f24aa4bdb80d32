import json
from pathlib import Path

import pytest

from sleepysim import cli
from sleepysim.acceptance import CriterionResult
from sleepysim.cli import EXIT_CONFIG, EXIT_OK, EXIT_TIMEOUT, EXIT_VERIFY, main
from sleepysim.energy_bfs import full_bfs, grow_cover_stack
from sleepysim.graph import GraphSpec, gen_graph, save_graph
from sleepysim.oracle import hop_distances
from sleepysim.structures import (
    ClusterData, Cover, LayeredCover, load_layered_cover, save_layered_cover,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_run_cssp_with_verify(tmp_path, capsys):
    fixture = tmp_path / "p3.txt"
    fixture.write_text("3 2\n0 1 2\n1 2 3\n")
    out = tmp_path / "out"
    code = main(["run", "--graph", str(fixture), "--algo", "cssp-congest",
                 "--verify", "--out", str(out)])
    assert code == EXIT_OK
    dist = json.loads((out / "distances.json").read_text())
    assert dist == {"0": 0, "1": 2, "2": 5}
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "done"


def test_run_generated_energy(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--gen", "path", "--n", "9", "--algo", "bfs-energy",
                 "--verify", "--out", str(out),
                 "--save-cover", str(tmp_path / "cover.slpycov")])
    assert code == EXIT_OK
    assert (tmp_path / "cover.slpycov").read_text().startswith("SLPYCOV1")


def test_cover_cache_roundtrip(tmp_path):
    cache = tmp_path / "cover.slpycov"
    code = main(["run", "--gen", "path", "--n", "9", "--algo", "bfs-energy",
                 "--verify", "--save-cover", str(cache),
                 "--out", str(tmp_path / "a")])
    assert code == EXIT_OK
    code = main(["run", "--gen", "path", "--n", "9", "--algo", "bfs-energy",
                 "--verify", "--cover-cache", str(cache),
                 "--out", str(tmp_path / "b")])
    assert code == EXIT_OK


def test_cover_cache_without_levels_exits_2(tmp_path, capsys):
    """A cache whose body misses its keys is a config error for `run` and a
    failed fixture check for `verify`, not a traceback."""
    cache = tmp_path / "cover.slpycov"
    cache.write_text("SLPYCOV1\n{}\n")
    code = main(["run", "--gen", "path", "--n", "5", "--algo", "bfs-energy",
                 "--cover-cache", str(cache), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err == "error: cover cache: missing key 'levels'\n"
    fix = tmp_path / "fix"
    fix.mkdir()
    (fix / "graph.txt").write_text(save_graph(gen_graph(GraphSpec("path", 5))))
    (fix / "cover.slpycov").write_text(cache.read_text())
    code = main(["verify", "--fixtures", str(fix), "--quick"])
    assert code == EXIT_VERIFY
    assert "fixture check [FAIL] cover cache: missing key" in capsys.readouterr().out


def test_cover_cache_of_another_graph_exits_2(tmp_path, capsys):
    """A valid cache saved from path9, run on a path5 file: its clusters name
    nodes the graph does not have."""
    cache = tmp_path / "cover.slpycov"
    layered, _, _, _ = grow_cover_stack(gen_graph(GraphSpec("path", 9)))
    cache.write_text(save_layered_cover(layered))
    graph = tmp_path / "p5.txt"
    graph.write_text(save_graph(gen_graph(GraphSpec("path", 5))))
    code = main(["run", "--graph", str(graph), "--algo", "bfs-energy",
                 "--cover-cache", str(cache), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error: cover cache: cluster ")
    assert "not in the graph" in err and "Traceback" not in err


def test_cover_cache_tree_edge_off_the_graph_exits_2(tmp_path, capsys):
    """A cache whose tree uses a pair of nodes the graph does not join."""
    g = gen_graph(GraphSpec("path", 9))
    layered, _, _, _ = grow_cover_stack(g)
    cl = layered.levels[0].clusters[0]
    leaf = max(cl.tree, key=lambda v: cl.tree[v][1])
    _, depth, term = cl.tree[leaf]
    cl.tree[leaf] = (cl.root, depth, term)
    cache = tmp_path / "cover.slpycov"
    cache.write_text(save_layered_cover(layered))
    code = main(["run", "--gen", "path", "--n", "9", "--algo", "bfs-energy",
                 "--cover-cache", str(cache), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "not in the graph" in capsys.readouterr().err


def test_two_level_cover_cache_of_a_spanning_level_0_runs(tmp_path):
    """A cache saved when the build always put the scale-B cover on level 0:
    criterion 3's gnm40, whose level 0 already spans the graph (one cluster
    spans it, one does not) and whose level 1 is two clusters that each span
    it. It still loads, passes the stack checks and runs exact."""
    cache = FIXTURES / "gnm40-seed4-m90-two-levels.slpycov"
    assert load_layered_cover(cache.read_text()).top == 1
    code = main(["run", "--gen", "random-gnm", "--n", "40", "--seed", "4",
                 "--m", "90", "--algo", "bfs-energy", "--cover-cache",
                 str(cache), "--verify", "--out", str(tmp_path / "o")])
    assert code == EXIT_OK


@pytest.mark.parametrize("spec, top", [
    (GraphSpec("grid", 36), 0), (GraphSpec("path", 65), 1),
], ids=["grid36-top0", "path65-forest-top"])
def test_grown_stacks_round_trip(spec, top):
    """A stack that stops at level 0 and one whose top is the spanning
    forest's tree (no cover built above level 0 in either) are saved,
    loaded, checked as a cache is, and run exact from the loaded copy."""
    g = gen_graph(spec)
    layered, built, _, _ = grow_cover_stack(g, trace=False)
    assert (layered.top, len(built)) == (top, 1)
    loaded = load_layered_cover(save_layered_cover(layered))
    assert loaded == layered
    assert cli.cover_faults(g, loaded) == []
    outputs, report, *_ = full_bfs(g, {0}, layered=loaded, trace=False)
    assert outputs == hop_distances(g, [0]) and report.lost == 0


def _segment(cid, lo, hi):
    """A cluster of path nodes lo..hi, its tree the path rooted at lo."""
    return ClusterData(id=cid, members=set(range(lo, hi + 1)), tree={
        v: (None if v == lo else v - 1, v - lo, True) for v in range(lo, hi + 1)})


def test_cover_cache_that_never_spans_exits_2(tmp_path, capsys, monkeypatch):
    """A stack that meets every cover and parent condition on path200 but
    has no level whose clusters span the path, and base**top = 8 below twice
    the threshold: the BFS phase would lose a critical message on it. At
    threshold 4 (8 >= 2 x 4) it is a stack the cover build could stop at."""
    n = 200
    g = gen_graph(GraphSpec("path", n))
    layered = LayeredCover(8, [
        Cover(1, [_segment(i, 20 * i, min(n - 1, 20 * i + 21)) for i in range(10)]),
        Cover(8, [_segment(0, 0, 119), _segment(1, 80, 199)])],
        {(0, i): int(i > 4) for i in range(10)})
    graph, cache = tmp_path / "p200.txt", tmp_path / "cover.slpycov"
    graph.write_text(save_graph(g))
    cache.write_text(save_layered_cover(layered))
    run = ["run", "--graph", str(graph), "--algo", "bfs-energy",
           "--cover-cache", str(cache), "--verify"]
    assert main(run + ["--out", str(tmp_path / "a")]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: cover cache: no level has every node in a cluster that spans "
        "its component, and base**top = 8 is below 2 x threshold 240\n")
    assert main(run + ["--threshold", "5", "--out", str(tmp_path / "b")]) == EXIT_CONFIG
    assert "below 2 x threshold 5" in capsys.readouterr().err
    assert main(run + ["--threshold", "4", "--out", str(tmp_path / "c")]) == EXIT_OK
    with pytest.raises(ValueError, match="base\\*\\*top = 8"):
        full_bfs(g, {0}, layered=layered)
    fix = tmp_path / "fix"
    fix.mkdir()
    (fix / "graph.txt").write_text(graph.read_text())
    (fix / "cover.slpycov").write_text(cache.read_text())
    capsys.readouterr()
    monkeypatch.setattr(cli, "run_acceptance", lambda profile: [])
    assert main(["verify", "--fixtures", str(fix), "--quick"]) == EXIT_VERIFY
    assert "fixture check [FAIL] cover cache: {'kind': 'bfs-stack'" in (
        capsys.readouterr().out)


def test_malformed_config_exits_2(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("algo cssp-congest\nbogus-key 7\n")
    code = main(["run", "--config", str(cfg), "--gen", "path", "--n", "3"])
    assert code == EXIT_CONFIG


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("# experiment template\nalgo cssp-congest\ngen path\nn 5\n")
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--n", "7", "--verify",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert len(json.loads((out / "distances.json").read_text())) == 7


def test_config_bad_choice_exits_2_without_output(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("algo bogus\ngen path\nn 5\n")
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_config_bad_int_exits_2(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("algo cssp-congest\ngen path\nn six\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG


def test_config_bare_key_sets_flag(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("algo cssp-congest\ngen path\nn 5\nverify\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_OK
    assert "verification passed" in capsys.readouterr().out


def test_round_limit_timeout(tmp_path):
    code = main(["run", "--gen", "path", "--n", "12", "--algo", "cssp-congest",
                 "--round-limit", "5", "--out", str(tmp_path / "o")])
    assert code == EXIT_TIMEOUT


def test_negative_round_limit_exits_2_without_output(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["run", "--gen", "path", "--n", "5", "--algo", "cssp-congest",
                 "--round-limit", "-1", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert "--round-limit: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("algo, flag, value, low", [
    ("cover", "--d", "-1", 1),
    ("apsp", "--delta", "-3", 0),
    ("bfs-energy", "--threshold", "-2", 0),
    ("decomp", "--k", "-1", 1),
], ids=["d", "delta", "threshold", "k"])
def test_negative_value_exits_2_without_output(tmp_path, capsys, algo, flag,
                                               value, low):
    out = tmp_path / "o"
    code = main(["run", "--gen", "path", "--n", "5", "--algo", algo,
                 flag, value, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert f"{flag}: must be >= {low}, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("algo, flag", [("decomp", "--k"), ("cover", "--d")],
                         ids=["k", "d"])
def test_zero_k_or_d_exits_2_without_output(tmp_path, capsys, algo, flag):
    """A separation or scale of 0 is rejected, not replaced by the default."""
    out = tmp_path / "o"
    code = main(["run", "--gen", "path", "--n", "5", "--algo", algo,
                 flag, "0", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert f"{flag}: must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("n, base", [(64, 1), (64, 2), (64, 3), (40, 2)])
def test_base_the_stack_cannot_link_exits_2_without_output(tmp_path, capsys,
                                                           n, base):
    """A requested base whose scale-B cover misses some scale-1 cluster's
    tree nodes is a bad input, not a simulation error."""
    out = tmp_path / "o"
    code = main(["run", "--gen", "path", "--n", str(n), "--algo", "bfs-energy",
                 "--base", str(base), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert f"base {base} cannot link" in capsys.readouterr().err


def test_base_failing_the_stretch_guard_exits_2_without_output(tmp_path, capsys):
    """A requested base whose built level above 1 has stretch over B/2 is a
    bad input too: random-tree96 (seed 3) at base 2 builds a scale-4 cover of
    stretch 3, and the run exits 2 naming the base, where it exited 3 with a
    simulation error."""
    out = tmp_path / "o"
    code = main(["run", "--gen", "random-tree", "--n", "96", "--seed", "3",
                 "--algo", "bfs-energy", "--base", "2", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert "base 2 " in err and "stretch 3 > base/2 = 1" in err


def test_base_the_stack_links_runs(tmp_path):
    """No stretch rule separates the bases that link: on path64, base 4 links
    where bases 1 to 3 do not."""
    code = main(["run", "--gen", "path", "--n", "64", "--algo", "bfs-energy",
                 "--base", "4", "--verify", "--out", str(tmp_path / "o")])
    assert code == EXIT_OK
    assert (tmp_path / "o" / "distances.json").exists()


@pytest.mark.parametrize("n", [16, 32, 40])
def test_base_4_runs_exact(tmp_path, n):
    """path32's base-4 stack has a top-level cluster that neither spans the
    path nor holds the source, with a level-0 cluster linked under it; the
    BFS phase runs on the spanning top cluster alone, so the run passes
    `--verify` (it exited 3 with a critical loss while that cluster ran)."""
    code = main(["run", "--gen", "path", "--n", str(n), "--algo", "bfs-energy",
                 "--base", "4", "--verify", "--out", str(tmp_path / "o")])
    assert code == EXIT_OK


@pytest.mark.parametrize("value", ["0", "-2"])
def test_base_below_1_exits_2_without_output(tmp_path, capsys, value):
    out = tmp_path / "o"
    code = main(["run", "--gen", "path", "--n", "9", "--algo", "bfs-energy",
                 "--base", value, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert f"--base: must be >= 1, got {value}" in capsys.readouterr().err


def test_empty_sources_is_bad_sources(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["run", "--gen", "path", "--n", "5", "--algo", "cssp-congest",
                 "--sources", "", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert "bad sources '': no node id" in capsys.readouterr().err


def test_round_limit_rejected_for_bfs_energy(tmp_path):
    code = main(["run", "--gen", "path", "--n", "9", "--algo", "bfs-energy",
                 "--round-limit", "5", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("algo, flag, value", [
    ("cssp-congest", "--threshold", "3"),
    ("cssp-energy", "--base", "4"),
    ("decomp", "--cover-cache", "cover.slpycov"),
    ("cssp-congest", "--save-cover", "cover.slpycov"),
    ("cover", "--k", "2"),
    ("decomp", "--d", "2"),
    ("cssp-congest", "--delta", "1"),
], ids=["threshold", "base", "cover-cache", "save-cover", "k", "d", "delta"])
def test_flag_of_another_algo_exits_2_without_output(tmp_path, capsys, algo,
                                                     flag, value):
    """A `run` flag that the chosen algorithm does not read is a config error,
    not a flag silently ignored (`--save-cover` would write nothing)."""
    out = tmp_path / "o"
    code = main(["run", "--gen", "path", "--n", "5", "--algo", algo,
                 flag, str(tmp_path / value) if "cover" in flag else value,
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists() and not (tmp_path / value).exists()
    assert f"{flag} does not apply to --algo {algo}" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["decomp", "cover"])
def test_sweep_offers_only_what_it_runs(capsys, algo):
    code = main(["sweep", "--algo", algo, "--axis", "n", "--values", "4"])
    assert code == EXIT_CONFIG
    assert f"invalid choice: '{algo}'" in capsys.readouterr().err


def test_apsp_round_limit_keeps_schedule(tmp_path):
    code = main(["run", "--gen", "cycle", "--n", "6", "--algo", "apsp",
                 "--verify", "--round-limit", "10000000",
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_OK


def test_apsp_round_limit_timeout(tmp_path):
    code = main(["run", "--gen", "cycle", "--n", "6", "--algo", "apsp",
                 "--round-limit", "5", "--out", str(tmp_path / "o")])
    assert code == EXIT_TIMEOUT


def test_missing_graph_exits_2():
    assert main(["run", "--algo", "cssp-congest"]) == EXIT_CONFIG


def test_apsp_matrix_csv(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--gen", "cycle", "--n", "4", "--algo", "apsp",
                 "--verify", "--out", str(out)])
    assert code == EXIT_OK
    rows = (out / "matrix.csv").read_text().strip().split("\n")
    assert len(rows) == 4
    assert rows[0].split(",")[0] == "0"


def test_sweep_rows(tmp_path, capsys):
    code = main(["sweep", "--algo", "cssp-congest", "--axis", "n",
                 "--values", "8,12,16", "--gen", "random-gnm"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "point,rounds,max_energy,max_congestion,messages,lost"
    assert len(lines) == 4


def test_sweep_empty_axis():
    code = main(["sweep", "--algo", "cssp-congest", "--axis", "n",
                 "--values", ""])
    assert code == EXIT_CONFIG


def test_sweep_bad_graph_exits_2():
    # random-gnm with n=6 has at most 15 edges, and the sweep asks for 3n
    code = main(["sweep", "--algo", "cssp-congest", "--axis", "n",
                 "--values", "6", "--gen", "random-gnm"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["gen", "--gen", "random-gnm", "--n", "5", "--m", "-1"],
    ["sweep", "--algo", "cssp-congest", "--axis", "density", "--n", "5",
     "--values", "-2"],
], ids=["gen", "sweep-density"])
def test_negative_gnm_edge_count_exits_2(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert "negative" in captured.err and "Traceback" not in captured.err


def test_verify_missing_fixtures(tmp_path):
    code = main(["verify", "--fixtures", str(tmp_path / "nope"), "--quick"])
    assert code == EXIT_CONFIG


def test_verify_corrupted_cover_cache(tmp_path, capsys):
    g = gen_graph(GraphSpec("path", 9))
    layered, _, _, _ = grow_cover_stack(g)
    # corrupt: drop a node from every level-0 cluster member list
    for cl in layered.levels[0].clusters:
        if len(cl.members) > 1:
            cl.members.discard(max(cl.members))
    fix = tmp_path / "fix"
    fix.mkdir()
    (fix / "graph.txt").write_text(save_graph(g))
    (fix / "cover.slpycov").write_text(save_layered_cover(layered))
    code = main(["verify", "--fixtures", str(fix), "--quick"])
    text = capsys.readouterr().out
    assert "fixture check [FAIL]" in text
    assert code == EXIT_VERIFY


@pytest.mark.parametrize("passed, failing, code, mark", [
    ({1: True, 6: False}, (), EXIT_OK, "[XFAIL]"),
    ({1: True, 6: True}, (), EXIT_OK, "[XPASS]"),
    ({1: False, 6: False}, (1,), EXIT_VERIFY, "[XFAIL]"),
])
def test_verify_declared_failure_is_not_counted(monkeypatch, capsys, passed,
                                                failing, code, mark):
    def fake_acceptance(profile="full", emit=print):
        results = [CriterionResult(n, f"c{n}", ok, f"detail {n}")
                   for n, ok in passed.items()]
        for r in results:
            emit(r.line())
        return results

    monkeypatch.setattr(cli, "run_acceptance", fake_acceptance)
    assert main(["verify", "--quick"]) == code
    text = capsys.readouterr().out
    assert f"criterion  6 {mark} c6: detail 6" in text
    for n in failing:
        assert f"criterion {n:2d} [FAIL]" in text


def test_decomp_and_cover_algos(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--gen", "cycle", "--n", "12", "--algo", "decomp",
                 "--k", "2", "--verify", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads((out / "distances.json").read_text())
    assert doc["colors"] >= 1
    code = main(["run", "--gen", "cycle", "--n", "12", "--algo", "cover",
                 "--d", "2", "--verify", "--out", str(out)])
    assert code == EXIT_OK


def test_gen_to_stdout(capsys):
    code = main(["gen", "--gen", "path", "--n", "3"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "3 2\n0 1 1\n1 2 1\n"
