"""Command-line front door: generation, runs, sweeps, and verification.

A `run` config file holds `run` flags, one `key value` (or bare `key`) per
line; explicit flags win. A flag in `RUN_FLAGS` given to an algorithm that
does not read it is a config error. Exit codes: 0 success, 2 bad config or
missing input, 3 verification failure, 4 round-limit timeout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import inf

from .acceptance import run_acceptance
from .apsp_sched import apsp_random_delay
from .congest_cssp import cssp
from .energy_bfs import full_bfs, stack_fault
from .energy_cssp import cssp_energy
from .engine import SimError
from .graph import GraphError, GraphSpec, gen_graph, load_graph, save_graph
from .netdecomp import build_cover_sync, build_decomposition, promised_bounds
from .oracle import (
    check_cover, check_decomposition, check_layered, check_on_graph, dijkstra,
    hop_distances,
)
from .structures import load_layered_cover, save_layered_cover

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_TIMEOUT = 4

ALGOS = ("bfs-energy", "cssp-congest", "cssp-energy", "apsp", "decomp", "cover")

# `run` flags (by argparse dest) and the algorithms that read them
RUN_FLAGS = {
    "round_limit": ("cssp-congest", "cssp-energy", "apsp"),
    "threshold": ("bfs-energy",),
    "base": ("bfs-energy",),
    "cover_cache": ("bfs-energy",),
    "save_cover": ("bfs-energy",),
    "k": ("decomp",),
    "d": ("cover",),
    "delta": ("apsp",),
}

# what `sweep` runs per algorithm: (graph, sources, seed) -> report
SWEEPS = {
    "bfs-energy": lambda g, src, seed: full_bfs(g, src, trace=False)[1],
    "cssp-congest": lambda g, src, seed: cssp(g, src, trace=False)[1],
    "cssp-energy": lambda g, src, seed: cssp_energy(g, src, trace=False)[1],
    "apsp": lambda g, src, seed: apsp_random_delay(g, seed=seed, trace=False)[1],
}

class CliError(Exception):
    def __init__(self, message, code=EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def log(*parts):
    if os.environ.get("SLEEPY_LOG"):
        print("[sleepysim]", *parts, file=sys.stderr)


def config_flags(text) -> list:
    """The `run` flags a config file holds: `key value` -> `--key=value`,
    a bare `key` -> `--key`; blank lines and `#` comments are skipped."""
    flags = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition(" ")
            value = value.strip()
            flags.append(f"--{key}={value}" if value else f"--{key}")
    return flags


def build_parser():
    ap = argparse.ArgumentParser(prog="sleepysim")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph file")
    gen.add_argument("--graph", help="edge-list file")
    _graph_flags(gen)
    gen.add_argument("--out", default="-")

    run = sub.add_parser("run", help="run one algorithm")
    run.add_argument("--config", help="file of run flags; explicit flags win")
    run.add_argument("--graph", help="edge-list file")
    _graph_flags(run)
    run.add_argument("--algo", choices=ALGOS)
    run.add_argument("--sources", default="0", help="comma list of node ids")
    run.add_argument("--threshold", type=non_negative_int,
                     help="distance threshold")
    run.add_argument("--k", type=positive_int,
                     help="decomposition separation (default 2)")
    run.add_argument("--d", type=positive_int, help="cover scale (default 1)")
    run.add_argument("--delta", type=non_negative_int, help="apsp delay range")
    run.add_argument("--base", type=positive_int,
                     help="layered cover base override")
    run.add_argument("--round-limit", type=non_negative_int,
                     help="logical round cap, 0 for the default")
    run.add_argument("--verify", action="store_true")
    run.add_argument("--out", help="output directory")
    run.add_argument("--json", action="store_true", help="print report JSON")
    run.add_argument("--cover-cache", help="layered cover file to reuse")
    run.add_argument("--save-cover", help="write the built layered cover here")

    sweep = sub.add_parser("sweep", help="run a template across an axis")
    _graph_flags(sweep)
    sweep.add_argument("--algo", choices=tuple(SWEEPS))
    sweep.add_argument("--axis", choices=("n", "D", "density"), required=True)
    sweep.add_argument("--values", required=True, help="comma list of points")
    sweep.add_argument("--sources", default="0")
    sweep.add_argument("--out", help="CSV output path (default stdout)")

    ver = sub.add_parser("verify", help="run the acceptance suite")
    ver.add_argument("--fixtures", help="directory with graph.txt/cover.slpycov")
    ver.add_argument("--quick", action="store_true")
    return ap


def _int_at_least(low):
    """An argparse type: an integer >= `low`."""
    def parse(text) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


non_negative_int = _int_at_least(0)
positive_int = _int_at_least(1)


def _graph_flags(p):
    p.add_argument("--gen", dest="family", help="graph family to generate")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--weights", default="unit",
                   choices=("unit", "uniform", "zero-heavy"))
    p.add_argument("--maxw", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)


def parse_args(argv):
    """Parse the command line. `run --config FILE` is parsed again with the
    file's flags in front of the explicit ones, so explicit flags win."""
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "run" and args.config:
        try:
            text = open(args.config).read()
        except OSError as e:
            ap.error(f"cannot read config {args.config}: {e}")
        args = ap.parse_args(argv[:1] + config_flags(text) + argv[1:])
    return args


def resolve_graph(args):
    if args.graph:
        try:
            return load_graph(open(args.graph).read())
        except (OSError, GraphError) as e:
            raise CliError(f"graph file: {e}")
    if args.family:
        if not args.n:
            raise CliError("--gen needs --n")
        return generate(GraphSpec(args.family, args.n, seed=args.seed,
                                  m=args.m, weight_mode=args.weights,
                                  max_w=args.maxw))
    raise CliError("need --graph FILE or --gen FAMILY")


def generate(spec):
    try:
        return gen_graph(spec)
    except GraphError as e:
        raise CliError(str(e))


def parse_sources(text, n):
    try:
        out = {int(x) for x in text.split(",") if x.strip() != ""}
    except ValueError:
        raise CliError(f"bad sources {text!r}")
    if not out:
        raise CliError(f"bad sources {text!r}: no node id")
    if any(not 0 <= v < n for v in out):
        raise CliError(f"sources out of range for n={n}")
    return out


def _emit(args, name, text):
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name)
        with open(path, "w") as f:
            f.write(text)
        log("wrote", path)
    else:
        print(text)


def _dist_doc(outputs):
    return json.dumps(
        {str(v): (None if outputs[v] is inf else outputs[v])
         for v in sorted(outputs)},
        sort_keys=True)


def cover_faults(g, layered, threshold=None) -> list:
    """What a cover stack violates on graph `g`: node ids and tree edges
    first, then every level's cover conditions at the promised bounds, the
    parent conditions and what a BFS to `threshold` (None: unthresholded)
    needs of the stack (`energy_bfs.stack_fault`)."""
    bad = [f for cov in layered.levels for f in check_on_graph(g, cov)]
    if bad:
        return bad
    for cov in layered.levels:
        bad.extend(check_cover(g, cov, cov.scale, *promised_bounds(g.n)))
    bad.extend(check_layered(g, layered, layered.base**layered.top,
                             layered.base))
    fault = stack_fault(g, layered, threshold)
    if fault is not None:
        bad.append({"kind": "bfs-stack", "subjects": [], "detail": fault})
    return bad


def cmd_run(args) -> int:
    if not args.algo:
        raise CliError("need --algo")
    for dest, algos in RUN_FLAGS.items():
        if getattr(args, dest) is not None and args.algo not in algos:
            flag = "--" + dest.replace("_", "-")
            raise CliError(f"{flag} does not apply to --algo {args.algo}")
    g = resolve_graph(args)
    sources = parse_sources(args.sources, g.n)
    limit = args.round_limit
    log("running", args.algo, f"n={g.n} m={g.m}")

    verify_fail = ""
    if args.algo in ("cssp-congest", "cssp-energy"):
        run = cssp if args.algo == "cssp-congest" else cssp_energy
        outputs, report, _ = run(g, sources, round_limit=limit, trace=False)
        if args.verify and outputs != dijkstra(g, sources):
            verify_fail = "distance mismatch vs oracle"
        dist_text = _dist_doc(outputs)
    elif args.algo == "bfs-energy":
        layered = None
        if args.cover_cache:
            try:
                layered = load_layered_cover(open(args.cover_cache).read())
            except (OSError, ValueError) as e:
                raise CliError(f"cover cache: {e}")
            bad = cover_faults(g, layered, args.threshold)
            if bad:
                raise CliError(f"cover cache: {bad[0]['detail']}")
        try:
            outputs, report, _, layered, _, _ = full_bfs(
                g, sources, threshold=args.threshold, base=args.base,
                layered=layered, trace=False)
        except ValueError as e:
            raise CliError(str(e))
        ref = {v: (d if args.threshold is None or d <= args.threshold else inf)
               for v, d in hop_distances(g, sources).items()}
        if args.save_cover:
            with open(args.save_cover, "w") as f:
                f.write(save_layered_cover(layered))
        if args.verify and outputs != ref:
            verify_fail = "hop distance mismatch vs oracle"
        dist_text = _dist_doc(outputs)
    elif args.algo == "apsp":
        matrix, report, _, _ = apsp_random_delay(
            g, delta=args.delta, seed=args.seed, round_limit=limit, trace=False)
        if args.verify:
            for s in range(g.n):
                ref = dijkstra(g, [s])
                if any(matrix[(s, v)] != ref[v] for v in range(g.n)):
                    verify_fail = f"matrix mismatch from source {s}"
                    break
        rows = []
        for s in range(g.n):
            rows.append(",".join(
                "" if matrix[(s, v)] is inf else str(matrix[(s, v)])
                for v in range(g.n)))
        dist_text = "\n".join(rows) + "\n"
    elif args.algo == "decomp":
        k = 2 if args.k is None else args.k
        decomp, _, report, _ = build_decomposition(g, k, trace=False)
        if args.verify:
            bad = check_decomposition(g, decomp, k, *promised_bounds(g.n, k))
            if bad:
                verify_fail = f"decomposition violations: {bad[:2]}"
        dist_text = json.dumps({
            "colors": len(decomp.colors),
            "clusters": [
                {"id": cl.id, "color": c, "members": sorted(cl.members)}
                for c, cls in enumerate(decomp.colors) for cl in cls
            ],
        }, sort_keys=True)
    else:  # cover
        d = 1 if args.d is None else args.d
        cover, decomp, report, _ = build_cover_sync(g, d, trace=False)
        if args.verify:
            bad = check_cover(g, cover, d, *promised_bounds(g.n))
            if bad:
                verify_fail = f"cover violations: {bad[:2]}"
        dist_text = json.dumps({
            "scale": d,
            "clusters": [
                {"id": cl.id, "members": sorted(cl.members)}
                for cl in cover.clusters
            ],
        }, sort_keys=True)

    name = "matrix.csv" if args.algo == "apsp" else "distances.json"
    _emit(args, name, dist_text)
    _emit(args, "report.json", report.to_json())
    if args.json and args.out:
        print(report.to_json())
    if report.status == "timeout":
        print("timeout: round limit exceeded", file=sys.stderr)
        return EXIT_TIMEOUT
    if verify_fail:
        print(f"verification failed: {verify_fail}", file=sys.stderr)
        return EXIT_VERIFY
    if args.verify:
        print("verification passed")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        points = [int(x) for x in args.values.split(",") if x.strip()]
    except ValueError:
        raise CliError(f"bad sweep values {args.values!r}")
    if not points:
        raise CliError("empty sweep axis")
    if not args.algo:
        raise CliError("need --algo")
    rows = ["point,rounds,max_energy,max_congestion,messages,lost"]
    for point in points:
        if args.axis == "n":
            spec = GraphSpec(args.family or "random-gnm", point, seed=args.seed,
                             m=(args.m or 3 * point), weight_mode=args.weights,
                             max_w=args.maxw)
        elif args.axis == "D":
            spec = GraphSpec("path", point + 1, seed=args.seed)
        else:  # density: m = point * n
            if not args.n:
                raise CliError("density sweep needs --n")
            spec = GraphSpec("random-gnm", args.n, seed=args.seed,
                             m=point * args.n, weight_mode=args.weights,
                             max_w=args.maxw)
        g = generate(spec)
        report = SWEEPS[args.algo](g, parse_sources(args.sources, g.n), args.seed)
        rows.append(f"{point},{report.rounds},{report.max_energy()},"
                    f"{report.max_congestion()},{report.total_sent()},"
                    f"{report.lost}")
        log("sweep point", point, "done")
    text = "\n".join(rows) + "\n"
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            f.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_verify(args) -> int:
    failures = 0
    if args.fixtures:
        gpath = os.path.join(args.fixtures, "graph.txt")
        cpath = os.path.join(args.fixtures, "cover.slpycov")
        if not (os.path.exists(gpath) and os.path.exists(cpath)):
            raise CliError(f"missing fixtures in {args.fixtures}")
        try:
            g = load_graph(open(gpath).read())
            layered = load_layered_cover(open(cpath).read())
        except (GraphError, ValueError) as e:
            print(f"fixture check [FAIL] cover cache: {e}")
            return EXIT_VERIFY
        bad = cover_faults(g, layered)
        status = "PASS" if not bad else "FAIL"
        print(f"fixture check [{status}] cover cache"
              + (f": {bad[0]}" if bad else ""))
        failures += bool(bad)
    results = run_acceptance(profile="quick" if args.quick else "full")
    failures += sum(not r.passed and not r.expected_failure for r in results)
    return EXIT_VERIFY if failures else EXIT_OK


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else 0
    try:
        if args.command == "gen":
            g = resolve_graph(args)
            text = save_graph(g)
            if args.out == "-":
                print(text, end="")
            else:
                with open(args.out, "w") as f:
                    f.write(text)
            return EXIT_OK
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_verify(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except SimError as e:
        print(f"simulation error: {e}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
