"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/reference.py --seeds 1-10 --seconds 25

Runs perfbench/run.py once per workload and seed with --trace 0, then once
per workload with --trace 1, one process at a time. Prints, per workload,
the median and quartiles of every end-to-end metric, the spread (distance
between the quartiles as a share of the median), failed/attempted, and each
module's share of the traced operation time, and the unscaled operation
time and probe slowdown of the untraced runs. Raw results go to
perfbench/out/reference-seeds<seeds>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2])["run_info"], json.loads(lines[-1])


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return f"{med:.6g} | {q1:.6g} | {q3:.6g} | {(q3 - q1) / med:.3f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {}
    for wl in WORKLOADS:
        runs = []
        for seed in seed_list(args.seeds):
            info, result = run_once(wl, seed, args.seconds, 0)
            runs.append({"seed": seed, "info": info, "result": result})
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"load={info['loadavg_1m_start']:.2f} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
        doc[wl] = {"runs": runs}
        print(f"\n{wl}: failed {sum(r['result']['failed'] for r in runs)} of "
              f"{sum(r['result']['attempted'] for r in runs)} operations")
        print("| metric | unit | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for name in runs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            print(f"| {name} | {unit} | {quartiles(vals)} | {bounds[name]} |")
        for key in ("op_raw_s", "probe_slowdown"):
            print(f"{key} (run_info): median | Q1 | Q3 | spread = "
                  + quartiles([r["info"][key] for r in runs]))
        seed = seed_list(args.seeds)[0]
        info, result = run_once(wl, seed, args.seconds, 1)
        trace = json.loads((HERE / "out" / f"trace-{wl}-seed{seed}.json").read_text())
        doc[wl]["traced"] = {"info": info, "result": result,
                             "shares": trace["layer_share_of_op_time"]}
        print(f"traced: op {info['op_raw_s']:.3f} s untraced, "
              f"{info['traced_op_raw_s']:.3f} s traced; module shares of traced op time: "
              + ", ".join(f"{m} {s:.1%}" for m, s in trace["layer_share_of_op_time"].items()))
        sys.stdout.flush()
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"reference-seeds{args.seeds}.json").write_text(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
