"""Post-run analysis of execution traces.

Traces are harness-side observations (never charged to the simulation); the
checks here validate per-invocation approximation contracts and recursion
accounting against the sequential oracles.
"""

from __future__ import annotations

from collections import Counter
from math import inf

from .energy_bfs import EB_REACH, _phase_stack
from .oracle import dijkstra, hop_distances

INF = inf


def check_cutter_contract(graph, trace):
    """Every finite approximation satisfies dist <= tick*tau < dist + W/2 and
    every non-answer implies dist > 2W, against an oracle on the frame's
    induced subgraph. All comparisons are exact integer arithmetic with
    tau = W / (2N). Frames are grouped by (path, N, D): components of
    different sizes, or whose root frames set different thresholds, may share
    a recursion path with a different tick granularity, so they are audited
    separately."""
    checked = 0
    for (path, N, W), (rows, cuts) in sorted(_cutter_groups(trace).items()):
        dist = _frame_distances(graph, rows)
        for v in sorted(cuts):
            d, t = dist[v], cuts[v]["tick"]
            checked += 1
            if t is not None:
                if d is INF:
                    return False, f"path {path}: node {v} got tick {t} but is unreachable"
                # dist <= t*W/(2N) < dist + W/2
                if not (2 * N * d <= t * W):
                    return False, f"path {path}: node {v} tick {t} below dist {d}"
                if not (t * W < 2 * N * d + N * W):
                    return False, f"path {path}: node {v} tick {t} exceeds dist {d} + W/2"
            else:
                if d is not INF and not (d > 2 * W):
                    return False, f"path {path}: node {v} unanswered but dist {d} <= {2 * W}"
    return True, f"{checked} cutter outputs verified"


def check_component_sizes(graph, trace):
    """Every `cutter` event's component size equals the node's component in
    the subgraph induced by its (path, N, D) group, grouped as in
    `check_cutter_contract`: a group's components share no edge."""
    for (path, _, _), (_, cuts) in sorted(_cutter_groups(trace).items()):
        sub, size = graph.induced(cuts), {}
        for v in sorted(cuts):
            if v not in size:
                hops = hop_distances(sub, [v])
                part = [u for u in cuts if hops[u] is not INF]
                size.update(dict.fromkeys(part, len(part)))
            if cuts[v]["size"] != size[v]:
                return False, (f"path {path}: node {v} has size "
                               f"{cuts[v]['size']}, component {size[v]}")
    checked = sum(kind == "cutter" for kind, _ in trace)
    return True, f"{checked} component sizes verified"


def _cutter_groups(trace):
    """(path, N, D) -> (frame rows, node -> `cutter` event)."""
    frames = {}
    for kind, data in trace:
        if kind == "frame":
            frames[(data["node"], data["path"])] = data
    groups = {}
    for kind, data in trace:
        if kind == "cutter":
            fr = frames[(data["node"], data["path"])]
            rows, cuts = groups.setdefault((fr["path"], fr["N"], fr["D"]),
                                           ([], {}))
            rows.append(fr)
            cuts[fr["node"]] = data
    return groups


def _phase_tally(trace):
    """The decomposition's `phase_node` and `killed` events, each counted
    under its (color,), (color, phase) and (color, phase, label class) keys,
    the class being the label's low `phase` bits: (living, kills)."""
    tally = {"phase_node": Counter(), "killed": Counter()}
    for kind, data in trace:
        if kind in tally:
            color, phase = data["color"], data["phase"]
            label_class = data["label"] & ((1 << phase) - 1)
            tally[kind].update([(color,), (color, phase), (color, phase, label_class)])
    return tally["phase_node"], tally["killed"]


def check_halving(trace):
    """Each color must cluster at least half of the nodes living when it
    started: survivors = living at phase 0 minus all kills of the color."""
    living, kills = _phase_tally(trace)
    colors = sorted(key[0] for key in living if key[1:] == (0,))
    for color in colors:
        base = living[color, 0]
        clustered = base - kills[(color,)]
        if 2 * clustered < base:
            return False, f"color {color}: clustered {clustered} of {base}"
    return True, f"{len(colors)} colors satisfy the halving guarantee"


def check_kill_budget(trace, b):
    """Per phase, kills stay within living/(2b), both globally and within
    every label-suffix class."""
    if b == 0:
        return True, "no phases"
    living, kills = _phase_tally(trace)
    for what, parts in (("color/phase", 2), ("class", 3)):
        for key in sorted(k for k in kills if len(k) == parts):
            if kills[key] * 2 * b > living[key]:
                return False, (f"{what} {key}: {kills[key]} kills exceed "
                               f"{living[key]}/(2*{b})")
    return True, "kill budget respected in every phase and class"


def check_cut_composition(graph, trace):
    """For every far-side recursion frame, the distance its parent composes
    must equal half-threshold plus the oracle distance from the simulated cut
    sources inside the frame's own subgraph.

    Frames are grouped by (path, D), each under the parent group
    (path // 2, 2D): root frames of different components may set different
    thresholds, and the components that share a group are disconnected in
    the subgraph induced by their union, so one Dijkstra run keeps them
    apart."""
    frames = {}
    for kind, data in trace:
        if kind == "frame":
            frames.setdefault((data["path"], data["D"]), []).append(data)
    checked = 0
    for (path, half), rows in sorted(frames.items()):  # half the parent's D
        parent_rows = frames.get((path // 2, 2 * half))
        if path <= 1 or path % 2 == 0 or not parent_rows:
            continue  # only far-side (cut-source) frames under a traced parent
        dist_cut = _frame_distances(graph, rows)
        dist_parent = _frame_distances(graph, parent_rows)
        for v in sorted(dist_cut):
            dc = dist_cut[v]
            dp = dist_parent.get(v, INF)
            if dc is not INF and dc <= half:
                if dp != half + dc:
                    return False, (
                        f"frame {path}: node {v} composes {half}+{dc} "
                        f"but parent distance is {dp}"
                    )
                checked += 1
    return True, f"{checked} cut compositions verified"


def _frame_distances(graph, rows):
    """Oracle distances inside the frames' induced subgraph from their real
    sources (offset 0) and simulated cut sources (smallest offset)."""
    init = {}
    for d in rows:
        if d["src"]:
            init[d["node"]] = 0
        elif d["offsets"]:
            init[d["node"]] = min(d["offsets"])
    active = {d["node"] for d in rows}
    if not init:
        return {v: INF for v in active}
    return dijkstra(graph.induced(active), init)


def frontier_losses(report):
    """The lost BFS frontier messages among a report's losses."""
    return [loss for loss in report.losses if loss[3] == EB_REACH]


def check_sleep_safety(outputs, report):
    """A lost frontier message is benign only if its target had already been
    reached at a strictly smaller hop (duplicate announcements to sleeping,
    finished nodes). Anything else means the frontier hit a sleeping node."""
    losses = frontier_losses(report)
    for r, src, dst, tag, payload in losses:
        hop = payload[0]
        got = outputs.get(dst, INF)
        if got is INF or got >= hop:
            return False, (
                f"frontier hop {hop} from {src} lost at sleeping node {dst} "
                f"round {r} (node's own hop: {got})"
            )
    return True, f"{len(losses)} frontier losses, all duplicates"


def check_relevance(graph, layered, sources, outputs, threshold):
    """Every cluster the BFS phase runs on (`energy_bfs._phase_stack`) that
    contains a node within the threshold must be relevant: its chain of
    phase parents ends at a top cluster containing a source."""
    levels, parent_of = _phase_stack(graph, layered)
    top = len(levels) - 1
    relevant = {(top, cl.id) for cl in levels[top] if cl.members & sources}
    for lvl in range(top - 1, -1, -1):
        for cl in levels[lvl]:
            if (lvl + 1, parent_of.get((lvl, cl.id))) in relevant:
                relevant.add((lvl, cl.id))
    reached = 0
    for lvl, clusters in enumerate(levels):
        for cl in clusters:
            hot = any(
                outputs.get(v, INF) is not INF and outputs[v] <= threshold
                for v in cl.members
            )
            if hot and (lvl, cl.id) not in relevant:
                return False, f"cluster {cl.id} level {lvl} reached but irrelevant"
            reached += hot
    return True, f"{reached} reached clusters relevant"


def check_recursion_accounting(trace, n):
    """Each node appears in at most 3 subproblems per threshold level and at
    most 3*(log2 D + 1) in total, where D is the threshold of the node's own
    root (path-1) frame: components start at their own threshold. Events
    are keyed by instance and node, so a merged all-pairs log is checked
    per instance."""
    by_level = {}
    top = {}
    for kind, data in trace:
        if kind != "frame":
            continue
        who = (data.get("inst"), data["node"])
        if data["path"] == 1:
            top[who] = data["D"]
        key = (*who, data["D"])
        by_level[key] = by_level.get(key, 0) + 1
    totals = {}
    for (inst, node, d), count in sorted(by_level.items()):
        if count > 3:
            return False, f"node {node} in {count} subproblems at level {d}"
        totals[inst, node] = totals.get((inst, node), 0) + count
    largest = 0
    for (inst, node), total in sorted(totals.items()):
        if (inst, node) not in top:
            return False, f"node {node} has no root frame"
        cap = 3 * top[inst, node].bit_length()
        if total > cap:
            return False, f"node {node} in {total} subproblems total (cap {cap})"
        largest = max(largest, cap)
    return True, (f"{len(totals)} nodes within 3/level and 3 per level of "
                  f"their own root threshold (largest cap {largest})")
