"""Sequential reference computations and structure checkers.

Everything here is allowed to be slow; it exists to validate the distributed
algorithms. Distances use exact integer arithmetic with math.inf as the
unreachable marker.
"""

from __future__ import annotations

import heapq
from collections import deque
from math import inf

INF = inf


def dijkstra(graph, sources) -> dict:
    """Closest-source distances. `sources` is an iterable of node ids or a
    mapping node -> starting offset (used for imaginary cut sources)."""
    if isinstance(sources, dict):
        init = dict(sources)
    else:
        init = {s: 0 for s in sources}
    dist = {v: INF for v in range(graph.n)}
    heap = []
    for s, d0 in sorted(init.items()):
        if d0 < dist[s]:
            dist[s] = d0
            heapq.heappush(heap, (d0, s))
    adj = graph.adjacency()
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def bellman_ford(graph, sources) -> dict:
    """Independent cross-check for dijkstra: n-1 relaxation sweeps."""
    if isinstance(sources, dict):
        dist = {v: INF for v in range(graph.n)}
        dist.update(sources)
    else:
        dist = {v: (0 if v in set(sources) else INF) for v in range(graph.n)}
    for _ in range(max(1, graph.n - 1)):
        changed = False
        for u, v, w in graph.edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


def hop_distances(graph, sources) -> dict:
    """BFS hop distances from the source set."""
    dist = {v: INF for v in range(graph.n)}
    q = deque()
    for s in sorted(set(sources)):
        dist[s] = 0
        q.append(s)
    adj = graph.adjacency()
    while q:
        u = q.popleft()
        for v, _ in adj[u]:
            if dist[v] is INF:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def _ball(adj, v, d) -> set:
    """The nodes within d hops of v: a BFS that stops at depth d."""
    ball, frontier = {v}, [v]
    for _ in range(d):
        nxt = []
        for u in frontier:
            for x, _ in adj[u]:
                if x not in ball:
                    ball.add(x)
                    nxt.append(x)
        if not nxt:
            break
        frontier = nxt
    return ball


# -- structure checkers ----------------------------------------------------
#
# Clusters, covers and decompositions are exchanged as plain data:
#   ClusterData: id, members (terminals), tree: {node: (parent, depth, terminal)}
#   Cover: scale d, clusters
#   Decomposition: colors -> list of clusters, node_color mapping
# Violations are returned as dicts {kind, subjects, detail}, never raised.


def _violation(kind, subjects, detail):
    return {"kind": kind, "subjects": list(subjects), "detail": detail}


def check_tree(cluster) -> list:
    """Structural sanity: one root, parent/depth consistent, terminals == members."""
    out = []
    tree = cluster.tree
    roots = [v for v, (p, _, _) in tree.items() if p is None]
    if len(roots) != 1:
        out.append(_violation("tree-root", roots, f"cluster {cluster.id}: {len(roots)} roots"))
        return out
    root = roots[0]
    if tree[root][1] != 0:
        out.append(_violation("tree-depth", [root], "root depth != 0"))
    for v, (p, d, _) in tree.items():
        if p is None:
            continue
        if p not in tree:
            out.append(_violation("tree-ref", [v, p], f"cluster {cluster.id}: dangling parent"))
        elif tree[p][1] != d - 1:
            out.append(
                _violation("tree-depth", [v, p], f"depth({v})={d} but depth({p})={tree[p][1]}")
            )
    terminals = {v for v, (_, _, t) in tree.items() if t}
    members = set(cluster.members)
    if terminals != members:
        out.append(
            _violation(
                "tree-terminals",
                sorted(terminals ^ members),
                f"cluster {cluster.id}: terminal set != member set",
            )
        )
    return out


def check_on_graph(graph, cover) -> list:
    """Every member and tree node is a node id of the graph, and every tree
    edge is a graph edge. The other cover checks index by node, so they run
    only on a cover that passes this one."""
    out = []
    adj = graph.adjacency()
    for cl in cover.clusters:
        edges = cl.tree_edges()
        nodes = set(cl.members) | set(cl.tree) | {v for e in edges for v in e}
        foreign = sorted(nodes - adj.keys())
        if foreign:
            out.append(_violation("cover-node", foreign[:5],
                                  f"cluster {cl.id}: nodes {foreign[:5]} not in the graph"))
            continue
        for u, v in edges:
            if all(x != v for x, _ in adj[u]):
                out.append(_violation("cover-edge", [u, v],
                                      f"cluster {cl.id}: tree edge {u}-{v} not in the graph"))
    return out


def check_cover(graph, cover, d, stretch_bound, node_mult_bound, edge_mult_bound) -> list:
    """Sparse d-cover conditions: (a) tree depth <= d*stretch, (b) node
    membership count bound, (c) every d-ball inside some cluster, (d) per-edge
    tree multiplicity bound, (e) tree structural sanity."""
    out = []
    for cl in cover.clusters:
        out.extend(check_tree(cl))
        depth = cl.depth()
        if depth > d * stretch_bound:
            out.append(
                _violation("cover-depth", [cl.id], f"tree depth {depth} > {d}*{stretch_bound}")
            )
    counts = {v: 0 for v in range(graph.n)}
    for cl in cover.clusters:
        for v in cl.members:
            counts[v] += 1
    for v, c in counts.items():
        if c > node_mult_bound:
            out.append(_violation("cover-mult", [v], f"node in {c} clusters > {node_mult_bound}"))
    member_sets = [set(cl.members) for cl in cover.clusters]
    adj = graph.adjacency()
    for v in range(graph.n):
        ball = _ball(adj, v, d)
        if not any(ball <= ms for ms in member_sets):
            out.append(_violation("cover-ball", [v], f"{d}-ball of {v} not inside any cluster"))
    edge_use = {}
    for cl in cover.clusters:
        for v, (p, _, _) in cl.tree.items():
            if p is None:
                continue
            ek = (min(v, p), max(v, p))
            edge_use[ek] = edge_use.get(ek, 0) + 1
    for ek, c in edge_use.items():
        if c > edge_mult_bound:
            out.append(_violation("cover-edge-mult", list(ek), f"edge in {c} trees > {edge_mult_bound}"))
    return out


def check_decomposition(graph, decomp, k, diameter_bound, color_bound) -> list:
    """k-separation (within G), weak diameter (within G), color count, and
    exactly-once color assignment."""
    out = []
    if len(decomp.colors) > color_bound:
        out.append(
            _violation("decomp-colors", [], f"{len(decomp.colors)} colors > {color_bound}")
        )
    seen = {}
    for color, clusters in enumerate(decomp.colors):
        for cl in clusters:
            out.extend(check_tree(cl))
            for v in cl.members:
                if v in seen:
                    out.append(_violation("decomp-partition", [v], "node in two clusters"))
                seen[v] = (color, cl.id)
    for v in range(graph.n):
        if v not in seen:
            out.append(_violation("decomp-partition", [v], "node not colored"))
        elif decomp.node_color.get(v) != seen[v][0]:
            out.append(_violation("decomp-partition", [v], "color map inconsistent"))
    for color, clusters in enumerate(decomp.colors):
        for cl in clusters:
            members = sorted(cl.members)
            if not members:
                continue
            dmap = hop_distances(graph, members)
            for other in clusters:
                if other.id == cl.id or min(other.members) < min(members):
                    continue
                gap = min((dmap[u] for u in other.members), default=INF)
                if gap <= k:
                    out.append(
                        _violation(
                            "decomp-separation",
                            [cl.id, other.id],
                            f"color {color}: clusters at distance {gap} <= {k}",
                        )
                    )
            diam = 0
            for u in members:
                du = hop_distances(graph, [u])
                diam = max(diam, max(du[x] for x in members))
            if diam > diameter_bound:
                out.append(
                    _violation(
                        "decomp-diameter", [cl.id], f"weak diameter {diam} > {diameter_bound}"
                    )
                )
    return out


def check_layered(graph, layered, threshold, base) -> list:
    """Parent-cluster conditions of a layered cover: for every level j < top,
    parent(C) contains C plus its floor(B^(j+1)/2)-neighborhood, and every
    node of C agrees on the parent id."""
    out = []
    levels = layered.levels
    for j in range(len(levels) - 1):
        next_by_id = {cl.id: set(cl.members) for cl in levels[j + 1].clusters}
        radius = (base ** (j + 1)) // 2
        for cl in levels[j].clusters:
            pid = layered.parent_of.get((j, cl.id))
            if pid is None:
                out.append(_violation("layered-parent", [cl.id], f"level {j}: no parent id"))
                continue
            if pid not in next_by_id:
                out.append(
                    _violation("layered-ref", [cl.id], f"level {j}: dangling parent {pid}")
                )
                continue
            hood = {
                u
                for u, dd in hop_distances(graph, sorted(cl.members)).items()
                if dd <= radius
            }
            missing = hood - next_by_id[pid]
            if missing:
                out.append(
                    _violation(
                        "layered-contain",
                        sorted(missing)[:5],
                        f"level {j} cluster {cl.id}: parent misses "
                        f"{len(missing)} of its {radius}-neighborhood",
                    )
                )
    return out
