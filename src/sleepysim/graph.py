"""Undirected weighted graph model, generators, validation, and edge-list I/O.

Node ids are dense integers 0..n-1 and double as the unique identifiers the
distributed algorithms put on the wire. Edges are canonicalized (u < v,
sorted lexicographically) so that generation and serialization are
byte-reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

MAXW_EXP = 3  # weights must stay within n**MAXW_EXP

FAMILIES = ("path", "cycle", "grid", "random-gnm", "random-tree", "barbell")


class GraphError(ValueError):
    """Raised for malformed graph specs or unparsable edge-list text."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected weighted graph with canonical edge order."""

    n: int
    edges: tuple[tuple[int, int, int], ...]
    _adj: dict[int, list[tuple[int, int]]] = field(
        default=None, repr=False, compare=False
    )

    @staticmethod
    def build(n: int, edges) -> "Graph":
        canon = sorted((min(u, v), max(u, v), w) for (u, v, w) in edges)
        return Graph(n, tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def max_weight(self) -> int:
        return max((w for (_, _, w) in self.edges), default=0)

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """node -> sorted list of (neighbor, weight)."""
        if self._adj is None:
            adj = {v: [] for v in range(self.n)}
            for u, v, w in self.edges:
                adj[u].append((v, w))
                adj[v].append((u, w))
            for v in adj:
                adj[v].sort()
            object.__setattr__(self, "_adj", adj)
        return self._adj

    def neighbors(self, v: int) -> list[tuple[int, int]]:
        return self.adjacency()[v]

    def reweighted(self, fn) -> "Graph":
        return Graph.build(self.n, [(u, v, fn(w)) for (u, v, w) in self.edges])

    def induced(self, nodes) -> "Graph":
        """Subgraph on `nodes`, keeping original ids (n unchanged)."""
        keep = set(nodes)
        return Graph.build(
            self.n, [(u, v, w) for (u, v, w) in self.edges if u in keep and v in keep]
        )


@dataclass(frozen=True)
class GraphSpec:
    """Deterministic generation recipe: same spec + seed -> identical graph."""

    family: str
    n: int
    seed: int = 0
    m: int | None = None  # random-gnm only
    weight_mode: str = "unit"  # unit | uniform | zero-heavy (a quarter 0)
    max_w: int = 1


def _weight_fn(spec: GraphSpec, rng: random.Random):
    mode = spec.weight_mode
    if mode == "unit":
        return lambda: 1
    if mode == "uniform":
        if spec.max_w < 1:
            raise GraphError("uniform weights need max_w >= 1")
        return lambda: rng.randint(1, spec.max_w)
    if mode == "zero-heavy":
        if spec.max_w < 1:
            raise GraphError("zero-heavy weights need max_w >= 1")
        return lambda: 0 if rng.random() < 0.25 else rng.randint(1, spec.max_w)
    raise GraphError(f"unknown weight mode {mode!r}")


def _family_edges(spec: GraphSpec, rng: random.Random) -> list[tuple[int, int]]:
    n = spec.n
    fam = spec.family
    if fam == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if fam == "cycle":
        if n == 1:
            return []
        if n == 2:
            return [(0, 1)]
        return [(i, (i + 1) % n) for i in range(n)]
    if fam == "grid":
        cols = max(1, int(n**0.5))
        edges = []
        for v in range(n):
            r, c = divmod(v, cols)
            if c + 1 < cols and v + 1 < n:
                edges.append((v, v + 1))
            if v + cols < n:
                edges.append((v, v + cols))
        # a ragged last row can leave its first cell attached only vertically;
        # that is still connected because v-cols always exists for v >= cols
        return edges
    if fam == "random-tree":
        return [(rng.randint(0, i - 1), i) for i in range(1, n)]
    if fam == "random-gnm":
        m = spec.m if spec.m is not None else 3 * n
        max_m = n * (n - 1) // 2
        if m < 0:
            raise GraphError(f"random-gnm: m={m} is negative")
        if m > max_m:
            raise GraphError(f"random-gnm: m={m} exceeds {max_m}")
        chosen = set()
        while len(chosen) < m:
            u = rng.randint(0, n - 1)
            v = rng.randint(0, n - 1)
            if u != v:
                chosen.add((min(u, v), max(u, v)))
        return sorted(chosen)
    if fam == "barbell":
        if n < 3:
            return [(i, i + 1) for i in range(n - 1)]
        a = max(2, n // 3)
        edges = []
        left = list(range(a))
        right = list(range(n - a, n))
        for i in left:
            for j in left:
                if i < j:
                    edges.append((i, j))
        for i in right:
            for j in right:
                if i < j:
                    edges.append((i, j))
        for v in range(a - 1, n - a):
            edges.append((v, v + 1))
        return sorted(set(edges))
    raise GraphError(f"unknown family {fam!r}")


def gen_graph(spec: GraphSpec) -> Graph:
    """Generate a graph; pure function of (spec, seed)."""
    if spec.n < 1:
        raise GraphError("n must be >= 1")
    if spec.family not in FAMILIES:
        raise GraphError(f"unknown family {spec.family!r}")
    rng = random.Random(spec.seed)
    pairs = _family_edges(spec, rng)
    wf = _weight_fn(spec, rng)
    # weights drawn in canonical edge order so they are order-independent
    edges = [(min(u, v), max(u, v)) for (u, v) in pairs]
    edges.sort()
    g = Graph.build(spec.n, [(u, v, wf()) for (u, v) in edges])
    bad = validate(g)
    if bad:
        raise GraphError(f"generated graph invalid: {bad}")
    return g


def validate(g: Graph) -> list[str]:
    """Return a list of invariant violations (empty iff the graph is valid)."""
    out = []
    bound = g.n**MAXW_EXP
    seen = set()
    for u, v, w in g.edges:
        if u == v:
            out.append(f"self-loop at {u}")
        if not (0 <= u < g.n and 0 <= v < g.n):
            out.append(f"node id out of range on edge ({u},{v})")
        if (min(u, v), max(u, v)) in seen:
            out.append(f"duplicate edge ({min(u, v)},{max(u, v)})")
        seen.add((min(u, v), max(u, v)))
        if w < 0 or w > bound:
            out.append(f"weight {w} out of [0,{bound}] on edge ({u},{v})")
    return out


def save_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v} {w}" for (u, v, w) in g.edges)
    return "\n".join(lines) + "\n"


def load_graph(text: str) -> Graph:
    """Parse edge-list text ("n m" header, then "u v w" lines, '#' comments)."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise GraphError("empty graph text")
    lineno, header = rows[0]
    try:
        n, m = (int(x) for x in header.split())
    except ValueError:
        raise GraphError(f"line {lineno}: bad header {header!r}") from None
    if n < 1:
        raise GraphError(f"line {lineno}: n must be >= 1")
    if len(rows) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    seen = set()
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise GraphError(f"line {lineno}: expected 'u v w', got {line!r}")
        try:
            u, v, w = (int(x) for x in parts)
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer field in {line!r}") from None
        if u == v:
            raise GraphError(f"line {lineno}: self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"line {lineno}: node id out of range")
        if w < 0 or w > n**MAXW_EXP:
            raise GraphError(f"line {lineno}: weight {w} out of range")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"line {lineno}: duplicate edge ({u},{v})")
        seen.add(key)
        edges.append((u, v, w))
    return Graph.build(n, edges)
