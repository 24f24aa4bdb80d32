"""Shared cluster / cover / decomposition / forest data structures.

These are the artifacts the distributed constructions emit and the oracle
checkers consume. Serialization uses a versioned "SLPYCOV1" header so cover
stacks can be cached between runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class ClusterData:
    """One cluster: terminal member set plus a rooted Steiner tree.

    tree maps node -> (parent or None, depth, is_terminal); it may contain
    nonterminal relay nodes that are not members.
    """

    id: int
    members: set
    tree: dict

    @property
    def root(self) -> int:
        for v, (p, _, _) in self.tree.items():
            if p is None:
                return v
        raise ValueError(f"cluster {self.id} has no root")

    def depth(self) -> int:
        return max((d for (_, d, _) in self.tree.values()), default=0)

    def tree_edges(self):
        return [
            (min(v, p), max(v, p)) for v, (p, _, _) in self.tree.items() if p is not None
        ]


@dataclass
class Cover:
    """A sparse d-cover: clusters whose trees jointly cover every d-ball.
    `spanning` holds the ids of the clusters that span their component, as
    the build counted them (None for a cover not built here, such as a
    loaded one); it is not saved and not compared."""

    scale: int
    clusters: list
    spanning: frozenset | None = field(default=None, compare=False)

    def measured_stretch(self) -> int:
        if not self.clusters:
            return 1
        worst = max(cl.depth() for cl in self.clusters)
        return max(1, -(-worst // max(1, self.scale)))  # ceil


@dataclass
class Decomposition:
    """Vertex partition into colors of pairwise-separated clusters."""

    separation: int
    colors: list  # list of list[ClusterData]
    node_color: dict = field(default_factory=dict)


@dataclass
class LayeredCover:
    """Covers at scales base**0 .. base**L with parent-containment links."""

    base: int
    levels: list  # list[Cover], index = level
    parent_of: dict = field(default_factory=dict)  # (level, cluster_id) -> parent id

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def max_edge_multiplicity(self) -> int:
        use = {}
        for cover in self.levels:
            for cl in cover.clusters:
                for e in cl.tree_edges():
                    use[e] = use.get(e, 0) + 1
        return max(use.values(), default=1)

    def max_tree_depth(self, level: int) -> int:
        return max((cl.depth() for cl in self.levels[level].clusters), default=0)


@dataclass
class ForestInfo:
    """Maximal spanning forest annotations from the component computation."""

    component: dict  # node -> component id (root id)
    parent: dict  # node -> parent or None
    depth: dict  # node -> depth
    size: dict  # node -> |C| of its component
    height: dict  # node -> hop height of its component's tree

    def children(self) -> dict:
        out = {v: [] for v in self.component}
        for v, p in self.parent.items():
            if p is not None:
                out[p].append(v)
        for v in out:
            out[v].sort()
        return out


COVER_MAGIC = "SLPYCOV1"


def _cluster_doc(cl: ClusterData) -> dict:
    return {
        "id": cl.id,
        "members": sorted(cl.members),
        "tree": {
            str(v): [p, d, 1 if t else 0] for v, (p, d, t) in sorted(cl.tree.items())
        },
    }


def _int(x, what):
    if type(x) is not int:
        raise ValueError(f"{what} is not an integer: {x!r}")
    return x


def _cluster_from(doc: dict) -> ClusterData:
    cid = _int(doc["id"], "cluster id")
    tree = {}
    for v, (p, d, t) in doc["tree"].items():
        if p is not None:
            _int(p, f"cluster {cid}: parent of {v}")
        tree[int(v)] = (p, _int(d, f"cluster {cid}: depth of {v}"), bool(t))
    members = {_int(v, f"cluster {cid}: member") for v in doc["members"]}
    return ClusterData(id=cid, members=members, tree=tree)


def save_layered_cover(lc: LayeredCover) -> str:
    doc = {
        "base": lc.base,
        "levels": [
            {"scale": cov.scale, "clusters": [_cluster_doc(cl) for cl in cov.clusters]}
            for cov in lc.levels
        ],
        "parents": [[lvl, cid, pid] for (lvl, cid), pid in sorted(lc.parent_of.items())],
    }
    return COVER_MAGIC + "\n" + json.dumps(doc, sort_keys=True) + "\n"


def load_layered_cover(text: str) -> LayeredCover:
    """Parse a cover cache. A bad header or a malformed document raises
    ValueError; whether the stack fits a graph is the caller's check."""
    header, _, body = text.partition("\n")
    if header.strip() != COVER_MAGIC:
        raise ValueError(f"bad cover cache header {header!r}")
    try:
        doc = json.loads(body)
        levels = [
            Cover(scale=_int(lv["scale"], "scale"),
                  clusters=[_cluster_from(c) for c in lv["clusters"]])
            for lv in doc["levels"]
        ]
        parent_of = {(_int(lvl, "level"), _int(cid, "cluster id")):
                     _int(pid, "parent id") for lvl, cid, pid in doc["parents"]}
        base = _int(doc["base"], "base")
    except KeyError as e:
        raise ValueError(f"missing key {e}") from None
    except (TypeError, AttributeError) as e:
        raise ValueError(f"malformed cover document: {e}") from None
    if not levels:
        raise ValueError("no cover levels")
    if base < 1:
        raise ValueError(f"base {base} < 1")
    for lvl, cov in enumerate(levels):
        ids = [cl.id for cl in cov.clusters]
        if len(set(ids)) < len(ids):
            raise ValueError(f"level {lvl}: repeated cluster id")
    return LayeredCover(base=base, levels=levels, parent_of=parent_of)
