"""Pure-Python baselines mimicking the released model implementations.

Table VI's "Open-sourced Version" column benchmarks the authors' public
code (phanein/deepwalk, aditya-grover/node2vec, the metapath2vec /
edge2vec / fairwalk releases). Those repositories share two traits this
module reproduces faithfully:

* Python-object graph representations (dict/list adjacency) walked one
  step at a time in interpreted code;
* their original sampling strategies — per-step ``random.choices`` for
  deepwalk/metapath2vec/edge2vec/fairwalk (direct sampling), and
  node2vec's infamous *preprocess-alias-tables-for-every-edge* step,
  whose time and memory explosion motivates the paper's Challenge 1.

They are baselines, not library code: run them on small graphs. Each
walker exposes ``preprocess()`` and ``walk(start, length)``;
:func:`run_legacy_walks` drives them through the paper's workload and
reports the preprocess/walk timing split.
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro.errors import ModelError
from repro.graph.hetero import parse_metapath
from repro.walks.corpus import WalkCorpus


class AdjacencyGraph:
    """Dict-of-lists view of a CSR graph (the open-source repos' layout)."""

    def __init__(self, graph):
        self.num_nodes = graph.num_nodes
        self.is_weighted = graph.is_weighted
        self.neighbors = [graph.neighbors(v).tolist() for v in range(graph.num_nodes)]
        self.weights = [graph.neighbor_weights(v).tolist() for v in range(graph.num_nodes)]
        self.node_types = graph.node_types.tolist() if graph.node_types is not None else None
        # edge types per (src, position-in-row)
        self.edge_types = None
        if graph.edge_types is not None:
            self.edge_types = [
                graph.edge_types[graph.offsets[v] : graph.offsets[v + 1]].tolist()
                for v in range(graph.num_nodes)
            ]
        self._neighbor_sets = [set(ns) for ns in self.neighbors]

    def has_edge(self, u: int, v: int) -> bool:
        """Constant-time membership via per-node sets."""
        return v in self._neighbor_sets[u]


# the alias_setup / alias_draw pair of the original node2vec repository,
# kept close to the reference code (lists + stacks) because its per-edge
# invocation *is* the preprocessing cost the paper measures
def alias_setup(probs):
    """Build alias tables for a normalised probability list."""
    k = len(probs)
    q = [0.0] * k
    j = [0] * k
    smaller = []
    larger = []
    for i, prob in enumerate(probs):
        q[i] = k * prob
        if q[i] < 1.0:
            smaller.append(i)
        else:
            larger.append(i)
    while smaller and larger:
        small = smaller.pop()
        large = larger.pop()
        j[small] = large
        q[large] = q[large] + q[small] - 1.0
        if q[large] < 1.0:
            smaller.append(large)
        else:
            larger.append(large)
    return j, q


def alias_draw(j, q, rng: random.Random) -> int:
    """Draw one outcome from alias tables."""
    i = int(rng.random() * len(j))
    if rng.random() < q[i]:
        return i
    return j[i]


class _Walker:
    """What every released walker shares: the dict-of-lists graph, a
    ``random.Random`` stream, node2vec's return/in-out bias, and no
    preprocessing."""

    def __init__(self, graph, *, p: float = 1.0, q: float = 1.0, seed=None, **_params):
        self.adj = AdjacencyGraph(graph)
        self.p = p
        self.q = q
        self.rng = random.Random(seed)

    def preprocess(self) -> None:
        return None

    def _alpha(self, prev, u) -> float:
        """node2vec's search bias of stepping to ``u`` after ``prev``."""
        if prev is None:
            return 1.0
        if u == prev:
            return 1.0 / self.p
        return 1.0 if self.adj.has_edge(prev, u) else 1.0 / self.q


class LegacyDeepWalk(_Walker):
    """phanein/deepwalk: per-step uniform (or weighted) random choice."""

    def walk(self, start: int, length: int) -> list[int]:
        rng, adj = self.rng, self.adj
        path = [start]
        cur = start
        for __ in range(length - 1):
            nbrs = adj.neighbors[cur]
            if not nbrs:
                break
            if adj.is_weighted:
                cur = rng.choices(nbrs, weights=adj.weights[cur], k=1)[0]
            else:
                cur = nbrs[int(rng.random() * len(nbrs))]
            path.append(cur)
        return path


class LegacyNode2Vec(_Walker):
    """aditya-grover/node2vec: alias tables for every node *and* edge.

    ``preprocess`` builds ``alias_edges[(s, v)]`` for all directed edges
    — the O(|E|·d) time and memory cost that dominates the open-source
    column of Table VI and OOMs on large graphs.
    """

    def __init__(self, graph, **params):
        super().__init__(graph, **params)
        self.alias_nodes: dict = {}
        self.alias_edges: dict = {}

    def preprocess(self) -> None:
        adj = self.adj
        for v in range(adj.num_nodes):
            weights = adj.weights[v]
            total = sum(weights)
            if total <= 0:
                continue
            self.alias_nodes[v] = alias_setup([w / total for w in weights])
        for s in range(adj.num_nodes):
            for v in adj.neighbors[s]:
                self.alias_edges[(s, v)] = self._edge_alias(s, v)

    def _edge_alias(self, s: int, v: int):
        adj = self.adj
        probs = []
        for u, w in zip(adj.neighbors[v], adj.weights[v]):
            if u == s:
                probs.append(w / self.p)
            elif adj.has_edge(s, u):
                probs.append(w)
            else:
                probs.append(w / self.q)
        total = sum(probs)
        return alias_setup([x / total for x in probs])

    def walk(self, start: int, length: int) -> list[int]:
        adj, rng = self.adj, self.rng
        path = [start]
        while len(path) < length:
            cur = path[-1]
            nbrs = adj.neighbors[cur]
            if not nbrs:
                break
            if len(path) == 1:
                table = self.alias_nodes.get(cur)
                if table is None:
                    break
            else:
                table = self.alias_edges[(path[-2], cur)]
            path.append(nbrs[alias_draw(table[0], table[1], rng)])
        return path


class LegacyMetaPath2Vec(_Walker):
    """Original metapath2vec: per-step filtering of type-matching neighbours."""

    def __init__(self, graph, *, metapath="APA", **params):
        if graph.node_types is None:
            raise ModelError("legacy metapath2vec needs node types")
        super().__init__(graph, **params)
        self.path = parse_metapath(metapath)
        if self.path[0] != self.path[-1]:
            raise ModelError("metapath must be cyclic")

    def walk(self, start: int, length: int) -> list[int]:
        adj, rng = self.adj, self.rng
        k = len(self.path) - 1
        path = [start]
        cur = start
        for step in range(length - 1):
            wanted = self.path[(step % k) + 1]
            candidates = []
            cand_weights = []
            for u, w in zip(adj.neighbors[cur], adj.weights[cur]):
                if adj.node_types[u] == wanted:
                    candidates.append(u)
                    cand_weights.append(w)
            if not candidates:
                break
            if adj.is_weighted:
                cur = rng.choices(candidates, weights=cand_weights, k=1)[0]
            else:
                cur = candidates[int(rng.random() * len(candidates))]
            path.append(cur)
        return path


class LegacyEdge2Vec(_Walker):
    """Original edge2vec: per-step normalised direct sampling with the
    type-transition matrix."""

    def __init__(self, graph, *, transition_matrix=None, **params):
        if graph.edge_types is None:
            raise ModelError("legacy edge2vec needs edge types")
        super().__init__(graph, **params)
        t = graph.num_edge_types
        if transition_matrix is None:
            self.matrix = [[1.0] * t for __ in range(t)]
        else:
            self.matrix = [list(map(float, row)) for row in transition_matrix]

    def walk(self, start: int, length: int) -> list[int]:
        adj, rng = self.adj, self.rng
        path = [start]
        cur = start
        prev = None
        prev_etype = None
        for __ in range(length - 1):
            nbrs = adj.neighbors[cur]
            if not nbrs:
                break
            weights = []
            for pos, (u, w) in enumerate(zip(nbrs, adj.weights[cur])):
                if prev is None:
                    weights.append(w)
                else:
                    m = self.matrix[prev_etype][adj.edge_types[cur][pos]]
                    weights.append(self._alpha(prev, u) * m * w)
            if sum(weights) <= 0:
                break
            pick = rng.choices(range(len(nbrs)), weights=weights, k=1)[0]
            prev = cur
            prev_etype = adj.edge_types[cur][pick]
            cur = nbrs[pick]
            path.append(cur)
        return path


class LegacyFairWalk(_Walker):
    """Original fairwalk: choose a neighbour group uniformly, then a node
    within the group by node2vec rules."""

    def __init__(self, graph, **params):
        if graph.node_types is None:
            raise ModelError("legacy fairwalk needs node types")
        super().__init__(graph, **params)

    def walk(self, start: int, length: int) -> list[int]:
        adj, rng = self.adj, self.rng
        path = [start]
        cur = start
        prev = None
        for __ in range(length - 1):
            nbrs = adj.neighbors[cur]
            if not nbrs:
                break
            groups: dict[int, list[tuple[int, float]]] = {}
            for u, w in zip(nbrs, adj.weights[cur]):
                groups.setdefault(adj.node_types[u], []).append((u, w))
            group = groups[rng.choice(list(groups))]
            weights = [self._alpha(prev, u) * w for u, w in group]
            if sum(weights) <= 0:
                break
            pick = rng.choices(range(len(group)), weights=weights, k=1)[0]
            prev = cur
            cur = group[pick][0]
            path.append(cur)
        return path


LEGACY_MODELS = {
    "deepwalk": LegacyDeepWalk,
    "node2vec": LegacyNode2Vec,
    "metapath2vec": LegacyMetaPath2Vec,
    "edge2vec": LegacyEdge2Vec,
    "fairwalk": LegacyFairWalk,
}


def run_legacy_walks(
    graph, model: str, *, num_walks: int = 10, walk_length: int = 80, start_nodes=None, seed=None,
    **params,
) -> tuple[WalkCorpus, dict]:
    """Generate the paper's workload with an open-source-style walker.

    Returns ``(corpus, timings)`` with ``timings["init"]`` covering graph
    conversion + preprocessing (node2vec's per-edge alias build) and
    ``timings["walk"]`` the interpreted walking loop.
    """
    key = model.lower()
    if key not in LEGACY_MODELS:
        raise ModelError(f"no legacy baseline for {model!r}")

    t0 = time.perf_counter()
    walker = LEGACY_MODELS[key](graph, seed=seed, **params)
    walker.preprocess()
    init_seconds = time.perf_counter() - t0

    if start_nodes is not None:
        starts = np.asarray(start_nodes)
    elif key == "metapath2vec":
        starts = np.flatnonzero(graph.node_types == walker.path[0])
    else:
        starts = np.arange(graph.num_nodes)

    t1 = time.perf_counter()
    sequences = [walker.walk(int(v), walk_length) for __ in range(num_walks) for v in starts]
    walk_seconds = time.perf_counter() - t1
    return WalkCorpus.from_lists(sequences), {"init": init_seconds, "walk": walk_seconds}
