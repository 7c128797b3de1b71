"""edge2vec (Gao et al., BMC Bioinformatics 2019) — edge-semantics walk.

edge2vec extends node2vec to heterogeneous networks through an edge-type
transition matrix M: the dynamic weight of edge (v, u) given previous edge
(s, v) is α_u · M[Φ(s,v), Φ(v,u)] · w_vu (paper Eq. 3), where α follows
node2vec's p/q scheme. M_ij is the propensity of moving from an edge of
type i to one of type j; the original trains M with an EM loop, which
:func:`fit_transition_matrix` reproduces (walk, count type transitions,
renormalise, repeat).

Because both the hyper-parameters *and* the type pattern shape the
distribution, its outliers are non-deterministic — the reason KnightKing's
folding cannot help here (paper Section V-D) — so this model declares no
foldable outliers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.walks.models.base import BiasedWalkModel
from repro.walks.state import NO_PREVIOUS


class Edge2Vec(BiasedWalkModel):
    """Second-order heterogeneous walk with an edge-type transition matrix."""

    name = "edge2vec"

    def __init__(self, graph, p: float = 1.0, q: float = 1.0, transition_matrix=None):
        if graph.edge_types is None:
            raise ModelError("edge2vec requires a graph with edge types")
        super().__init__(graph, p, q)
        t = graph.num_edge_types
        if transition_matrix is None:
            matrix = np.ones((t, t), dtype=np.float64)
        else:
            matrix = np.asarray(transition_matrix, dtype=np.float64)
            if matrix.shape != (t, t):
                raise ModelError(
                    f"transition_matrix must be ({t}, {t}) for this graph, got {matrix.shape}"
                )
            if np.any(matrix < 0) or np.any(~np.isfinite(matrix)):
                raise ModelError("transition_matrix entries must be finite and >= 0")
        self.transition_matrix = matrix

    def rebind(self, graph) -> "Edge2Vec":
        super().rebind(graph)
        if graph.edge_types is None:
            raise ModelError("edge2vec requires a graph with edge types")
        if graph.num_edge_types > self.transition_matrix.shape[0]:
            raise ModelError(
                f"graph now has {graph.num_edge_types} edge types but the "
                f"transition matrix covers {self.transition_matrix.shape[0]}"
            )
        return self

    def batch_dynamic_weight(self, prev, prev_off, cur, step, edge_offsets) -> np.ndarray:
        w = np.asarray(self.graph.edge_weight_at(edge_offsets), dtype=np.float64)
        u = self.graph.targets[edge_offsets]
        alpha = np.full(u.size, 1.0 / self.q)
        safe_prev = np.maximum(prev, 0)
        near = self.graph.has_edge_batch(safe_prev, u)
        alpha[near] = 1.0
        alpha[u == prev] = 1.0 / self.p
        at_start = prev == NO_PREVIOUS
        alpha[at_start] = 1.0
        prev_types = self.graph.edge_types[np.maximum(prev_off, 0)].astype(np.int64)
        cand_types = self.graph.edge_types[edge_offsets].astype(np.int64)
        m = self.transition_matrix[prev_types, cand_types]
        m[at_start] = 1.0
        return alpha * m * w

    def alpha_bound(self, graph) -> float:
        alpha_max = max(1.0 / self.p, 1.0, 1.0 / self.q)
        return alpha_max * float(self.transition_matrix.max())


def fit_transition_matrix(
    graph,
    *,
    p: float = 1.0,
    q: float = 1.0,
    iterations: int = 3,
    num_walks: int = 2,
    walk_length: int = 20,
    seed=None,
):
    """EM-style estimation of edge2vec's type-transition matrix.

    Mirrors the original implementation's loop: walk under the current
    matrix, count observed consecutive edge-type pairs, renormalise rows
    into the next matrix. Returns the final (row-stochastic, scaled so the
    max entry is 1) matrix.
    """
    from repro.walks.vectorized import VectorizedWalkEngine

    t = graph.num_edge_types
    matrix = np.ones((t, t), dtype=np.float64)
    for iteration in range(iterations):
        model = Edge2Vec(graph, p=p, q=q, transition_matrix=matrix)
        engine = VectorizedWalkEngine(graph, model, seed=None if seed is None else seed + iteration)
        corpus = engine.generate(num_walks=num_walks, walk_length=walk_length)
        counts = np.ones((t, t), dtype=np.float64)  # add-one smoothing
        for walk in corpus.iter_walks():
            if walk.size < 3:
                continue
            src, dst = walk[:-1], walk[1:]
            offs = graph.edge_index_batch(src, dst)
            etypes = graph.edge_types[np.maximum(offs, 0)].astype(np.int64)
            etypes = etypes[offs >= 0]
            if etypes.size >= 2:
                np.add.at(counts, (etypes[:-1], etypes[1:]), 1.0)
        row_sums = counts.sum(axis=1, keepdims=True)
        matrix = counts / row_sums
        matrix = matrix / matrix.max()
    return matrix
