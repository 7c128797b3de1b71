"""fairwalk (Rahman et al., IJCAI 2019) — group-fair biased walk.

fairwalk removes the representation bias caused by unbalanced neighbour
groups: conceptually the walker first picks a neighbour *type* uniformly,
then a node within that type by node2vec rules. In the paper's unified
abstraction (Table IV) that two-stage draw becomes the dynamic weight

    w'(v, u) = α_u · w_vu / |K_{Φ(u)}|,
    K_t = {k ∈ N(v) : Φ(k) = t},

i.e. each neighbour's weight is discounted by the *count* of same-type
neighbours, equalising the total mass per group. Per-node type counts are
precomputed at model construction (O(|E|) once), keeping each weight
evaluation O(log deg) like node2vec's.
"""

from __future__ import annotations

import numpy as np

from repro.walks.models.base import BiasedWalkModel
from repro.walks.state import NO_PREVIOUS


class FairWalk(BiasedWalkModel):
    """Second-order walk with per-group neighbour-count discounting."""

    name = "fairwalk"
    requires_node_types = True

    def __init__(self, graph, p: float = 1.0, q: float = 1.0):
        super().__init__(graph, p, q)
        self._recount(graph)

    def _recount(self, graph) -> None:
        # type_counts[v, t] = |{u in N(v) : Φ(u) = t}|
        num_types = graph.num_node_types
        src = graph.edge_sources()
        dst_types = graph.node_types[graph.targets].astype(np.int64)
        flat = src * num_types + dst_types
        counts = np.bincount(flat, minlength=graph.num_nodes * num_types)
        self.type_counts = counts.reshape(graph.num_nodes, num_types).astype(np.float64)

    def rebind(self, graph) -> "FairWalk":
        # the per-(node, type) neighbour counts are a function of the
        # adjacency; refresh them for the mutated graph
        super().rebind(graph)
        self._recount(graph)
        return self

    def batch_dynamic_weight(self, prev, prev_off, cur, step, edge_offsets) -> np.ndarray:
        w = np.asarray(self.graph.edge_weight_at(edge_offsets), dtype=np.float64)
        u = self.graph.targets[edge_offsets]
        alpha = np.full(u.size, 1.0 / self.q)
        safe_prev = np.maximum(prev, 0)
        near = self.graph.has_edge_batch(safe_prev, u)
        alpha[near] = 1.0
        alpha[u == prev] = 1.0 / self.p
        alpha[prev == NO_PREVIOUS] = 1.0
        groups = self.type_counts[cur, self.graph.node_types[u].astype(np.int64)]
        return alpha * w / groups

    def alpha_bound(self, graph) -> float:
        # |K| >= 1 for every existing neighbour, so w'/w <= α_max
        return max(1.0 / self.p, 1.0, 1.0 / self.q)
