"""metapath2vec (Dong et al., KDD 2017) — metapath-guided heterogeneous walk.

A metapath like "A-P-V-P-A" prescribes the node type of every walk
position; the walker may only traverse edges whose target matches the next
type in the (cyclically repeated) path, with probability proportional to
static weight among the matches (paper Eq. 4). The dynamic weight is
therefore w_vu when Φ(u) = T and 0 otherwise, and the state is (T, v):
#state = |V|·|Φ| (Table I).

Metapaths must be cyclic (first type == last type) to guide walks longer
than the path itself, and walks start only at nodes of the path's first
type — both conventions of the reference implementation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.graph.hetero import parse_metapath
from repro.walks.models.base import RandomWalkModel


class MetaPath2Vec(RandomWalkModel):
    """Metapath-constrained first-order walk on a typed graph."""

    name = "metapath2vec"
    order = 1
    requires_node_types = True

    def __init__(self, graph, metapath="APA", type_names=None):
        super().__init__(graph)
        self.metapath = parse_metapath(metapath, type_names)
        if self.metapath[0] != self.metapath[-1]:
            raise ModelError(
                f"metapath must be cyclic (first type == last type), got {self.metapath}"
            )
        if max(self.metapath) >= graph.num_node_types:
            raise ModelError(
                f"metapath uses type {max(self.metapath)} but the graph has "
                f"{graph.num_node_types} node types"
            )
        # target type by step: step s samples a node of type _targets[s % k]
        k = len(self.metapath) - 1
        self._targets = np.array([self.metapath[(s % k) + 1] for s in range(k)], dtype=np.int64)

    # ------------------------------------------------------------------
    def target_type(self, step: int) -> int:
        """Node type the walker must move to at walk step ``step``."""
        return int(self._targets[step % self._targets.size])

    def valid_start_nodes(self) -> np.ndarray:
        """Only nodes of the metapath's first type may start a walk."""
        return np.flatnonzero(self.graph.node_types == self.metapath[0]).astype(np.int64)

    # ------------------------------------------------------------------
    def batch_dynamic_weight(self, prev, prev_off, cur, step, edge_offsets) -> np.ndarray:
        w = np.asarray(self.graph.edge_weight_at(edge_offsets), dtype=np.float64)
        u_types = self.graph.node_types[self.graph.targets[edge_offsets]].astype(np.int64)
        wanted = self._targets[step % self._targets.size]
        return np.where(u_types == wanted, w, 0.0)

    # ------------------------------------------------------------------
    # state layout: idx = current * |Φ| + target_type  (paper Fig. 4:
    # position = current node, affixture = metapath type)
    # ------------------------------------------------------------------
    def batch_state_index(self, prev_off, cur, step) -> np.ndarray:
        wanted = self._targets[step % self._targets.size]
        return cur * self.graph.num_node_types + wanted

    def state_space_size(self, graph) -> int:
        return graph.num_nodes * graph.num_node_types

    def state_table_degrees(self, graph) -> np.ndarray:
        # v-major layout: states (v, 0..|Φ|-1) share v's degree
        return np.repeat(self.graph.degrees(), self.graph.num_node_types)

    def alpha_bound(self, graph) -> float:
        return 1.0

    def enumerate_state_contexts(self, graph) -> dict:
        """Contexts for states (v, T); types outside the path are invalid.

        The batch weight kernel derives the wanted type from the step
        counter, so each type T present in the path is mapped back to the
        first step index that targets it.
        """
        n = self.graph.num_nodes
        num_types = self.graph.num_node_types
        pseudo_step = np.full(num_types, -1, dtype=np.int64)
        for s in range(self._targets.size - 1, -1, -1):
            pseudo_step[self._targets[s]] = s
        cur = np.repeat(np.arange(n, dtype=np.int64), num_types)
        t = np.tile(np.arange(num_types, dtype=np.int64), n)
        step = pseudo_step[t]
        size = n * num_types
        return {
            "prev": np.full(size, -1, dtype=np.int64),
            "prev_off": np.full(size, -1, dtype=np.int64),
            "cur": cur,
            "step": np.maximum(step, 0),
            "valid": (step >= 0) & (self.graph.degrees()[cur] > 0),
        }
