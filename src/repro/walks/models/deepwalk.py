"""DeepWalk (Perozzi et al., KDD 2014) — first-order random walk.

The transition distribution of a walker at node v is the static edge
weights of v's out-edges (paper Eq. 1): the dynamic weight *is* the static
weight, the state is just the current node, and #state = |V|. Because the
distribution is already proportional to the static weights, every sampler
is exact here and the random/high-weight initialization strategies of the
M-H sampler coincide with the target being reached immediately on
unweighted graphs.
"""

from __future__ import annotations

import numpy as np

from repro.walks.models.base import RandomWalkModel


class DeepWalk(RandomWalkModel):
    """First-order walk over static edge weights."""

    name = "deepwalk"
    order = 1
    is_static = True

    def batch_dynamic_weight(self, prev, prev_off, cur, step, edge_offsets) -> np.ndarray:
        return np.asarray(self.graph.edge_weight_at(edge_offsets), dtype=np.float64)

    def alpha_bound(self, graph) -> float:
        return 1.0
