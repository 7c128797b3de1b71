"""State assignment of the memory-aware sampler (Shao et al., SIGMOD 2020).

The memory-aware framework runs second-order random walks within a fixed
memory budget by *assigning* a sampling method per state: the states
expected to be visited most get O(1) alias tables until the budget is
exhausted, and every remaining state falls back to a memory-free method.
Expected visits are proxied by the degree of the state's current node
(walks cross high-degree nodes more often), a simplification of the
original paper's cost model that preserves its behaviour: with a generous
budget it approaches the alias sampler, with a tight one it approaches
its fallback — the "handles Web-UK but slower" row of the paper's
Table VII and Fig. 6.

:func:`assign_states_greedily` is that assignment; the stepper that
walks on it, with rejection sampling over the static-weight proposal as
the fallback, is ``_MemoryAwareStepper`` in :mod:`repro.walks.vectorized`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplerError
from repro.sampling.memory_model import ALIAS_ENTRY_BYTES


def assign_states_greedily(graph, model, table_budget_bytes: int) -> np.ndarray:
    """Pick the states that receive alias tables under the byte budget.

    States are ranked by the degree of their current node (descending) and
    taken greedily while the cumulative table cost fits. Returns a boolean
    mask over the model's flat state space.
    """
    size = model.state_space_size(graph)
    table_degrees = model.state_table_degrees(graph)
    if table_degrees.size != size:
        raise SamplerError("model reported inconsistent state-space metadata")
    # descending degree, ties in ascending state order: a stable sort, so
    # the choice does not depend on which SIMD argsort NumPy dispatches to
    order = np.argsort(-table_degrees.astype(np.int64), kind="stable")
    costs = table_degrees[order].astype(np.int64) * ALIAS_ENTRY_BYTES
    cumulative = np.cumsum(costs)
    chosen = order[: int(np.searchsorted(cumulative, table_budget_bytes, side="right"))]
    mask = np.zeros(size, dtype=bool)
    mask[chosen] = True
    return mask
