"""Memory-aware edge sampler (Shao et al., SIGMOD 2020).

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

The fallback is rejection sampling over the static-weight proposal, not
direct O(d) computation: random walks spend most steps on high-degree
hubs (stationary mass ∝ degree), so a direct fallback would make the
per-step cost explode on skewed graphs while rejection stays O(1/θ).

Assignment is computed eagerly (it is the sampler's initialisation cost);
the alias tables themselves are built lazily at first visit so unvisited
states cost nothing.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplerError
from repro.sampling.alias import AliasTable, FirstOrderAliasStore
from repro.sampling.base import NO_EDGE, EdgeSampler
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
    order = np.argsort(table_degrees)[::-1]
    costs = table_degrees[order].astype(np.int64) * ALIAS_ENTRY_BYTES
    cumulative = np.cumsum(costs)
    chosen = order[: int(np.searchsorted(cumulative, table_budget_bytes, side="right"))]
    mask = np.zeros(size, dtype=bool)
    mask[chosen] = True
    return mask


class MemoryAwareSampler(EdgeSampler):
    """Alias-where-assigned, direct-otherwise sampling under a byte budget.

    Parameters
    ----------
    table_budget_bytes:
        Bytes available for alias tables. The paper sets this to UniNet's
        memory consumption for a fair comparison; the benchmarks do the
        same.
    """

    name = "memory-aware"

    def __init__(self, graph, model, *, table_budget_bytes: int, max_tries: int = 10_000, budget=None):
        super().__init__()
        if table_budget_bytes < 0:
            raise SamplerError("table_budget_bytes must be >= 0")
        if budget is not None:
            budget.charge(table_budget_bytes, self.name)
        self.table_budget_bytes = int(table_budget_bytes)
        self.assigned = assign_states_greedily(graph, model, table_budget_bytes)
        self._tables: dict[int, AliasTable | None] = {}
        self._proposal = FirstOrderAliasStore(graph)
        self.max_tries = max_tries

    def sample(self, graph, model, state, rng: np.random.Generator) -> int:
        idx = model.state_index(graph, state)
        self.stats.proposals += 1
        lo, _ = graph.edge_range(state.current)
        if self.assigned[idx]:
            table = self._tables.get(idx, _MISSING)
            if table is _MISSING:
                table = self._build(graph, model, state)
                self._tables[idx] = table
            if table is not None:
                self.stats.samples += 1
                return lo + table.draw(rng)
            return NO_EDGE
        # rejection fallback over the static proposal
        bound = model.alpha_bound(graph)
        if bound <= 0 or graph.degree(state.current) == 0:
            return NO_EDGE
        for __ in range(self.max_tries):
            off = self._proposal.draw(state.current, rng)
            w_static = graph.edge_weight_at(off)
            if w_static <= 0.0:
                continue
            w_dyn = model.dynamic_weight(graph, state, off)
            if rng.random() * bound * w_static < w_dyn:
                self.stats.samples += 1
                return off
        return NO_EDGE

    def _build(self, graph, model, state):
        weights = model.dynamic_weights_row(graph, state)
        if weights.size == 0 or float(weights.sum()) <= 0.0:
            return None
        self.stats.initializations += 1
        return AliasTable(weights)

    @property
    def num_assigned_states(self) -> int:
        """States assigned to the alias method."""
        return int(self.assigned.sum())

    @property
    def num_cached_tables(self) -> int:
        """Alias tables actually built so far."""
        return sum(1 for t in self._tables.values() if t is not None)

    @classmethod
    def memory_bytes(cls, graph, model) -> int:
        # adapts to any budget; reported footprint is configuration-defined
        return 0


class _Missing:
    __slots__ = ()


_MISSING = _Missing()
