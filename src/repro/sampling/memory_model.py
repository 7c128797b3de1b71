"""Sampler memory accounting and the simulated out-of-memory budget.

The paper's scalability results (Tables VI and VII, Fig. 6) hinge on
*which sampler fits in memory* at billion-edge scale: per-state alias
tables explode, rejection samplers carry an O(|E|) proposal structure,
while the M-H sampler needs one integer per state. Reproducing the '*'
(OOM) entries does not require billion-edge inputs — it requires the same
decision rule. :class:`MemoryBudget` applies that rule against
byte-accurate estimates at whatever scale the benchmark runs.

Per-entry costs (bytes) reflect this implementation's actual arrays:

* alias table entry: 8 (float64 threshold) + 8 (int64 alias) = 16
* M-H chain state:   8 (int64 last edge offset) + 8 (float64 cached
  dynamic weight of that offset — the kernel layer's w'(LAST_x) cache)
* CSR edge entry:    8 (int64 target) + 8 (float64 weight, if weighted)
"""

from __future__ import annotations

from repro.errors import ConfigError, SimulatedOutOfMemoryError

ALIAS_ENTRY_BYTES = 16
MH_STATE_BYTES = 16
DIRECT_SAMPLER_BYTES = 64  # constant scratch


class MemoryBudget:
    """A byte budget that samplers charge their footprint against.

    Mirrors the fixed RAM of the paper's evaluation server. ``charge``
    raises :class:`SimulatedOutOfMemoryError` when the running total would
    exceed the budget; the benchmarks catch that error and print '*'.
    """

    def __init__(self, budget_bytes: int):
        if budget_bytes <= 0:
            raise ConfigError(f"budget_bytes must be positive, got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        self.used_bytes = 0

    @property
    def remaining_bytes(self) -> int:
        """Bytes still available."""
        return self.budget_bytes - self.used_bytes

    def charge(self, num_bytes: int, what: str = "sampler") -> None:
        """Reserve ``num_bytes``; raise SimulatedOutOfMemoryError if over."""
        num_bytes = int(num_bytes)
        if num_bytes < 0:
            raise ConfigError("cannot charge negative bytes")
        if self.used_bytes + num_bytes > self.budget_bytes:
            raise SimulatedOutOfMemoryError(
                self.used_bytes + num_bytes, self.budget_bytes, what
            )
        self.used_bytes += num_bytes

    def release(self, num_bytes: int) -> None:
        """Return previously charged bytes to the pool."""
        self.used_bytes = max(self.used_bytes - int(num_bytes), 0)

    def __repr__(self) -> str:
        return f"MemoryBudget(used={self.used_bytes:,}/{self.budget_bytes:,} bytes)"


def first_order_alias_bytes(graph) -> int:
    """Alias tables over static weights: one entry per directed edge.

    An unweighted graph draws neighbours uniformly and builds no table,
    so it costs nothing: the bytes follow what the static form of
    :class:`~repro.sampling.alias.AliasTables` allocates.
    """
    if not graph.is_weighted:
        return 0
    return graph.num_edge_entries * ALIAS_ENTRY_BYTES


def second_order_alias_bytes(graph, model) -> int:
    """Per-state alias tables: Σ over states of the current node's degree.

    Models expose ``alias_entries(graph)``; for node2vec-style models this
    is Σ_v indeg(v)·outdeg(v) (≈ Σ deg² on symmetric graphs) — the memory
    explosion of Table VII's alias row.
    """
    return int(model.alias_entries(graph)) * ALIAS_ENTRY_BYTES


def rejection_bytes(graph) -> int:
    """Rejection proposal structure.

    Weighted graphs need a static-weight alias table per node (O(|E|)
    entries); unweighted graphs get a free uniform proposal.
    """
    if graph.is_weighted:
        return first_order_alias_bytes(graph)
    return DIRECT_SAMPLER_BYTES


def mh_bytes(graph, model) -> int:
    """M-H sampler: one (LAST_x, w'(LAST_x)) slot pair per state.

    Still the O(#state) footprint of paper Section III-A — the kernel
    layer's weight cache doubles the constant to 16 bytes but not the
    asymptotics. This is the paper's chain-footprint model and what a
    :class:`MemoryBudget` is charged. The adjacency filter a
    second-order alpha probes (2-4 bytes per edge entry) is the graph's,
    not the sampler's: ``stats()["edge_filter_bytes"]`` shows it on
    either backend, an engine's ``memory_bytes()`` counts it once where
    the compiled kernels probe it, and this model does not.
    """
    return int(model.state_space_size(graph)) * MH_STATE_BYTES


def direct_bytes(graph, model) -> int:
    """Direct sampling needs only constant scratch."""
    return DIRECT_SAMPLER_BYTES


def sampler_memory_estimate(kind: str, graph, model) -> int:
    """Byte estimate for a sampler name of :data:`repro.registry.SAMPLER_REGISTRY`."""
    kind = kind.lower()
    if kind in ("mh", "metropolis-hastings"):
        return mh_bytes(graph, model)
    if kind == "direct":
        return direct_bytes(graph, model)
    if kind == "alias-first-order":
        return first_order_alias_bytes(graph)
    if kind == "alias":
        return second_order_alias_bytes(graph, model)
    if kind in ("rejection", "knightking"):
        return rejection_bytes(graph)
    if kind == "memory-aware":
        # by construction it adapts to whatever budget it is given
        return DIRECT_SAMPLER_BYTES
    raise ConfigError(f"unknown sampler kind {kind!r}")
