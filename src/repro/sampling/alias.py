"""Alias-method tables (Walker 1977).

The alias method turns any fixed discrete distribution over ``d`` outcomes
into an O(1) sampler after an O(d) table build. The catch — and the reason
the paper's Table VII marks it out-of-memory on billion-edge networks — is
that a *separate* table is needed per walker state: ``|V|`` tables for
first-order models but ``|E|`` tables (each of size deg) for second-order
models, i.e. Σ indeg·outdeg entries in total.

This module holds the table construction (:func:`build_alias_table`) and
:class:`FirstOrderAliasStore`, one table per node over static weights:
the ``alias-first-order`` stepper's tables and the proposal of the
rejection, KnightKing and memory-aware steppers. The per-state tables
over dynamic weights are
:class:`~repro.walks.vectorized.EagerStateAliasTables`; the steppers
draw from both through the kernel backend (``alias_draw`` /
``state_alias_draw``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplerError


def build_alias_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose's alias construction for unnormalised ``weights``.

    Returns ``(threshold, alias)`` arrays of length d: draw a slot k
    uniformly, then return k if a uniform draw falls below
    ``threshold[k]``, else ``alias[k]``. All-zero weights raise
    :class:`SamplerError` (no distribution to represent).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise SamplerError("alias table needs a non-empty 1-D weight array")
    if np.any(w < 0):
        raise SamplerError("alias table weights must be non-negative")
    total = float(w.sum())
    if total <= 0.0:
        raise SamplerError("alias table weights must not all be zero")
    d = w.size
    scaled = w * (d / total)
    threshold = np.ones(d, dtype=np.float64)
    alias = np.arange(d, dtype=np.int64)
    small = [int(i) for i in np.flatnonzero(scaled < 1.0)]
    large = [int(i) for i in np.flatnonzero(scaled >= 1.0)]
    while small and large:
        s = small.pop()
        g = large.pop()
        threshold[s] = scaled[s]
        alias[s] = g
        scaled[g] = scaled[g] - (1.0 - scaled[s])
        if scaled[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    # leftovers are numerically == 1
    for i in small + large:
        threshold[i] = 1.0
        alias[i] = i
    return threshold, alias


class FirstOrderAliasStore:
    """Flat per-node alias tables over static edge weights.

    Tables are stored contiguously, aligned with the CSR edge arrays, so a
    batch draw for a vector of nodes is a pair of gathers. Unweighted
    graphs skip the build entirely and sample neighbours uniformly.
    """

    def __init__(self, graph):
        self.graph = graph
        self.uniform = not graph.is_weighted
        if self.uniform:
            self.threshold = None
            self.alias = None
            return
        m = graph.num_edge_entries
        # identity tables by default: zero-sum rows degrade to uniform
        self.threshold = np.ones(m, dtype=np.float64)
        self.alias = np.arange(m, dtype=np.int64)
        offsets = graph.offsets
        for v in range(graph.num_nodes):
            lo, hi = int(offsets[v]), int(offsets[v + 1])
            if hi == lo:
                continue
            row = graph.weights[lo:hi]
            if row.sum() <= 0:
                continue
            t, a = build_alias_table(row)
            self.threshold[lo:hi] = t
            self.alias[lo:hi] = a + lo

    def memory_bytes(self) -> int:
        """Resident bytes of the table arrays."""
        if self.uniform:
            return 0
        return self.threshold.nbytes + self.alias.nbytes

    def on_delta(self, plan, model=None) -> dict:
        """Re-layout the flat tables for a mutated graph.

        Untouched rows are *copied* (their distributions are unchanged —
        only their global offsets shifted); Vose construction reruns
        only for rows the delta touched. ``rebuild_cost_bytes`` counts
        the rebuilt table bytes, the cost a per-node-table sampler pays
        per update and the M-H sampler does not. First-order tables
        depend only on static weights, so ``model`` (accepted for the
        canonical protocol) is ignored.
        """
        new_graph = plan.new_graph
        was_uniform = self.uniform
        old_graph, old_threshold, old_alias = self.graph, self.threshold, self.alias
        self.graph = new_graph
        self.uniform = not new_graph.is_weighted
        if self.uniform:
            self.threshold = None
            self.alias = None
            return {"rebuilt_nodes": 0, "rebuild_cost_bytes": 0, "invalidated_states": 0}

        m = new_graph.num_edge_entries
        self.threshold = np.ones(m, dtype=np.float64)
        self.alias = np.arange(m, dtype=np.int64)
        new_off = new_graph.offsets
        # a delta's remove_last_nodes can drop touched trailing node ids
        touched = plan.touched_nodes()
        touched = touched[touched < new_graph.num_nodes]
        if was_uniform:
            # the graph just became weighted: no old tables to reuse
            rebuild = np.flatnonzero(np.diff(new_off) > 0)
        else:
            from repro.walks._segments import concat_ranges

            old_off = old_graph.offsets
            shared_n = min(old_graph.num_nodes, new_graph.num_nodes)
            nodes = np.arange(shared_n, dtype=np.int64)
            untouched = nodes[~np.isin(nodes, touched)]
            deg = (old_off[untouched + 1] - old_off[untouched]).astype(np.int64)
            flat_new, seg = concat_ranges(new_off[untouched], deg)
            if flat_new.size:
                shift = old_off[untouched] - new_off[untouched]
                flat_old = flat_new + shift[seg]
                self.threshold[flat_new] = old_threshold[flat_old]
                self.alias[flat_new] = old_alias[flat_old] - shift[seg]
            rebuild = np.union1d(touched, np.arange(shared_n, new_graph.num_nodes))
        rebuilt = 0
        cost = 0
        for v in rebuild:
            lo, hi = int(new_off[v]), int(new_off[v + 1])
            if hi == lo:
                continue
            rebuilt += 1
            cost += 16 * (hi - lo)  # one f64 threshold + one i64 alias per slot
            row = new_graph.weights[lo:hi]
            if row.sum() <= 0:
                continue
            t, a = build_alias_table(row)
            self.threshold[lo:hi] = t
            self.alias[lo:hi] = a + lo
        return {"rebuilt_nodes": rebuilt, "rebuild_cost_bytes": cost, "invalidated_states": 0}
