"""Alias-method tables (Walker 1977).

The alias method turns any fixed discrete distribution over ``d`` outcomes
into an O(1) sampler after an O(d) table build. The catch — and the reason
the paper's Table VII marks it out-of-memory on billion-edge networks — is
that a *separate* table is needed per walker state: ``|V|`` tables for
first-order models but ``|E|`` tables (each of size deg) for second-order
models, i.e. Σ indeg·outdeg entries in total.

This module holds the table construction (:func:`build_alias_table`) and
the one flat store of tables, :class:`AliasTables`: per-state tables over
a model's dynamic weights (the ``alias`` and ``memory-aware`` steppers),
and per-node tables over the graph's static weights, which are a static
model's per-state tables and the proposal of the rejection, KnightKing
and memory-aware steppers. The steppers draw from either form through
the kernel backend's one gather, ``alias_draw``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplerError
from repro.sampling.memory_model import ALIAS_ENTRY_BYTES


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


class AliasTables:
    """Flat alias tables, one per walker state, stored back to back.

    ``base[s]`` is where state s's ``table_deg[s]`` slots start; a slot
    holds a threshold and an alias position *local* to the state's row
    (``alias_local``). ``has_table[s]`` marks the states whose row has
    positive weight: a draw anywhere else is ``NO_EDGE``, as under
    every other sampler. Construction runs Vose once per table (the
    preprocessing cost of alias-based sampling); a draw is the kernel
    backend's ``alias_draw``, two gathers.

    Two forms share that layout, the build and the refresh:

    * ``AliasTables(graph)``: one table per node over the graph's static
      weights, ``base = graph.offsets``. These are a static model's
      per-state tables and the proposal of the rejection samplers. An
      unweighted graph gets no arrays at all (:attr:`uniform`): it costs
      0 bytes and a draw takes one uniform, the slot.
    * ``AliasTables(graph, model, state_mask=)``: one table per valid
      (and masked) state of the model's
      :meth:`~repro.walks.models.base.RandomWalkModel.enumerate_state_contexts`,
      over its dynamic weights.
    """

    def __init__(self, graph, model=None, *, state_mask=None):
        self.graph = graph
        self.static = model is None
        self._layout(model, state_mask)
        if not self.uniform:
            self._build_states(model, np.flatnonzero(self._valid))
        self._contexts = None  # transient build scaffolding, not a table

    @property
    def uniform(self) -> bool:
        """True for static tables of an unweighted graph: no arrays."""
        return self.threshold is None

    def _layout(self, model, state_mask) -> None:
        """Size the flat slot arrays for the current graph."""
        graph = self.graph
        if self.static:
            self._contexts = {"cur": np.arange(graph.num_nodes, dtype=np.int64)}
            if not graph.is_weighted:
                self._valid = None
                self.base = self.table_deg = self.has_table = None
                self.threshold = self.alias_local = None
                return
            table_deg = graph.degrees().astype(np.int64)
            valid = table_deg > 0
            self.base = graph.offsets
        else:
            contexts = model.enumerate_state_contexts(graph)
            table_deg = model.state_table_degrees(graph).astype(np.int64).copy()
            valid = contexts["valid"].copy()
            if state_mask is not None:
                valid &= state_mask
            table_deg[~valid] = 0
            self._contexts = contexts
            self.base = np.concatenate(([0], np.cumsum(table_deg)))
        self._valid = valid
        self.table_deg = table_deg
        total = int(self.base[-1])
        self.threshold = np.ones(total, dtype=np.float64)
        self.alias_local = np.zeros(total, dtype=np.int64)
        self.has_table = np.zeros(valid.size, dtype=bool)

    def _build_states(self, model, build_idx: np.ndarray) -> int:
        """Vose-construct the tables of the given states; returns count."""
        if build_idx.size == 0:
            return 0
        from repro.walks._segments import concat_ranges

        contexts = self._contexts
        cur = contexts["cur"][build_idx]
        deg = self.table_deg[build_idx]
        flat_offs, seg = concat_ranges(self.graph.offsets[cur], deg)
        if self.static:
            weights = self.graph.weights[flat_offs]
        else:
            weights = model.batch_dynamic_weight(
                contexts["prev"][build_idx][seg],
                contexts["prev_off"][build_idx][seg],
                cur[seg],
                contexts["step"][build_idx][seg],
                flat_offs,
            )
        built = 0
        cursor = 0
        # one Vose construction per table, each over its own row length
        for j, idx in enumerate(build_idx):  # repro-lint: ignore[RPR006]
            d = int(deg[j])
            row_w = weights[cursor : cursor + d]
            cursor += d
            if float(row_w.sum()) <= 0.0:
                continue
            t, a = build_alias_table(row_w)
            b = int(self.base[idx])
            self.threshold[b : b + d] = t
            self.alias_local[b : b + d] = a
            self.has_table[idx] = True
            built += 1
        return built

    def on_delta(self, plan, model=None, *, state_mask=None) -> dict:
        """Re-layout for a mutated graph, rebuilding only affected states.

        A state is affected when the delta touched the row it draws from
        or (for second-order models) its predecessor's row; every other
        surviving state's table is copied into the new layout
        (``alias_local`` is row-local, so a copied table needs no
        rebasing) and Vose reruns for the rest. ``rebuild_cost_bytes``
        counts the rebuilt table bytes, the cost a table-based sampler
        pays per update and the M-H sampler does not. Per-state tables
        need the model, already rebound to the new graph; static tables
        ignore it.
        """
        if not self.static and model is None:
            raise SamplerError(
                "AliasTables.on_delta needs the rebound model to rebuild "
                "affected per-state tables"
            )
        was_uniform = self.uniform
        old_base, old_thresh = self.base, self.threshold
        old_alias, old_has, old_deg = self.alias_local, self.has_table, self.table_deg
        self.graph = new_graph = plan.new_graph
        self._layout(model, state_mask)
        if self.uniform:
            self._contexts = None
            return {"rebuilt_nodes": 0, "rebuild_cost_bytes": 0, "invalidated_states": 0}
        if was_uniform:  # the graph just became weighted: no old table to copy
            old_has = np.zeros(0, dtype=bool)
        states = self._valid.size

        # old flat index of each new state (-1 for states with no ancestor)
        order = 1 if self.static else model.order
        if order == 1:  # node-major: the old states keep their indices
            idx = np.arange(states, dtype=np.int64)
            old_of_new = np.where(idx < old_has.size, idx, -1)
        else:
            remap = plan.edge_remap()
            old_of_new = np.full(states, -1, dtype=np.int64)
            kept = remap >= 0
            old_of_new[remap[kept]] = np.flatnonzero(kept)

        tmask = np.zeros(new_graph.num_nodes, dtype=bool)
        tmask[plan.touched_nodes()] = True
        cur = self._contexts["cur"]
        affected = tmask[cur]
        if order == 2:
            prev = self._contexts["prev"]
            affected |= (prev >= 0) & tmask[np.maximum(prev, 0)]

        cand = np.flatnonzero((old_of_new >= 0) & ~affected & self._valid)
        old_pos = old_of_new[cand]
        copied = 0
        copy_mask = np.zeros(states, dtype=bool)
        if cand.size:
            same = old_deg[old_pos] == self.table_deg[cand]
            new_pos, old_pos = cand[same], old_pos[same]
            copy_mask[new_pos] = True
            from repro.walks._segments import concat_ranges

            deg = self.table_deg[new_pos]
            flat_new, seg = concat_ranges(self.base[new_pos], deg)
            flat_old = old_base[old_pos][seg] + (flat_new - self.base[new_pos][seg])
            self.threshold[flat_new] = old_thresh[flat_old]
            self.alias_local[flat_new] = old_alias[flat_old]
            self.has_table[new_pos] = old_has[old_pos]
            copied = int(old_has[old_pos].sum())
        rebuild_idx = np.flatnonzero(self._valid & ~copy_mask)
        built = self._build_states(model, rebuild_idx)
        info = {
            "rebuilt_nodes": int(np.unique(cur[rebuild_idx]).size),
            "rebuild_cost_bytes": int(ALIAS_ENTRY_BYTES * self.table_deg[rebuild_idx].sum()),
            "invalidated_states": int(old_has.sum()) - copied,
            "rebuilt_states": built,
        }
        self._contexts = None
        return info

    @property
    def num_tables(self) -> int:
        """Number of materialised tables."""
        return 0 if self.uniform else int(self.has_table.sum())

    def memory_bytes(self) -> int:
        """Resident table bytes (the alias explosion of Table VII)."""
        if self.uniform:
            return 0
        return self.threshold.nbytes + self.alias_local.nbytes
