"""Sampler management: the flat chain store behind Fig. 4's 2D layout.

The paper manages one M-H edge sampler per walker state and needs O(1)
lookup from a state to its sampler. Its answer is a 2D (position,
affixture) decomposition: all states sharing a *position* (a node) form a
bucket, and the *affixture* (the model-specific remainder: predecessor
rank, metapath type, nothing) indexes within the bucket.

Because each sampler's entire mutable content is one integer (LAST_x, the
edge offset of its chain's current sample), the whole manager collapses to
a single int64 array indexed by the model's flat state index — the
densest possible realisation of the 2D layout. One deviation from the
figure, documented here: second-order states are indexed by the *taken*
directed edge (bucket = previous node, affixture = rank of the current
node in its row) rather than by the reverse edge. Both are bijections onto
[0, |E|) with O(1) lookup; ours avoids a per-step binary search.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.base import NO_EDGE
from repro.sampling.memory_model import mh_bytes


def _invalidate_touched(vals: np.ndarray, plan) -> np.ndarray:
    """Remap resident edge offsets across a delta; touched entries → NO_EDGE.

    A chain whose resident edge survived untouched keeps it (remapped to
    the new global offset); a chain whose resident edge was removed *or
    reweighted* is invalidated and lazily re-initialised on next visit —
    exactly the O(touched) revalidation the M-H sampler's tableless
    design buys under graph mutation.
    """
    out = np.full(vals.shape, NO_EDGE, dtype=np.int64)
    has = vals != NO_EDGE
    if not has.any():
        return out
    resident = vals[has]
    mapped = plan.remap_offsets(resident)
    touched = plan.touched_old_offsets()
    if touched.size:
        pos = np.searchsorted(touched, resident)
        hit = (pos < touched.size) & (touched[np.minimum(pos, touched.size - 1)] == resident)
        mapped[hit] = NO_EDGE
    out[has] = mapped
    return out


def remap_chain_array(last: np.ndarray, model, plan) -> tuple[np.ndarray, int]:
    """Carry an M-H chain array (LAST_x per state) across a graph delta.

    ``model`` must already be rebound to ``plan.new_graph`` (its state
    space sizes the output). First-order state indices are node-major,
    so every old index keeps its place and new nodes append NO_EDGE
    slots; second-order indices are edge offsets and follow
    :meth:`DeltaPlan.edge_remap`. Returns the new chain array and the
    number of previously-initialised chains that were invalidated
    (resident edge touched, or defining edge removed).
    """
    new_last = np.full(int(model.state_space_size(plan.new_graph)), NO_EDGE, dtype=np.int64)
    resident = _invalidate_touched(last, plan)
    if getattr(model, "order", 1) == 1:
        new_last[: last.size] = resident
    else:
        state_remap = plan.edge_remap()
        keep = state_remap >= 0
        new_last[state_remap[keep]] = resident[keep]
    invalidated = int((last != NO_EDGE).sum()) - int((new_last != NO_EDGE).sum())
    return new_last, invalidated


class ChainStore:
    """LAST_x storage for every M-H chain of a (graph, model) pair.

    Owned by the M-H stepper (or passed in as ``chain_store``) so chains
    persist across walk waves (the paper's samplers live for the whole
    training run and are initialised once, on first query).

    The store is a plain two-array bundle sized by the flat state space —
    the shape the compiled step kernels consume directly:

    ``last``
        int64, the resident edge offset of each chain (NO_EDGE = never
        initialised).
    ``last_w``
        float64, the cached dynamic weight w'(LAST_x) of the resident
        edge (NaN = not cached; kernels re-evaluate the model on NaN).
        Sound because the model contract makes w' a pure function of
        (state index, edge offset) — see
        :meth:`~repro.walks.models.base.RandomWalkModel.kernel_spec`.
        Anything that moves a chain without knowing the new weight must
        write NaN into the matching slot.
    """

    def __init__(self, graph, model, *, budget=None):
        self.size = int(model.state_space_size(graph))
        if budget is not None:
            budget.charge(mh_bytes(graph, model), "mh-chains")
        self.last = np.full(self.size, NO_EDGE, dtype=np.int64)
        self.last_w = np.full(self.size, np.nan, dtype=np.float64)
        self._model = model

    @property
    def num_initialized(self) -> int:
        """Chains that have been touched (lazily initialised) so far."""
        return int((self.last != NO_EDGE).sum())

    def reset(self) -> None:
        """Forget every chain position."""
        self.last.fill(NO_EDGE)
        self.last_w.fill(np.nan)

    def on_delta(self, plan, model=None) -> dict:
        """Revalidate every chain across a graph delta (in place).

        ``plan`` is a :class:`~repro.graph.delta.DeltaPlan`; ``model``
        defaults to the bound model, which must already be rebound to
        ``plan.new_graph``. The array is resized to the new state space
        and only chains whose resident or defining edge was touched are
        invalidated; everything else keeps its (remapped) sample.
        """
        model = self._model if model is None else model
        new_last, invalidated = remap_chain_array(self.last, model, plan)
        self.last = new_last
        # the weight cache cannot survive a delta: a reweighted edge (or,
        # for second-order models, a changed predecessor row) can alter
        # w'(LAST_x) even when the resident edge itself was untouched, so
        # every surviving chain re-evaluates once on next visit
        self.last_w = np.full(new_last.size, np.nan, dtype=np.float64)
        self.size = new_last.size
        self._model = model
        return {
            "invalidated_states": invalidated,
            "rebuilt_nodes": 0,
            "rebuild_cost_bytes": 0,
        }

    def memory_bytes(self) -> int:
        """Resident bytes — the O(#state) footprint of Section III-A."""
        return self.last.nbytes + self.last_w.nbytes

    def __repr__(self) -> str:
        return f"ChainStore(size={self.size}, initialized={self.num_initialized})"
