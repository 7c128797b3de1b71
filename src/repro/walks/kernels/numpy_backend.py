"""Pure-NumPy step kernels — the default, always-available backend.

Each method reproduces, operation for operation, the array formulas the
steppers in :mod:`repro.walks.vectorized` inlined before the kernel
layer existed. All uniform variates are pre-drawn by the *driver* (the
stepper) in the engine's historical ``rng`` call order, so every backend
consumes the RNG identically and the compiled backends can be checked
for bitwise-identical corpora against this one.

Kernel protocol (duck-typed; all backends implement it):

``supports(spec)``
    Whether the backend can evaluate the model's
    :meth:`~repro.walks.models.base.RandomWalkModel.kernel_spec`.
    This backend supports everything — *generic* models are evaluated
    through the driver-supplied ``weight_fn`` closure
    (``weight_fn(offs, lanes=None)`` → dynamic weights, where ``lanes``
    selects a subset of the wave when not None).
``warmup()``
    Pay any one-time compilation cost now; returns the seconds spent so
    the engine can book them as ``compile_seconds`` instead of walk time.
``mh_step / alias_draw / rejection_round``
    The hot loops (full Algorithm 1 step over the shared chain arrays,
    the alias gather from an
    :class:`~repro.sampling.alias.AliasTables` store, the
    rejection/KnightKing acceptance round over a static store).
``dyn_weights``
    Bulk model-weight evaluation over aligned ``(prev, edge offset)``
    lanes — the M-H initializers' inner product, which otherwise
    dominates first-touch cost on second-order models (one vectorized
    binary search per candidate for the node2vec α).
``mh_init_select``
    The fused high-weight initializer: draw ``cap`` candidates per
    fresh walker from a pre-drawn uniform block and return the argmax
    candidate and its weight. Compiled backends exploit that all
    candidates of one walker share ``prev`` (the node2vec membership
    test amortizes to O(1) per candidate via a marked adjacency).
``row_offsets / race_argmin``
    The index work of an exact draw over whole rows (step 0 of a
    second-order walk, the direct sampler): the rows' edge offsets end
    to end, and each row's winner of the exponential race over keys
    laid out the same way. The race keys themselves stay NumPy's
    (``race_keys``), on every backend.

One entry is optional, and this backend lacks it:

``mh_wave``
    Every M-H step of a wave in one call, drawing from the engine's
    BitGenerator what the stepper's ``rng.random`` calls would, and
    returning the thread count it used too. Absent: the stepper runs
    ``StepperBase.run_wave``, which it must equal.

No backend builds an adjacency filter: node2vec's alpha probes the
graph's own (``CSRGraph.edge_filter``, ``KernelState.edge_filter``),
here through ``CSRGraph.has_edge_batch``.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.base import NO_EDGE
from repro.walks._segments import concat_ranges, segment_race_argmin


class NumpyKernels:
    """Vectorized-NumPy reference implementation of the kernel protocol."""

    name = "numpy"
    compiled = False

    def supports(self, spec) -> bool:
        return True

    def warmup(self) -> float:
        return 0.0

    # ------------------------------------------------------------------
    def mh_propose(self, ks, prev, cur, last, last_w, u_cand, u_acc, weight_fn):
        """One M-H chain step (Algorithm 1) over ``cur.size`` walkers.

        ``last_w`` is the gathered cached dynamic weight of ``last``
        (NaN where not cached); cache misses are the only lanes that
        re-evaluate the model. Returns ``(cand, w_cand, w_last, accept)``.
        """
        offsets = ks.offsets
        lo = offsets[cur]
        deg = offsets[cur + 1] - lo
        cand = lo + (u_cand * np.maximum(deg, 1)).astype(np.int64)
        # deg==0 lanes are dead (masked by the driver), but a trailing
        # zero-degree node's row starts one past the edge arrays: clamp
        # the junk index exactly as the compiled kernels do
        cand = np.minimum(cand, max(ks.targets.size - 1, 0))
        w_cand = weight_fn(cand)
        w_last = last_w.astype(np.float64, copy=True)
        miss = np.isnan(w_last)
        if miss.any():
            w_last[miss] = weight_fn(np.maximum(last[miss], 0), miss)
        accept = (w_cand > 0.0) & ((w_last <= 0.0) | (u_acc * w_last < w_cand))
        return cand, w_cand, w_last, accept

    def mh_step(self, ks, idx, prev, cur, last, last_w, dead, u_cand, u_acc, weight_fn):
        """Full Algorithm 1 step: propose, accept, scatter chain state.

        The scatter goes through ``idx`` in lane order so duplicate
        states resolve last-writer-wins for the ``(LAST_x, weight)``
        pair. Returns ``(next, n_ok, n_accepted)``.
        """
        cand, w_cand, w_last, accept = self.mh_propose(
            ks, prev, cur, last, last_w, u_cand, u_acc, weight_fn
        )
        take = accept & ~dead
        new_last = np.where(take, cand, last)
        new_w = np.where(take, w_cand, w_last)
        ok = ~dead
        ks.chain_last[idx[ok]] = new_last[ok]
        ks.chain_last_w[idx[ok]] = new_w[ok]
        n_ok = int(ok.sum())
        n_acc = int((accept & ok).sum())
        return np.where(ok, new_last, NO_EDGE), n_ok, n_acc

    def dyn_weights(self, ks, prev, offs, weight_fn):
        """Model weights for aligned lanes; here simply the model itself."""
        return weight_fn(offs)

    def mh_init_select(self, ks, prev, cur, u, weight_fn):
        """High-weight chain init: best of ``cap`` uniform candidates.

        ``u`` is the pre-drawn ``(k, cap)`` uniform block; returns the
        per-walker argmax candidate offset and its weight (first-max tie
        order, exactly ``np.argmax``).
        """
        offsets = ks.offsets
        lo = offsets[cur]
        deg = offsets[cur + 1] - lo
        k, cap = u.shape
        cand = lo[:, None] + (u * np.maximum(deg, 1)[:, None]).astype(np.int64)
        w = weight_fn(cand.ravel()).reshape(k, cap)
        best = np.argmax(w, axis=1)
        rows = np.arange(k)
        return cand[rows, best], w[rows, best]

    def row_offsets(self, lo, deg):
        """The edge offsets of the rows ``[lo, lo + deg)``, end to end."""
        return concat_ranges(lo, deg)[0]

    def race_argmin(self, keys, deg):
        """Each row's race winner (position in the row, -1: none) over
        ``keys`` laid out as :meth:`row_offsets` lays out the rows."""
        return segment_race_argmin(keys, deg)

    def alias_draw(self, ks, tables, state_idx, cur, u_slot, u_keep):
        """Alias gather: lane i draws from table ``state_idx[i]`` of the
        :class:`~repro.sampling.alias.AliasTables` ``tables``, over the
        row of ``cur[i]``.

        ``u_keep`` is None for a uniform store (an unweighted graph's
        static tables): one uniform per lane there, two where tables
        exist. A state without a table gives ``NO_EDGE``.
        """
        lo = ks.offsets[cur]
        if tables.uniform:
            deg = ks.offsets[cur + 1] - lo
            k = lo + (u_slot * np.maximum(deg, 1)).astype(np.int64)
            return np.where(deg > 0, k, NO_EDGE)
        if tables.threshold.size == 0:  # no table anywhere (an edgeless graph)
            return np.full(state_idx.size, NO_EDGE, dtype=np.int64)
        deg = tables.table_deg[state_idx]
        k = (u_slot * np.maximum(deg, 1)).astype(np.int64)
        # lanes without a table may point past the slots: clamp, then mask
        slot = np.minimum(tables.base[state_idx] + k, tables.threshold.size - 1)
        pos = np.where(u_keep < tables.threshold[slot], k, tables.alias_local[slot])
        return np.where(tables.has_table[state_idx], lo + pos, NO_EDGE)

    def rejection_round(
        self, ks, proposal, prev, cur, u_prop, u_keep, u_acc, bound, clip, weight_fn
    ):
        """One rejection round: propose from the static tables
        ``proposal``, accept/reject.

        ``clip=True`` applies the KnightKing bulk clip
        ``w_dyn ← min(w_dyn, bound · w_static)`` before the acceptance
        test. Returns ``(off, accept)``; rejected lanes stay pending.
        """
        off = self.alias_draw(ks, proposal, cur, cur, u_prop, u_keep)
        safe = np.maximum(off, 0)
        if ks.weights is None:
            w_static = np.ones(off.size, dtype=np.float64)
        else:
            w_static = np.asarray(ks.weights[safe], dtype=np.float64)
        w_dyn = weight_fn(safe)
        if clip:
            w_dyn = np.minimum(w_dyn, bound * w_static)
        accept = (off >= 0) & (u_acc * bound * w_static < w_dyn)
        return off, accept


__all__ = ["NumpyKernels"]
