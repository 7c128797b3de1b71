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
``mh_step / alias_draw / state_alias_draw / rejection_round``
    The hot loops (full Algorithm 1 step over the shared chain arrays,
    first-order alias gather, per-state alias gather,
    rejection/KnightKing acceptance round).
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

Two entries are optional, and this backend has neither:

``mh_wave``
    Every M-H step of a wave in one call, drawing from the engine's
    BitGenerator what the stepper's ``rng.random`` calls would, and
    returning the thread count it used too. Absent: the stepper runs
    ``StepperBase.run_wave``, which it must equal.
``build_edge_filter``
    A prefilter for the adjacency test of node2vec's alpha
    (``KernelState.edge_filter``); it can only say "not an edge" early.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.base import NO_EDGE


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

    def alias_draw(self, ks, nodes, u_slot, u_keep):
        """First-order alias gather over static tables (global offsets).

        ``u_keep`` is None for uniform (unweighted) proposals — exactly
        the one-draw-vs-two RNG consumption of
        :meth:`FirstOrderAliasStore.draw_batch`.
        """
        offsets = ks.offsets
        lo = offsets[nodes]
        deg = offsets[nodes + 1] - lo
        ok = deg > 0
        k = lo + (u_slot * np.maximum(deg, 1)).astype(np.int64)
        if u_keep is not None and ks.prop_threshold.size:  # edgeless: no slot to keep
            kk = np.minimum(k, ks.prop_threshold.size - 1)
            keep = u_keep < ks.prop_threshold[kk]
            k = np.where(keep, k, ks.prop_alias[kk])
        return np.where(ok, k, NO_EDGE)

    def state_alias_draw(self, ks, state_idx, cur, u_slot, u_keep):
        """Per-state alias gather (eager second-order tables)."""
        if ks.tab_threshold.size == 0:  # no table anywhere (an edgeless shard)
            return np.full(state_idx.size, NO_EDGE, dtype=np.int64)
        deg = ks.tab_deg[state_idx]
        k = (u_slot * np.maximum(deg, 1)).astype(np.int64)
        slot = ks.tab_base[state_idx] + k
        slot = np.minimum(slot, max(ks.tab_threshold.size - 1, 0))
        keep = u_keep < ks.tab_threshold[slot]
        pos = np.where(keep, k, ks.tab_alias[slot])
        lo = ks.offsets[cur]
        return np.where(ks.tab_has[state_idx], lo + pos, NO_EDGE)

    def rejection_round(self, ks, prev, cur, u_prop, u_keep, u_acc, bound, clip, weight_fn):
        """One rejection round: propose from static tables, accept/reject.

        ``clip=True`` applies the KnightKing bulk clip
        ``w_dyn ← min(w_dyn, bound · w_static)`` before the acceptance
        test. Returns ``(off, accept)``; rejected lanes stay pending.
        """
        off = self.alias_draw(ks, cur, u_prop, u_keep)
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
