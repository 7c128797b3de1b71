"""Vectorized walk engine: all walkers of a wave advance in lock-step.

The paper's C++ engine parallelises Algorithm 2 by assigning walkers to 16
threads; the Python answer is data parallelism — one wave starts a walker
at every start node and each walk step is a handful of numpy passes over
the active walkers. Per-step work per sampler preserves the paper's
asymptotics:

* **M-H**: O(1) per walker (plus the model's weight evaluation, e.g.
  node2vec's O(log deg) adjacency probe) — Algorithm 1 on arrays.
* **direct**: O(deg) per walker — flatten active rows, exact segmented
  categorical draw.
* **alias**: O(1) gathers into eagerly built per-state tables (whose
  construction is the large ``Ti`` the paper reports for UniNet(Orig)).
* **rejection / KnightKing**: geometric retry loop with, respectively, a
  global or a folded bulk acceptance bound.
* **memory-aware**: alias gathers where the budget allowed a table,
  rejection sampling elsewhere.

Chains, tables and assignments persist across waves, exactly like the
paper's sampler manager. Races between same-state walkers within one wave
resolve last-writer-wins, mirroring the benign races of the threaded
original.

The wave loop belongs to the stepper: :meth:`StepperBase.run_wave` is
the one lock-step loop in Python. ``_MHStepper`` hands a wave to the
backend's ``mh_wave`` instead (one compiled call, uniforms drawn from
the engine's own BitGenerator in the order ``step`` draws them: the same
bits, on as many threads as the CPU affinity mask holds) when the
backend has one and the initializer is the built-in ``high-weight``. The other samplers, third-party steppers, the NumPy
backend, the other initializers, step 0 of a second-order walk (its
``np.log1p`` need not match libm to the last bit) and the sharded
driver (it fans every step out) keep the base loop;
``stats()["wave_kernel"]`` says which ran and ``["wave_threads"]`` on
how many threads the last wave did (0: the base loop).
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import WalkConfig, take_fields
from repro.errors import SamplerError, WalkError
from repro.registry import SAMPLER_REGISTRY, SamplerContext
from repro.sampling.alias import FirstOrderAliasStore, build_alias_table
from repro.sampling.base import NO_EDGE
from repro.sampling.initialization import make_initializer
from repro.sampling.memory_aware import assign_states_greedily
from repro.sampling.memory_model import (
    first_order_alias_bytes,
    mh_bytes,
    rejection_bytes,
    second_order_alias_bytes,
)
from repro.utils.rng import as_rng
from repro.walks._segments import (
    concat_ranges,
    race_keys,
    segment_argmax,
    segment_race_argmin,
)
from repro.walks.corpus import WalkCorpus
from repro.walks.kernels import (
    KernelState,
    default_backend,
    resolve_backend,
)
from repro.walks.manager import ChainStore
from repro.walks.models import make_model
from repro.walks.models.base import RandomWalkModel


class StepperBase:
    """Shared bookkeeping for vectorized per-step samplers.

    Third-party samplers subclass this and implement
    ``step(prev, prev_off, cur, step, rng) -> edge offsets`` (``NO_EDGE``
    for dead walkers), then register with
    :func:`repro.registry.register_sampler`; the factory is invoked as
    ``factory(graph, model, ctx)`` with a
    :class:`~repro.registry.SamplerContext`.

    The built-in steppers keep the two halves of a step apart: ``step``
    only *draws* — every uniform, from ``rng``, in a fixed order — and
    hands the draws to *apply* methods (``apply``, ``apply_first``,
    ``reject_round``, the M-H ``begin``/``init_*``/``finish``) that are
    pure functions of pre-drawn uniforms and build their structures in
    ``_build(ctx)``. A shard worker calls the apply half alone, on its
    local graph, with uniforms the driver shipped; the sharded driver
    inherits the draw half and overrides the apply half with a per-shard
    fan-out (:mod:`repro.sharding`). One copy of either half is why the
    sharded corpus equals this engine's bit for bit.
    """

    name = "abstract"
    #: True on steppers whose kernels evaluate the dynamic weight draw by
    #: draw: they carry the backend's adjacency filter for node2vec's alpha
    alpha_filter = False
    #: whether :meth:`run_wave` hands the wave to a compiled kernel
    wave_kernel = False
    #: threads the last wave's compiled call used (0: the base loop ran)
    wave_threads = 0

    def __init__(self, graph, model, kernels=None):
        self.graph = graph
        self.model = model
        #: Kernel backend driving the hot loops (``repro.walks.kernels``);
        #: the engine injects the configured one via the SamplerContext.
        self.kernels = kernels if kernels is not None else default_backend()
        self.edge_filter = self._new_edge_filter()
        self.samples = 0
        self.proposals = 0
        self.accepts = 0
        self.initializations = 0
        self.init_seconds = 0.0
        # graph-mutation counters (accrued by on_delta)
        self.rebuilt_nodes = 0
        self.rebuild_cost_bytes = 0
        self.invalidated_states = 0
        self.delta_seconds = 0.0

    # helpers ----------------------------------------------------------
    def _rows(self, cur):
        lo = self.graph.offsets[cur]
        deg = self.graph.offsets[cur + 1] - lo
        return lo, deg

    @property
    def kernel_state(self) -> KernelState:
        """Flat array bundle the step kernels consume.

        Rebuilt on access from references to the live arrays (O(1)), so
        it can never go stale across an ``on_delta`` rebuild. Subclasses
        contribute their persistent structures via
        :meth:`_extend_kernel_state`.
        """
        ks = KernelState.for_graph(self.graph, self.model)
        ks.edge_filter = self.edge_filter
        self._extend_kernel_state(ks)
        return ks

    def _new_edge_filter(self):
        """The backend's ``has_edge`` prefilter for the current graph, if any."""
        build = getattr(self.kernels, "build_edge_filter", None)
        if build is None or not self.alpha_filter:
            return None
        return build(KernelState.for_graph(self.graph, self.model))

    @property
    def edge_filter_bytes(self) -> int:
        return 0 if self.edge_filter is None else self.edge_filter.nbytes

    def _extend_kernel_state(self, ks: KernelState) -> None:
        """Attach sampler-owned arrays (tables, chains) to ``ks``."""

    def _weight_fn(self, prev, prev_off, cur, step, sel=None):
        """Dynamic-weight closure for kernels that lack a compiled rule.

        The returned ``weight_fn(offs, lanes=None)`` evaluates the
        model's batch weights for the wave (optionally pre-restricted to
        the ``sel`` lanes, e.g. a rejection sampler's pending set);
        ``lanes`` further subsets the call — the NumPy backend uses it to
        evaluate only M-H cache-miss lanes. Weight evaluation consumes
        no RNG, so backends may call this zero or more times without
        perturbing the engine's uniform stream.
        """

        def weight_fn(offs, lanes=None):
            p, po, c, s = prev, prev_off, cur, step
            if sel is not None:
                p, po, c = p[sel], po[sel], c[sel]
                s = s[sel] if isinstance(s, np.ndarray) else s
            if lanes is not None:
                p, po, c = p[lanes], po[lanes], c[lanes]
                s = s[lanes] if isinstance(s, np.ndarray) else s
            return self.model.batch_dynamic_weight(p, po, c, s, offs)

        return weight_fn

    def _expanded_row_weights(self, prev, prev_off, cur, step):
        """Flatten the active walkers' rows and evaluate dynamic weights."""
        lo, deg = self._rows(cur)
        flat_offs, seg = concat_ranges(lo, deg)
        if flat_offs.size == 0:
            return flat_offs, seg, deg, np.empty(0, dtype=np.float64)
        step_arr = step[seg] if isinstance(step, np.ndarray) else step
        weights = self.model.batch_dynamic_weight(
            prev[seg], prev_off[seg], cur[seg], step_arr, flat_offs
        )
        return flat_offs, seg, deg, weights

    def _race(self, cur, weights, u_flat):
        """Exact draw ∝ ``weights`` within each walker's row.

        ``weights``/``u_flat`` hold one entry per edge entry of the
        rows of ``cur``, flattened; every entry's race key depends on
        its own (weight, uniform) pair only, so a shard racing its slice
        of the wave picks the winners the whole wave would.
        """
        lo, deg = self._rows(cur)
        pos = segment_race_argmin(race_keys(weights, u_flat), deg)
        return np.where(pos >= 0, lo + pos, NO_EDGE)

    # the wave loop ----------------------------------------------------
    def run_wave(self, starts, walk_length, walks, row_base, rng) -> np.ndarray:
        """Walk one wave in lock-step; returns the walks' token counts.

        One walker per entry of ``starts`` writes row ``row_base + i`` of
        ``walks`` (pre-filled with -1). This is the only wave loop in
        Python: every sampler, the NumPy backend and the sharded driver
        run it, and a compiled wave kernel must equal it bit for bit.
        """
        return self._lockstep(starts, walk_length - 1, walks, row_base, rng)[0]

    def _lockstep(self, starts, steps, walks, row_base, rng):
        """The first ``steps`` steps of a wave: ``(lengths, lanes)`` after them."""
        k = starts.size
        walks[row_base : row_base + k, 0] = starts
        lengths = np.ones(k, dtype=np.int64)
        ids = np.arange(k, dtype=np.int64)
        cur = starts.astype(np.int64).copy()
        prev = np.full(k, -1, dtype=np.int64)
        prev_off = np.full(k, -1, dtype=np.int64)
        for step in range(steps):
            if cur.size == 0:
                break
            if self.model.order == 2 and step == 0:
                chosen = self.first_step(cur, rng)
            else:
                chosen = self.step(prev, prev_off, cur, step, rng)
            alive = chosen != NO_EDGE
            ids = ids[alive]
            chosen = chosen[alive]
            prev = cur[alive]
            prev_off = chosen
            cur = self.graph.targets[chosen]
            walks[row_base + ids, step + 1] = cur
            lengths[ids] += 1
        return lengths, (ids, prev, prev_off, cur)

    def first_step(self, cur, rng):
        """Step 0 of a second-order walk: one uniform per edge entry."""
        __, deg = self._rows(cur)
        return self.apply_first(cur, rng.random(int(deg.sum())))

    def apply_first(self, cur, u_flat):
        """Second-order walks take step 0 from the model's start-state law.

        With no previous edge the models define α = 1, which reduces to
        the static distribution for node2vec/edge2vec but keeps
        fairwalk's group discounting — so the exact draw goes through the
        model kernel rather than the raw static weights.
        """
        lo, deg = self._rows(cur)
        flat_offs, seg = concat_ranges(lo, deg)
        if flat_offs.size == 0:
            return np.full(cur.size, NO_EDGE, dtype=np.int64)
        no_prev = np.full(flat_offs.size, -1, dtype=np.int64)
        weights = self.kernels.dyn_weights(
            self.kernel_state, no_prev, flat_offs,
            self._weight_fn(no_prev, no_prev, cur[seg], 0),
        )
        return self._race(cur, weights, u_flat)

    def reject_round(self, prev, prev_off, cur, step, sel, u_prop, u_keep, u_acc, bound, clip):
        """One proposal/accept round for the ``sel`` lanes of the wave.

        Proposes from the stepper's static-weight tables (attached to
        :attr:`kernel_state` by the subclass that owns them) and returns
        ``(off, accept)`` aligned with ``sel``.
        """
        return self.kernels.rejection_round(
            self.kernel_state, prev[sel], cur[sel], u_prop, u_keep, u_acc, bound, clip,
            self._weight_fn(prev, prev_off, cur, step, sel=sel),
        )

    def _reject_pending(self, out, pending, lanes, rng, bound, clip=False, split=None):
        """The pending-set loop: draw a round's uniforms until every lane accepts.

        ``split(pending)``, when given, runs first in each round, settles
        some lanes itself (KnightKing's outlier branch) and returns the
        rest. Accepted offsets land in ``out``; returns the number of
        proposals made. The caller's class sets ``self.max_rounds``.
        """
        uniform = not self.graph.is_weighted
        proposals = 0
        for __ in range(self.max_rounds):
            if pending.size == 0:
                break
            proposals += pending.size
            if split is not None:
                pending = split(pending)
                if pending.size == 0:
                    continue
            u_prop = rng.random(pending.size)
            u_keep = None if uniform else rng.random(pending.size)
            u_acc = rng.random(pending.size)
            off, accept = self.reject_round(
                *lanes, pending, u_prop, u_keep, u_acc, bound, clip
            )
            out[pending[accept]] = off[accept]
            pending = pending[~accept]
        return proposals

    def memory_bytes(self) -> int:
        """Resident bytes of the stepper's persistent structures."""
        return 0

    def on_delta(self, plan, model=None) -> dict:
        """Refresh persistent sampler state across an applied graph delta.

        Canonical ``on_delta(plan, model=None)`` protocol (lint rule
        RPR003). ``plan`` is a :class:`~repro.graph.delta.DeltaPlan`;
        the model must already be rebound to ``plan.new_graph`` (the
        engine's :meth:`VectorizedWalkEngine.apply_delta` guarantees the
        order). Steppers capture the model at construction, so passing
        ``model`` here simply rebinds the reference first. Returns and
        accrues the refresh cost report (``rebuilt_nodes`` /
        ``rebuild_cost_bytes`` / ``invalidated_states``) that
        :meth:`stats` exposes.
        """
        t0 = time.perf_counter()
        if model is not None:
            self.model = model
        info = self._refresh(plan)
        self.graph = plan.new_graph
        # a stale filter has false negatives: silently wrong weights
        self.edge_filter = self._new_edge_filter()
        self.rebuilt_nodes += int(info.get("rebuilt_nodes", 0))
        self.rebuild_cost_bytes += int(info.get("rebuild_cost_bytes", 0))
        self.invalidated_states += int(info.get("invalidated_states", 0))
        self.delta_seconds += time.perf_counter() - t0
        return info

    def _refresh(self, plan) -> dict:
        """Subclass hook behind :meth:`on_delta`.

        The default only suits steppers with no persistent structures;
        stateful third-party steppers must override (or be rebuilt) —
        going stale silently would corrupt walks, so this raises.
        """
        if self.memory_bytes() > 0:
            raise WalkError(
                f"sampler {self.name!r} holds persistent state but implements "
                "no _refresh(plan); rebuild the engine after graph mutations"
            )
        return {"rebuilt_nodes": 0, "rebuild_cost_bytes": 0, "invalidated_states": 0}

    def stats(self) -> dict:
        """Counter snapshot (basis of the acceptance-ratio tables)."""
        return {
            "samples": self.samples,
            "proposals": self.proposals,
            "accepts": self.accepts,
            "initializations": self.initializations,
            "init_seconds": self.init_seconds,
            "acceptance_ratio": (self.samples / self.proposals) if self.proposals else 1.0,
            "rebuilt_nodes": self.rebuilt_nodes,
            "rebuild_cost_bytes": self.rebuild_cost_bytes,
            "invalidated_states": self.invalidated_states,
            "delta_seconds": self.delta_seconds,
        }


class _DirectStepper(StepperBase):
    """Exact O(deg)-per-walker sampling (vectorized direct sampler)."""

    name = "direct"

    def __init__(self, graph, model, ctx):
        super().__init__(graph, model, ctx.kernels)

    def step(self, prev, prev_off, cur, step, rng):
        __, deg = self._rows(cur)
        out = self.apply(prev, prev_off, cur, step, rng.random(int(deg.sum())))
        self.proposals += cur.size
        self.samples += int((out != NO_EDGE).sum())
        return out

    def apply(self, prev, prev_off, cur, step, u_flat):
        __, ___, ____, weights = self._expanded_row_weights(prev, prev_off, cur, step)
        return self._race(cur, weights, u_flat)


class _FirstOrderAliasStepper(StepperBase):
    """Per-node static alias tables — exact only for static models."""

    name = "alias-first-order"

    def __init__(self, graph, model, ctx):
        super().__init__(graph, model, ctx.kernels)
        if not model.is_static:
            raise WalkError(
                f"first-order alias sampling is exact only for static models; "
                f"{model.name} has state-dependent weights (use sampler='alias')"
            )
        self._build(ctx)

    def _build(self, ctx) -> None:
        if ctx.budget is not None:
            ctx.budget.charge(first_order_alias_bytes(self.graph), self.name)
        self.store = FirstOrderAliasStore(self.graph)

    def _extend_kernel_state(self, ks: KernelState) -> None:
        ks.prop_threshold = self.store.threshold
        ks.prop_alias = self.store.alias

    def step(self, prev, prev_off, cur, step, rng):
        # one uniform for the slot, a second only when tables exist —
        # the exact RNG consumption of FirstOrderAliasStore.draw_batch
        u_slot = rng.random(cur.size)
        u_keep = rng.random(cur.size) if self.graph.is_weighted else None
        out = self.apply(prev, prev_off, cur, step, u_slot, u_keep)
        self.proposals += cur.size
        self.samples += int((out != NO_EDGE).sum())
        return out

    def apply(self, prev, prev_off, cur, step, u_slot, u_keep):
        return self.kernels.alias_draw(self.kernel_state, cur, u_slot, u_keep)

    def _refresh(self, plan) -> dict:
        return self.store.on_delta(plan)

    def memory_bytes(self) -> int:
        return self.store.memory_bytes()


class EagerStateAliasTables:
    """Flat per-state alias tables over dynamic weights.

    One table per (valid, optionally masked) state, stored back-to-back:
    ``base[idx]`` points at state idx's slots, each slot holding a
    threshold and a *local* alias position. Construction walks every
    state once (the realistic preprocessing cost of alias-based second-
    order sampling); draws are two gathers.
    """

    def __init__(self, graph, model, state_mask=None):
        self.graph = graph
        self._layout(model, state_mask)
        self._build_states(model, np.flatnonzero(self._valid))
        self._contexts = None  # transient build scaffolding, not a table

    def _layout(self, model, state_mask) -> None:
        """Size the flat slot arrays for the current graph."""
        contexts = model.enumerate_state_contexts(self.graph)
        table_deg = model.state_table_degrees(self.graph).astype(np.int64).copy()
        valid = contexts["valid"].copy()
        if state_mask is not None:
            valid &= state_mask
        table_deg[~valid] = 0
        self._contexts = contexts
        self._valid = valid
        self.table_deg = table_deg
        self.base = np.concatenate(([0], np.cumsum(table_deg)))
        total = int(self.base[-1])
        self.threshold = np.ones(total, dtype=np.float64)
        self.alias_local = np.zeros(total, dtype=np.int64)
        self.has_table = np.zeros(valid.size, dtype=bool)

    def _build_states(self, model, build_idx: np.ndarray) -> int:
        """Vose-construct the tables of the given states; returns count."""
        if build_idx.size == 0:
            return 0
        contexts = self._contexts
        cur = contexts["cur"][build_idx]
        row_lo = self.graph.offsets[cur]
        deg = self.table_deg[build_idx]
        flat_offs, seg = concat_ranges(row_lo, deg)
        weights = model.batch_dynamic_weight(
            contexts["prev"][build_idx][seg],
            contexts["prev_off"][build_idx][seg],
            cur[seg],
            contexts["step"][build_idx][seg],
            flat_offs,
        )
        built = 0
        cursor = 0
        for j, idx in enumerate(build_idx):
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

        A state is affected when the delta touched the out-row it draws
        from or (for second-order models) its predecessor's row; every
        other surviving state's table is byte-copied into the new layout
        (``alias_local`` is row-local, so copied tables need no
        rebasing). ``model`` must already be rebound to the new graph;
        unlike stateless steppers this structure cannot refresh without
        one, so omitting it raises.
        """
        if model is None:
            raise SamplerError(
                "EagerStateAliasTables.on_delta needs the rebound model to "
                "rebuild affected per-state tables"
            )
        old_graph = self.graph
        old_base, old_thresh = self.base, self.threshold
        old_alias, old_has, old_deg = self.alias_local, self.has_table, self.table_deg
        order = getattr(model, "order", 1)
        self.graph = plan.new_graph
        self._layout(model, state_mask)

        # old flat index of each new state (-1 for states with no ancestor)
        if order == 1:
            per = max(self._valid.size // max(plan.new_graph.num_nodes, 1), 1)
            idx = np.arange(self._valid.size, dtype=np.int64)
            old_of_new = np.where(idx // per < plan.old_graph.num_nodes, idx, -1)
            old_of_new[old_of_new >= old_has.size] = -1
        else:
            remap = plan.edge_remap()
            old_of_new = np.full(self._valid.size, -1, dtype=np.int64)
            kept = remap >= 0
            old_of_new[remap[kept]] = np.flatnonzero(kept)

        touched = plan.touched_nodes()
        tmask = np.zeros(plan.new_graph.num_nodes, dtype=bool)
        tmask[touched[touched < plan.new_graph.num_nodes]] = True
        cur = self._contexts["cur"]
        affected = tmask[cur]
        if order == 2:
            prev = self._contexts["prev"]
            affected |= (prev >= 0) & tmask[np.maximum(prev, 0)]

        cand = np.flatnonzero((old_of_new >= 0) & ~affected & self._valid)
        old_pos = old_of_new[cand]
        same = old_deg[old_pos] == self.table_deg[cand]
        new_pos, old_pos = cand[same], old_pos[same]
        copy_mask = np.zeros(self._valid.size, dtype=bool)
        copy_mask[new_pos] = True
        if new_pos.size:
            deg = self.table_deg[new_pos]
            flat_new, seg = concat_ranges(self.base[new_pos], deg)
            flat_old = old_base[old_pos][seg] + (flat_new - self.base[new_pos][seg])
            self.threshold[flat_new] = old_thresh[flat_old]
            self.alias_local[flat_new] = old_alias[flat_old]
            self.has_table[new_pos] = old_has[old_pos]
        rebuild_idx = np.flatnonzero(self._valid & ~copy_mask)
        built = self._build_states(model, rebuild_idx)
        copied = int(old_has[old_pos].sum()) if new_pos.size else 0
        info = {
            "rebuilt_nodes": int(np.unique(cur[rebuild_idx]).size),
            "rebuild_cost_bytes": int(16 * self.table_deg[rebuild_idx].sum()),
            "invalidated_states": int(old_has.sum()) - copied,
            "rebuilt_states": built,
        }
        self._contexts = None
        return info

    @property
    def num_tables(self) -> int:
        """Number of materialised tables."""
        return int(self.has_table.sum())

    def draw(self, state_idx, cur, rng):
        """Draw edge offsets for walkers; NO_EDGE where no table exists."""
        deg = self.table_deg[state_idx]
        k = (rng.random(state_idx.size) * np.maximum(deg, 1)).astype(np.int64)
        slot = self.base[state_idx] + k
        slot = np.minimum(slot, max(self.threshold.size - 1, 0))
        keep = rng.random(state_idx.size) < self.threshold[slot]
        pos = np.where(keep, k, self.alias_local[slot])
        lo = self.graph.offsets[cur]
        return np.where(self.has_table[state_idx], lo + pos, NO_EDGE)

    def memory_bytes(self) -> int:
        """Resident table bytes (the alias explosion of Table VII)."""
        return self.threshold.nbytes + self.alias_local.nbytes


class _StateAliasStepper(StepperBase):
    """Eager per-state alias tables (UniNet(Orig) for node2vec)."""

    name = "alias"

    def __init__(self, graph, model, ctx):
        super().__init__(graph, model, ctx.kernels)
        self._build(ctx)

    def _build(self, ctx) -> None:
        if ctx.budget is not None:
            ctx.budget.charge(second_order_alias_bytes(self.graph, self.model), self.name)
        mask = None
        if ctx.owned_nodes is not None:
            # a state's home is its current node, so owned-node masks
            # partition the valid-state set exactly across shards
            mask = ctx.owned_nodes[self.model.enumerate_state_contexts(self.graph)["cur"]]
        self.tables = EagerStateAliasTables(self.graph, self.model, state_mask=mask)
        self.initializations += self.tables.num_tables

    def _extend_kernel_state(self, ks: KernelState) -> None:
        tables = self.tables
        ks.tab_base = tables.base
        ks.tab_threshold = tables.threshold
        ks.tab_alias = tables.alias_local
        ks.tab_deg = tables.table_deg
        ks.tab_has = tables.has_table

    def step(self, prev, prev_off, cur, step, rng):
        # two uniforms per walker — the RNG consumption of tables.draw
        u_slot = rng.random(cur.size)
        u_keep = rng.random(cur.size)
        out = self.apply(prev, prev_off, cur, step, u_slot, u_keep)
        self.proposals += cur.size
        self.samples += int((out != NO_EDGE).sum())
        return out

    def apply(self, prev, prev_off, cur, step, u_slot, u_keep):
        idx = self.model.batch_state_index(prev_off, cur, step)
        return self.kernels.state_alias_draw(self.kernel_state, idx, cur, u_slot, u_keep)

    def _refresh(self, plan) -> dict:
        info = self.tables.on_delta(plan, self.model)
        self.initializations += int(info.get("rebuilt_states", 0))
        return info

    def memory_bytes(self) -> int:
        return self.tables.memory_bytes()


class _MemoryAwareStepper(_StateAliasStepper):
    """Static greedy alias assignment under a budget; rejection elsewhere.

    The SIGMOD'20 framework assigns *sampling methods* per state within
    the budget: O(1) alias tables for the states that fit, and a
    memory-free method for the rest. The fallback must not be O(deg) —
    walkers concentrate on hubs (stationary mass ∝ degree), so a direct
    fallback would expand millions of row entries per step on skewed
    graphs. Rejection over the static-weight proposal keeps the fallback
    O(1/θ) per walker, which is what lets the memory-aware sampler
    finish (if slowly) on the billion-edge networks of Table VII.
    """

    name = "memory-aware"
    alpha_filter = True  # the rejection fallback

    def __init__(self, graph, model, ctx):
        self.table_budget_bytes = int(ctx.table_budget_bytes)
        self.max_rounds = ctx.max_reject_rounds
        super().__init__(graph, model, ctx)

    def _build(self, ctx) -> None:
        if ctx.budget is not None:
            ctx.budget.charge(self.table_budget_bytes, self.name)
        self._assign(self.graph)

    def _assign(self, graph) -> None:
        self.assigned = assign_states_greedily(graph, self.model, self.table_budget_bytes)
        self.tables = EagerStateAliasTables(graph, self.model, state_mask=self.assigned)
        self.initializations += self.tables.num_tables
        self.proposal = FirstOrderAliasStore(graph)

    def _extend_kernel_state(self, ks: KernelState) -> None:
        super()._extend_kernel_state(ks)
        ks.prop_threshold = self.proposal.threshold
        ks.prop_alias = self.proposal.alias

    def _refresh(self, plan) -> dict:
        # the greedy assignment is a global function of the degree
        # distribution, so mutation triggers a full reassign + rebuild —
        # the honest per-update price of this baseline
        dropped = self.tables.num_tables
        self._assign(plan.new_graph)
        return {
            "rebuilt_nodes": plan.new_graph.num_nodes,
            "rebuild_cost_bytes": self.memory_bytes(),
            "invalidated_states": dropped,
        }

    def step(self, prev, prev_off, cur, step, rng):
        u_slot = rng.random(cur.size)
        u_keep = rng.random(cur.size)
        out = self.apply(prev, prev_off, cur, step, u_slot, u_keep)
        self.proposals += cur.size
        # everything without a table (unassigned or zero-weight state)
        # falls back to rejection sampling
        pending = np.flatnonzero(out == NO_EDGE)
        __, deg = self._rows(cur)
        self._reject_pending(
            out, pending[deg[pending] > 0], (prev, prev_off, cur, step), rng,
            self.model.alpha_bound(self.graph),
        )
        self.samples += int((out != NO_EDGE).sum())
        return out

    def memory_bytes(self) -> int:
        return (
            self.tables.memory_bytes() + self.proposal.memory_bytes() + self.edge_filter_bytes
        )


class _RejectionStepper(StepperBase):
    """Vectorized rejection sampling, optionally with outlier folding."""

    alpha_filter = True

    def __init__(self, graph, model, ctx, *, fold: bool):
        super().__init__(graph, model, ctx.kernels)
        self.name = "knightking" if fold else "rejection"
        self.max_rounds = ctx.max_reject_rounds
        self.fold = (
            fold
            and getattr(model, "supports_folding", False)
            and hasattr(model, "batch_outlier_excess")
        )
        self.row_totals = graph.weight_row_sums() if self.fold else None
        self._build(ctx)

    def _build(self, ctx) -> None:
        if ctx.budget is not None:
            ctx.budget.charge(rejection_bytes(self.graph), self.name)
        self.proposal = FirstOrderAliasStore(self.graph)

    def _extend_kernel_state(self, ks: KernelState) -> None:
        ks.prop_threshold = self.proposal.threshold
        ks.prop_alias = self.proposal.alias

    def step(self, prev, prev_off, cur, step, rng):
        out = np.full(cur.size, NO_EDGE, dtype=np.int64)
        __, deg = self._rows(cur)
        pending = np.flatnonzero(deg > 0)
        if pending.size == 0:
            return out
        split = None
        if self.fold:
            bound = self.model.bulk_bound
            rev, excess = self.model.batch_outlier_excess(prev, cur)
            total = excess + bound * self.row_totals[cur]
            pending = pending[total[pending] > 0]

            def split(lanes):
                # outlier-vs-bulk split stays in the driver: it is one draw
                # against model-specific excess mass, not a hot loop
                hit_outlier = rng.random(lanes.size) * total[lanes] < excess[lanes]
                chosen_out = lanes[hit_outlier]
                out[chosen_out] = rev[chosen_out]  # exact excess-mass branch
                return lanes[~hit_outlier]
        else:
            bound = self.model.alpha_bound(self.graph)
        self.proposals += self._reject_pending(
            out, pending, (prev, prev_off, cur, step), rng, bound, self.fold, split
        )
        self.samples += int((out != NO_EDGE).sum())
        return out

    def _refresh(self, plan) -> dict:
        info = self.proposal.on_delta(plan)
        if self.fold:
            # row weight sums change only for touched rows
            new_graph = plan.new_graph
            totals = np.zeros(new_graph.num_nodes, dtype=np.float64)
            shared = min(totals.size, self.row_totals.size)
            totals[:shared] = self.row_totals[:shared]
            stale = np.union1d(
                plan.touched_nodes(),
                np.arange(plan.old_graph.num_nodes, new_graph.num_nodes),
            )
            for v in stale:
                if v >= new_graph.num_nodes:
                    continue
                lo, hi = new_graph.edge_range(int(v))
                totals[v] = (
                    float(np.asarray(new_graph.edge_weight_at(np.arange(lo, hi))).sum())
                    if hi > lo
                    else 0.0
                )
            self.row_totals = totals
        return info

    def memory_bytes(self) -> int:
        return self.proposal.memory_bytes() + self.edge_filter_bytes


class _MHStepper(StepperBase):
    """Algorithm 1 on arrays — the paper's M-H edge sampler, vectorized."""

    name = "mh"
    alpha_filter = True

    def __init__(self, graph, model, ctx):
        super().__init__(graph, model, ctx.kernels)
        # a canonical registry name (the config resolved it), or a bound
        # initializer instance, whose scalar protocol is used directly
        initializer = ctx.initializer
        named = isinstance(initializer, str)
        self.strategy = initializer if named else getattr(initializer, "name", "custom")
        # built-ins have dedicated vectorized kernels below
        builtin = named and initializer in ("random", "high-weight", "burn-in")
        self.custom_initializer = None if builtin else make_initializer(initializer)
        self.init_sample_cap = ctx.init_sample_cap
        self.burn_in_iterations = ctx.burn_in_iterations
        # the compiled wave runs the built-in high-weight initializer and
        # the two built-in chain layouts (a node's chain, an edge's chain)
        self.wave_kernel = (
            hasattr(self.kernels, "mh_wave")
            and self.strategy == "high-weight"
            and self.custom_initializer is None
            and type(model).batch_state_index is RandomWalkModel.batch_state_index
        )
        self._build(ctx)

    def _build(self, ctx) -> None:
        self.chains = ctx.chain_store
        if self.chains is None:
            if ctx.budget is not None:
                ctx.budget.charge(mh_bytes(self.graph, self.model), self.name)
            self.chains = ChainStore(self.graph, self.model)

    def _extend_kernel_state(self, ks: KernelState) -> None:
        ks.chain_last = self.chains.last
        ks.chain_last_w = self.chains.last_w

    def run_wave(self, starts, walk_length, walks, row_base, rng) -> np.ndarray:
        """The base loop, or its M-H steps in one call of ``kernels.mh_wave``.

        Step 0 of a second-order walk stays in Python (``first_step``);
        the kernel draws from ``rng``'s own BitGenerator what
        :meth:`step` would, so the result is the base loop's bit for bit.
        """
        self.wave_threads = 0
        if not self.wave_kernel:
            return super().run_wave(starts, walk_length, walks, row_base, rng)
        rows = walks[row_base : row_base + starts.size]
        first = min(self.model.order - 1, walk_length - 1)
        lengths, lanes = self._lockstep(starts, first, rows, 0, rng)
        if lanes[0].size:
            n_ok, n_acc, n_init, init_seconds, self.wave_threads = self.kernels.mh_wave(
                self.kernel_state, self.model.order, self.init_sample_cap, rng,
                lanes, first, rows, lengths,
            )
            self.proposals += n_ok
            self.samples += n_ok
            self.accepts += n_acc
            self.initializations += n_init
            self.init_seconds += init_seconds
        return lengths

    # -- draw half -------------------------------------------------------
    def step(self, prev, prev_off, cur, step, rng):
        m = self.begin(prev, prev_off, cur, step)
        uninit = m["uninit"]
        if uninit.any():
            t0 = time.perf_counter()
            self._draw_init(m, cur[uninit], rng)
            self.initializations += int(uninit.sum())
            self.init_seconds += time.perf_counter() - t0
        # Algorithm 1: uniform candidate, acceptance min(1, w'_cand/w'_last).
        # Both uniforms are pre-drawn (weight evaluation consumes no RNG),
        # so every kernel backend sees the identical stream.
        u_cand = rng.random(cur.size)
        u_acc = rng.random(cur.size)
        nxt, n_ok, n_acc = self.finish(m, u_cand, u_acc)
        self.proposals += n_ok
        self.accepts += n_acc
        self.samples += n_ok
        return nxt

    def _draw_init(self, m, cur0, rng) -> None:
        """Draw a fresh-chain initializer's uniforms in its canonical order.

        ``cur0`` are the nodes of the uninitialised lanes. high-weight
        takes one ``(lanes, cap)`` block; random takes one lane draw plus
        one support draw per edge entry of the lanes that landed on zero
        weight; burn-in follows random with two lane draws per iteration,
        drawn iteration by iteration.
        """
        if self.custom_initializer is not None:
            m["init"] = self._init_custom(*self._fresh(m), rng)
            return
        n = cur0.size
        if self.strategy == "high-weight":
            cap = self.init_sample_cap
            self.init_high_weight(m, None if cap is None else rng.random((n, cap)))
            return
        bad = self.init_random(m, rng.random(n))
        if bad.any():
            __, deg = self._rows(cur0[bad])
            self.init_support(m, rng.random(int(deg.sum())))
        if self.strategy == "burn-in":
            self.init_burn_in(
                m, ((rng.random(n), rng.random(n)) for __ in range(self.burn_in_iterations))
            )

    def _init_custom(self, prev0, prev_off0, cur0, step, rng):
        """Registered third-party strategies run their scalar protocol.

        One ``initialize(graph, model, state, rng)`` call per fresh
        chain — slower than the vectorized built-ins but each state is
        initialised only once, so the cost is O(#state) overall. The
        strategy draws from ``rng`` itself, so this is the one
        initializer with no apply half (and none on shard workers).
        """
        from repro.walks.state import WalkerState

        out = np.empty(cur0.size, dtype=np.int64)
        for i in range(cur0.size):
            state = WalkerState(
                current=int(cur0[i]),
                previous=int(prev0[i]),
                prev_edge_offset=int(prev_off0[i]),
                step=int(step[i]) if isinstance(step, np.ndarray) else int(step),
            )
            out[i] = self.custom_initializer.initialize(self.graph, self.model, state, rng)
        return out

    # -- apply half: begin -> init_* -> finish over one scratch dict ------
    def begin(self, prev, prev_off, cur, step) -> dict:
        """Gather the lanes' chains; ``["uninit"]`` marks the fresh ones."""
        __, deg = self._rows(cur)
        alive = deg > 0
        idx = self.model.batch_state_index(prev_off, cur, step)
        last = self.chains.last[idx].copy()
        return {
            "lanes": (prev, prev_off, cur, step),
            "alive": alive,
            "idx": idx,
            "last": last,
            "last_w": self.chains.last_w[idx].copy(),
            "uninit": (last == NO_EDGE) & alive,
        }

    @staticmethod
    def _fresh(m):
        """The uninitialised lanes of a :meth:`begin` scratch."""
        prev, prev_off, cur, step = m["lanes"]
        uninit = m["uninit"]
        return prev[uninit], prev_off[uninit], cur[uninit], step

    def finish(self, m, u_cand, u_acc):
        """Propose + accept + scatter; returns ``(next, n_ok, n_accepted)``.

        The kernel fuses the LAST_x/weight scatter back into the shared
        chain arrays (lane order, so duplicate-state races resolve
        last-writer-wins for the *pair* on every backend).
        """
        last, last_w, uninit = m["last"], m["last_w"], m["uninit"]
        if uninit.any():
            last[uninit] = m["init"]
            last_w[uninit] = np.nan  # fresh chains have no cached weight
        dead = ~m["alive"] | (last == NO_EDGE)
        if dead.all():
            # nothing proposes (and an edgeless shard has no row to index)
            return np.full(dead.size, NO_EDGE, dtype=np.int64), 0, 0
        prev, prev_off, cur, step = m["lanes"]
        return self.kernels.mh_step(
            self.kernel_state,
            m["idx"],
            prev,
            cur,
            last,
            last_w,
            dead,
            u_cand,
            u_acc,
            self._weight_fn(prev, prev_off, cur, step),
        )

    def _batch_weights(self, prev0, prev_off0, cur0, step, offs):
        """Model weight of aligned candidate lanes, through the kernels.

        A compiled backend evaluates its weight rule in one pass (the
        initializers' inner product — on second-order models each
        candidate costs a binary search); the NumPy backend defers to
        ``model.batch_dynamic_weight`` via the ``weight_fn`` closure.
        """
        return self.kernels.dyn_weights(
            self.kernel_state, prev0, offs,
            self._weight_fn(prev0, prev_off0, cur0, step),
        )

    def init_random(self, m, u1):
        """Uniform slot per fresh chain; returns the lanes of zero weight."""
        prev0, prev_off0, cur0, step = self._fresh(m)
        lo, deg = self._rows(cur0)
        m["init"] = lo + (u1 * np.maximum(deg, 1)).astype(np.int64)
        m["bad"] = self._batch_weights(prev0, prev_off0, cur0, step, m["init"]) <= 0.0
        return m["bad"]

    def init_support(self, m, u_flat) -> None:
        """Repair zero-weight random inits: uniform over the row's support."""
        prev0, prev_off0, cur0, step = self._fresh(m)
        bad = m["bad"]
        __, ___, ____, weights = self._expanded_row_weights(
            prev0[bad], prev_off0[bad], cur0[bad], step
        )
        m["init"][bad] = self._race(cur0[bad], (weights > 0.0).astype(np.float64), u_flat)

    def init_high_weight(self, m, u) -> None:
        """Best of ``cap`` candidates from the ``(lanes, cap)`` block ``u``.

        ``u=None`` (no cap) takes the exact row argmax instead.
        """
        prev0, prev_off0, cur0, step = self._fresh(m)
        if u is None:
            m["init"] = self._exact_argmax(prev0, prev_off0, cur0, step)
            return
        cap = u.shape[1]

        def flat_weight_fn(offs, lanes=None):
            # only the NumPy backend calls this; the repeats stay lazy so
            # compiled backends (which read prev0 directly) skip them
            step_arr = np.repeat(step, cap) if isinstance(step, np.ndarray) else step
            wf = self._weight_fn(
                np.repeat(prev0, cap), np.repeat(prev_off0, cap),
                np.repeat(cur0, cap), step_arr,
            )
            return wf(offs, lanes)

        result, w_best = self.kernels.mh_init_select(
            self.kernel_state, prev0, cur0, u, flat_weight_fn
        )
        bad = w_best <= 0.0
        if bad.any():
            # subsample may have missed the support entirely; fall back to
            # the exact row argmax for those few states
            result[bad] = self._exact_argmax(prev0[bad], prev_off0[bad], cur0[bad], step)
        m["init"] = result

    def init_burn_in(self, m, draws) -> None:
        """Run the fresh chains over ``draws``: ``(u_cand, u_acc)`` per iteration."""
        prev0, prev_off0, cur0, step = self._fresh(m)
        lo, deg = self._rows(cur0)
        last = m["init"]
        w_last = self._batch_weights(prev0, prev_off0, cur0, step, np.maximum(last, 0))
        for u_cand, u_acc in draws:
            cand = lo + (u_cand * np.maximum(deg, 1)).astype(np.int64)
            w_cand = self._batch_weights(prev0, prev_off0, cur0, step, cand)
            accept = (w_cand > 0.0) & ((w_last <= 0.0) | (u_acc * w_last < w_cand))
            last = np.where(accept & (last != NO_EDGE), cand, last)
            w_last = np.where(accept, w_cand, w_last)
        m["init"] = last

    def _exact_argmax(self, prev0, prev_off0, cur0, step):
        __, ___, deg, weights = self._expanded_row_weights(prev0, prev_off0, cur0, step)
        lo = self.graph.offsets[cur0]
        pos = segment_argmax(weights, deg)
        good = np.zeros(cur0.size, dtype=bool)
        flat_best = (lo + np.maximum(pos, 0)).astype(np.int64)
        if weights.size:
            best_w = self.model.batch_dynamic_weight(prev0, prev_off0, cur0, step, flat_best)
            good = (pos >= 0) & (best_w > 0.0)
        return np.where(good, flat_best, NO_EDGE)

    def _refresh(self, plan) -> dict:
        # no tables: the whole refresh is one vectorized remap of LAST_x
        return self.chains.on_delta(plan, self.model)

    def memory_bytes(self) -> int:
        return self.chains.memory_bytes() + self.edge_filter_bytes


def _alias_stepper_factory(graph, model, ctx):
    # static models collapse the per-state tables to one table per node
    cls = _FirstOrderAliasStepper if model.is_static else _StateAliasStepper
    return cls(graph, model, ctx)


SAMPLER_REGISTRY.register(
    "mh",
    _MHStepper,
    aliases=("metropolis-hastings",),
    second_order=True,
    uses_initializer=True,
    time_per_sample="O(1)",
    memory="O(#state)",
)
SAMPLER_REGISTRY.register(
    "direct",
    _DirectStepper,
    second_order=True,
    time_per_sample="O(d)",
    memory="O(1)",
)
SAMPLER_REGISTRY.register(
    "alias",
    _alias_stepper_factory,
    second_order=True,
    time_per_sample="O(1)",
    memory="O(d * #state)",
)
SAMPLER_REGISTRY.register(
    "alias-first-order",
    _FirstOrderAliasStepper,
    second_order=False,
    time_per_sample="O(1)",
    memory="O(|E|)",
)
SAMPLER_REGISTRY.register(
    "rejection",
    lambda graph, model, ctx: _RejectionStepper(graph, model, ctx, fold=False),
    second_order=True,
    time_per_sample="O(1/theta)",
    memory="O(|E|)",
)
SAMPLER_REGISTRY.register(
    "knightking",
    lambda graph, model, ctx: _RejectionStepper(graph, model, ctx, fold=True),
    second_order=True,
    time_per_sample="O(1/theta')",
    memory="O(|E|)",
)
SAMPLER_REGISTRY.register(
    "memory-aware",
    _MemoryAwareStepper,
    second_order=True,
    needs_table_budget=True,
    time_per_sample="mixed",
    memory="<= budget",
)


def resolve_kernels(backend, model):
    """The kernel backend instance a model's steppers run on.

    A compiled backend that cannot evaluate the model's weight rule (a
    *generic* ``kernel_spec``) falls back to NumPy, the one backend that
    can. The monolithic engine, the sharded driver and every shard
    worker resolve ``config.backend`` through here, so they agree on the
    effective backend.
    """
    kernels = resolve_backend(backend)
    if not kernels.supports(model.kernel_spec()):
        kernels = default_backend()
    return kernels


class VectorizedWalkEngine:
    """Lock-step walk generation for any model × sampler combination.

    Parameters
    ----------
    graph:
        CSR network.
    model:
        Bound model instance or registry name.
    config:
        The :class:`~repro.config.WalkConfig` the engine is built from
        and keeps as :attr:`config` (its defaults when omitted): every
        walk knob, its default and its check are declared there alone.
    chain_store, budget:
        Live objects a config cannot hold: a persistent
        :class:`~repro.walks.manager.ChainStore` to walk on, and a
        :class:`~repro.sampling.memory_model.MemoryBudget` the sampler's
        footprint is charged to at construction (simulated OOM).
    keywords:
        A ``WalkConfig`` field name (``sampler=``, also positionally,
        ``initializer=``, ``init_sample_cap=``, ``backend=``, ...)
        replaces that field; anything else goes to the model constructor
        (``p``, ``q``, ``metapath``, ...). A value the config refuses raises
        :class:`~repro.errors.WalkError` here, before any sampler
        structure is built.

    Requesting the compiled backend on a host without a C compiler
    raises :class:`~repro.errors.ConfigError`; a compiled backend that
    cannot evaluate the model's weight rule (a *generic* ``kernel_spec``)
    silently falls back to NumPy — ``stats()`` reports both
    ``requested_backend`` and the effective ``backend``.

    The constructor performs all sampler preprocessing; its duration is
    exposed as :attr:`setup_seconds` and lazily accrued M-H
    initialization time as ``stats()["init_seconds"]`` — together they
    form the paper's ``Ti``. One-time kernel compilation is booked
    separately as :attr:`compile_seconds` (also inside
    ``setup_seconds``), so walks/sec comparisons can exclude warm-up.
    """

    def __init__(
        self, graph, model, sampler=None, *, config=None, chain_store=None, budget=None,
        seed=None, **keywords,
    ):
        self.config = take_fields(config or WalkConfig(), keywords, sampler=sampler)
        self.graph = graph
        self.model = make_model(model, graph, **keywords)
        start = time.perf_counter()
        self.kernels = kernels = resolve_kernels(self.config.backend, self.model)
        self.backend = kernels.name
        self.compile_seconds = float(kernels.warmup())
        ctx = SamplerContext(self.config, kernels=kernels, chain_store=chain_store, budget=budget)
        self.stepper = SAMPLER_REGISTRY.get(self.config.sampler)(graph, self.model, ctx)
        self.setup_seconds = time.perf_counter() - start
        self.rng = as_rng(seed)

    # ------------------------------------------------------------------
    def generate(self, num_walks=None, walk_length=None, start_nodes=None) -> WalkCorpus:
        """Run ``num_walks`` waves of walks with ``walk_length`` nodes each.

        ``None`` reads the shape off :attr:`config`. Every valid start
        node launches one walker per wave (Algorithm 2's outer loops).
        Walks may end early at dead ends; the corpus records actual
        lengths.
        """
        shape = self.config.reshaped(num_walks, walk_length)
        num_walks, walk_length = shape.num_walks, shape.walk_length
        starts = self._resolve_starts(start_nodes)
        walks = np.full((num_walks * starts.size, walk_length), -1, dtype=np.int64)
        lengths = np.empty(num_walks * starts.size, dtype=np.int64)
        for wave in range(num_walks):
            base = wave * starts.size
            lengths[base : base + starts.size] = self._run_wave(
                starts, walk_length, walks, base
            )
        return WalkCorpus(walks, lengths)

    def generate_stream(
        self, num_walks=None, walk_length=None, start_nodes=None, *, shard_walks: int | None = None
    ):
        """Yield the walk corpus as a stream of bounded shards.

        Same walk semantics as :meth:`generate`, but instead of one
        monolithic matrix the walks arrive as :class:`WalkCorpus` shards
        of at most ``shard_walks`` rows (default: one full wave per
        shard), so a consumer can train on each shard while only
        O(shard) corpus bytes are resident. With ``shard_walks=None``
        the shard boundaries fall on wave boundaries and the RNG
        consumption is identical to :meth:`generate` — merging the
        stream reproduces the monolithic corpus exactly.
        """
        shape = self.config.reshaped(num_walks, walk_length)
        num_walks, walk_length = shape.num_walks, shape.walk_length
        if shard_walks is not None and shard_walks < 1:
            raise WalkError("shard_walks must be >= 1")
        starts = self._resolve_starts(start_nodes)
        chunk = starts.size if shard_walks is None else min(shard_walks, starts.size)
        for __ in range(num_walks):
            for lo in range(0, starts.size, chunk):
                part = starts[lo : lo + chunk]
                walks = np.full((part.size, walk_length), -1, dtype=np.int64)
                lengths = self._run_wave(part, walk_length, walks, 0)
                yield WalkCorpus(walks, lengths)

    def _resolve_starts(self, start_nodes) -> np.ndarray:
        """The model's start nodes, or the caller's: integer ids in
        ``[0, num_nodes)`` (NumPy would wrap -1 and truncate 1.7)."""
        if start_nodes is None:
            starts = self.model.valid_start_nodes()
        else:
            starts = np.asarray(start_nodes)
            # (an empty list arrives as float64: it is refused below, as empty)
            if starts.size and not np.issubdtype(starts.dtype, np.integer):
                raise WalkError(f"start_nodes must be integer node ids, got dtype {starts.dtype}")
            starts = starts.astype(np.int64)
            bad = np.flatnonzero((starts < 0) | (starts >= self.graph.num_nodes))
            if bad.size:
                raise WalkError(
                    f"start node {int(starts[bad[0]])} is outside [0, {self.graph.num_nodes})"
                )
        if starts.size == 0:
            raise WalkError("no valid start nodes for this model/graph")
        return starts

    def _run_wave(self, starts, walk_length, walks, row_base) -> np.ndarray:
        return self.stepper.run_wave(starts, walk_length, walks, row_base, self.rng)

    # ------------------------------------------------------------------
    def apply_delta(self, delta):
        """Mutate the engine's graph and refresh sampler state in place.

        ``delta`` is a :class:`~repro.graph.delta.GraphDelta` (applied
        here) or a prebuilt :class:`~repro.graph.delta.DeltaPlan` whose
        ``old_graph`` is this engine's current graph. The model is
        rebound first, then the stepper revalidates only what the delta
        touched — M-H remaps its chain array; table-based samplers
        rebuild affected tables (costs visible in ``stats()`` under
        ``rebuilt_nodes`` / ``rebuild_cost_bytes`` /
        ``invalidated_states`` / ``delta_seconds``). Returns the new
        graph.
        """
        from repro.graph.delta import DeltaPlan

        if isinstance(delta, DeltaPlan):
            plan = delta
            if plan.old_graph is not self.graph:
                raise WalkError("DeltaPlan.old_graph is not this engine's graph")
        else:
            plan = DeltaPlan.build(self.graph, delta)
        self.model.rebind(plan.new_graph)
        self.graph = plan.new_graph
        self.stepper.model = self.model
        self.stepper.on_delta(plan)
        return plan.new_graph

    def stats(self) -> dict:
        """Sampler counters plus engine setup/backend bookkeeping."""
        out = self.stepper.stats()
        out["setup_seconds"] = self.setup_seconds
        out["backend"] = self.backend
        out["requested_backend"] = self.config.backend
        out["wave_kernel"] = self.stepper.wave_kernel
        out["wave_threads"] = self.stepper.wave_threads
        out["edge_filter_bytes"] = self.stepper.edge_filter_bytes
        out["compile_seconds"] = self.compile_seconds
        return out

    def memory_bytes(self) -> int:
        """Persistent sampler bytes (chains / tables / proposals)."""
        return self.stepper.memory_bytes()
