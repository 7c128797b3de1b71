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
backend has one and the initializer is the built-in ``high-weight``
(:class:`~repro.sampling.initialization.HighWeightInit`, not a strategy
registered over its name). The other samplers, third-party steppers,
the NumPy backend, the other initializers, step 0 of a second-order
walk (its race keys are NumPy's ``np.log1p``, which need not match libm
to the last bit; the index work around them is the backend's) and the
sharded driver (it fans every step out) keep the base loop;
``stats()["wave_kernel"]`` says which ran and ``["wave_threads"]`` on
how many threads the last wave did (0: the base loop).

A stepper's ``step`` draws its uniforms and applies them in one piece,
and so does :meth:`StepperBase.first_step`. The one split left is M-H's:
``_MHStepper.step`` draws, and ``begin`` -> ``init_high_weight`` ->
``finish`` apply the draws as pure functions of them, so that the shard
workers of :mod:`repro.sharding` can apply, on their local graphs, the
uniforms the sharded driver drew.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import WalkConfig, check_counts, take_fields
from repro.errors import WalkError
from repro.registry import INITIALIZER_REGISTRY, SAMPLER_REGISTRY, SamplerContext
from repro.sampling.alias import AliasTables
from repro.sampling.base import NO_EDGE
from repro.sampling.initialization import HighWeightInit
from repro.sampling.memory_aware import assign_states_greedily
from repro.sampling.memory_model import (
    first_order_alias_bytes,
    mh_bytes,
    rejection_bytes,
    second_order_alias_bytes,
)
from repro.tokens import TOKEN_DTYPE, TOKEN_LIMIT
from repro.utils.rng import as_rng
from repro.walks._segments import race_keys, segment_argmax
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

    Steppers build their structures in ``_build(ctx)``; step 0 of a
    second-order walk is :meth:`first_step`, shared by all of them.
    ``_MHStepper`` alone splits its ``step`` into a drawing half and an
    applying half (``begin`` -> ``init_high_weight`` -> ``finish``): the
    sharded driver (:mod:`repro.sharding`) inherits the drawing half and
    runs the applying half on its shard workers, which is why the
    sharded corpus equals this engine's bit for bit.
    """

    name = "abstract"
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
        self._extend_kernel_state(ks)
        return ks

    @property
    def edge_filter_bytes(self) -> int:
        """Bytes of the graph's adjacency filter, which a second-order
        weight probes (0 for a first-order model)."""
        return self.graph.edge_filter().nbytes if self.model.order == 2 else 0

    def _probed_filter_bytes(self) -> int:
        """:attr:`edge_filter_bytes` where compiled kernels probe it per
        draw (:meth:`memory_bytes`); NumPy probes it through the graph."""
        return self.edge_filter_bytes if self.kernels.compiled else 0

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

    def _row_weights(self, cur, prev=None, prev_off=None, step=0):
        """The dynamic weight of every edge entry of each lane's row, the
        rows end to end: the one whole-row evaluation, the backend's
        ``row_offsets`` and ``dyn_weights``. ``prev=None`` is step 0 of a
        walk, which has no previous edge."""
        lo, deg = self._rows(cur)
        flat_offs = self.kernels.row_offsets(lo, deg)
        if flat_offs.size == 0:
            return np.empty(0, dtype=np.float64)
        first = prev is None
        prev_flat = np.full(flat_offs.size, -1, dtype=np.int64) if first else np.repeat(prev, deg)

        def weight_fn(offs, lanes=None):
            # only the NumPy backend calls this: compiled ones skip the repeats
            prev_off_flat = prev_flat if first else np.repeat(prev_off, deg)
            step_flat = np.repeat(step, deg) if isinstance(step, np.ndarray) else step
            return self._weight_fn(prev_flat, prev_off_flat, np.repeat(cur, deg), step_flat)(offs, lanes)

        return self.kernels.dyn_weights(self.kernel_state, prev_flat, flat_offs, weight_fn)

    def _race(self, cur, weights, u_flat):
        """Exact draw ∝ ``weights`` within each walker's row.

        ``weights``/``u_flat`` hold one entry per edge entry of the
        rows of ``cur``, flattened; every entry's race key depends on
        its own (weight, uniform) pair only.
        """
        lo, deg = self._rows(cur)
        pos = self.kernels.race_argmin(race_keys(weights, u_flat), deg)
        return np.where(pos >= 0, lo + pos, NO_EDGE)

    # the wave loop ----------------------------------------------------
    def run_wave(self, starts, walk_length, walks, row_base, rng) -> np.ndarray:
        """Walk one wave in lock-step; returns the walks' token counts.

        One walker per entry of ``starts`` writes row ``row_base + i`` of
        ``walks`` (a ``TOKEN_DTYPE`` matrix pre-filled with -1). This is
        the only wave loop in Python: every sampler, the NumPy backend and
        the sharded driver run it, and a compiled wave kernel must equal
        it bit for bit.
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
        """Step 0 of a second-order walk: an exact draw from the model's
        start-state law, one uniform per edge entry.

        With no previous edge the models define α = 1, which reduces to
        the static distribution for node2vec/edge2vec but keeps
        fairwalk's group discounting — so the exact draw goes through the
        model kernel rather than the raw static weights. The rows' flat
        offsets and each row's race winner are the backend's
        (``row_offsets`` / ``race_argmin``); the race keys are NumPy's.
        """
        weights = self._row_weights(cur)
        return self._race(cur, weights, rng.random(weights.size))

    def _reject_pending(self, out, pending, lanes, rng, bound, clip=False, split=None):
        """The pending-set loop: draw a round's uniforms until every lane accepts.

        Each round proposes from the stepper's static-weight tables,
        ``self.proposal``. ``split(pending)``, when given, runs first in
        each round, settles some lanes itself (KnightKing's outlier
        branch) and returns the rest. Accepted offsets land in ``out``;
        returns the number of proposals made. The caller's class sets
        ``self.proposal`` and ``self.max_rounds``.
        """
        prev, prev_off, cur, step = lanes
        proposal = self.proposal
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
            u_keep = None if proposal.uniform else rng.random(pending.size)
            u_acc = rng.random(pending.size)
            off, accept = self.kernels.rejection_round(
                self.kernel_state, proposal, prev[pending], cur[pending], u_prop, u_keep,
                u_acc, bound, clip, self._weight_fn(prev, prev_off, cur, step, sel=pending),
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
        """Counter snapshot (basis of the acceptance-ratio tables): here
        ``acceptance_ratio`` is ``samples / proposals``, the share of
        proposals that became a step; :class:`_MHStepper` overrides it."""
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
        weights = self._row_weights(cur, prev, prev_off, step)
        out = self._race(cur, weights, rng.random(weights.size))
        self.proposals += cur.size
        self.samples += int((out != NO_EDGE).sum())
        return out


class _AliasStepper(StepperBase):
    """Alias tables, one per walker state (UniNet(Orig) for node2vec).

    A static model's states are its nodes and its weights the graph's,
    so its tables are the per-node static form of
    :class:`~repro.sampling.alias.AliasTables`: none on an unweighted
    graph, where a draw takes one uniform instead of two.
    """

    name = "alias"

    def __init__(self, graph, model, ctx):
        super().__init__(graph, model, ctx.kernels)
        self._build(ctx)

    def _build(self, ctx) -> None:
        static = self.model.is_static
        if ctx.budget is not None:
            cost = (
                first_order_alias_bytes(self.graph)
                if static
                else second_order_alias_bytes(self.graph, self.model)
            )
            ctx.budget.charge(cost, self.name)
        self.tables = AliasTables(self.graph, None if static else self.model)
        self.initializations += self.tables.num_tables

    def step(self, prev, prev_off, cur, step, rng):
        # the slot's uniform, then the threshold's where tables exist
        u_slot = rng.random(cur.size)
        u_keep = None if self.tables.uniform else rng.random(cur.size)
        idx = self.model.batch_state_index(prev_off, cur, step)
        out = self.kernels.alias_draw(self.kernel_state, self.tables, idx, cur, u_slot, u_keep)
        self.proposals += cur.size
        self.samples += int((out != NO_EDGE).sum())
        return out

    def _refresh(self, plan) -> dict:
        info = self.tables.on_delta(plan, self.model)
        self.initializations += int(info.get("rebuilt_states", 0))
        return info

    def memory_bytes(self) -> int:
        return self.tables.memory_bytes()


def _first_order_alias(graph, model, ctx):
    """``alias-first-order``: the alias stepper, refused on a non-static model."""
    if not model.is_static:
        raise WalkError(
            f"first-order alias sampling is exact only for static models; "
            f"{model.name} has state-dependent weights (use sampler='alias')"
        )
    return _AliasStepper(graph, model, ctx)


class _MemoryAwareStepper(_AliasStepper):
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
        self.tables = AliasTables(graph, self.model, state_mask=self.assigned)
        self.initializations += self.tables.num_tables
        self.proposal = AliasTables(graph)

    def _refresh(self, plan) -> dict:
        # the greedy assignment is a global function of the degree
        # distribution, so mutation triggers a full reassign + rebuild —
        # the honest per-update price of this baseline
        dropped = self.tables.num_tables
        self._assign(plan.new_graph)
        return {
            "rebuilt_nodes": plan.new_graph.num_nodes,
            # what was rebuilt: the graph's adjacency filter is not
            "rebuild_cost_bytes": self.tables.memory_bytes() + self.proposal.memory_bytes(),
            "invalidated_states": dropped,
        }

    def step(self, prev, prev_off, cur, step, rng):
        out = super().step(prev, prev_off, cur, step, rng)
        # everything without a table (unassigned or zero-weight state)
        # falls back to rejection sampling
        __, deg = self._rows(cur)
        pending = np.flatnonzero((out == NO_EDGE) & (deg > 0))
        self._reject_pending(
            out, pending, (prev, prev_off, cur, step), rng, self.model.alpha_bound(self.graph)
        )
        self.samples += int((out[pending] != NO_EDGE).sum())
        return out

    def memory_bytes(self) -> int:
        return (
            self.tables.memory_bytes() + self.proposal.memory_bytes() + self._probed_filter_bytes()
        )


class _RejectionStepper(StepperBase):
    """Vectorized rejection sampling, optionally with outlier folding.

    Proposes from the static-weight distribution and accepts edge e with
    probability ``w'(e) / (bound * w(e))``: O(1/θ) per sample, with θ
    collapsing as the dynamic weights leave the static ones (Table II).
    KnightKing's folding takes enumerable outliers (node2vec's return
    edge under a small p) out of the loop: their excess mass above a
    tighter bulk bound is drawn exactly, the bulk is rejection-sampled
    under that bound, and the mixture is still exactly w'. Models that
    cannot enumerate their outliers (edge2vec, fairwalk) fall back to
    plain rejection.
    """

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
        self.proposal = AliasTables(self.graph)

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
            # the constructor's sums, so a refreshed engine walks as a fresh one
            self.row_totals = plan.new_graph.weight_row_sums()
        return info

    def memory_bytes(self) -> int:
        return self.proposal.memory_bytes() + self._probed_filter_bytes()


class _MHStepper(StepperBase):
    """Algorithm 1 on arrays — the paper's M-H edge sampler, vectorized.

    One chain per walker state, with the uniform distribution over the
    current node's edges as the proposal. The proposal is symmetric, so
    the acceptance ratio is ``min(1, w'(candidate) / w'(LAST_x))``: no
    normalising constant and no table, only ``LAST_x`` (and its cached
    weight) per state. Theorem 2: the uniform proposal converges for any
    target law. Fresh chains take their first edges from the registered
    initializer's ``init_chains``, all of one step's at once.
    """

    name = "mh"

    def __init__(self, graph, model, ctx):
        super().__init__(graph, model, ctx.kernels)
        # the config resolved the name; the stepper calls the registered
        # strategy class itself (sampling/initialization.py)
        self.initializer = INITIALIZER_REGISTRY.get(ctx.initializer)
        if not callable(getattr(self.initializer, "init_chains", None)):
            raise WalkError(
                f"initializer {ctx.initializer!r} has no init_chains(stepper, m, rng); "
                "see repro.sampling.initialization for the protocol"
            )
        self.init_sample_cap = ctx.init_sample_cap
        self.burn_in_iterations = ctx.burn_in_iterations
        # the compiled wave runs the built-in high-weight strategy and
        # the two built-in chain layouts (a node's chain, an edge's chain)
        self.wave_kernel = (
            hasattr(self.kernels, "mh_wave")
            and self.initializer is HighWeightInit
            and type(model).batch_state_index is RandomWalkModel.batch_state_index
        )
        self._build(ctx)

    def _build(self, ctx) -> None:
        self.chains = ctx.chain_store
        if self.chains is None:
            if ctx.budget is not None:
                ctx.budget.charge(mh_bytes(self.graph, self.model), self.name)
            self.chains = ChainStore(self.graph, self.model)
        elif self.chains.size != self.model.state_space_size(self.graph):
            raise WalkError(
                f"chain_store holds {self.chains.size:,} chains; the "
                f"{self.model.name} state space has "
                f"{self.model.state_space_size(self.graph):,}"
            )

    def _extend_kernel_state(self, ks: KernelState) -> None:
        ks.chain_last = self.chains.last
        ks.chain_last_w = self.chains.last_w

    def run_wave(self, starts, walk_length, walks, row_base, rng) -> np.ndarray:
        """The base loop, or its M-H steps in one call of ``kernels.mh_wave``.

        Step 0 of a second-order walk stays in Python (``first_step``,
        its index work in the backend's C); the kernel draws from
        ``rng``'s own BitGenerator what :meth:`step` would, so the
        result is the base loop's bit for bit.
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

    def step(self, prev, prev_off, cur, step, rng):
        m = self.begin(prev, prev_off, cur, step)
        uninit = m["uninit"]
        if uninit.any():
            t0 = time.perf_counter()
            self._draw_init(m, rng)
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

    def stats(self) -> dict:
        """A rejected M-H step still emits a sample (the chain stays on
        ``LAST_x``), so the acceptance ratio counts accepted proposals."""
        out = super().stats()
        out["acceptance_ratio"] = (self.accepts / self.proposals) if self.proposals else 1.0
        return out

    def _draw_init(self, m, rng) -> None:
        """Set ``m["init"]``, the first edge of each fresh chain in ``m``,
        by the initializer's batch protocol ``init_chains``."""
        m["init"] = self.initializer.init_chains(self, m, rng)

    # -- begin -> init_high_weight -> finish: one scratch dict, run on the
    # shard workers by the sharded driver ---------------------------------
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
    def fresh_lanes(m):
        """``(prev, prev_off, cur, step)`` of the fresh lanes of a :meth:`begin` scratch."""
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

    def lane_weights(self, prev0, prev_off0, cur0, step, offs):
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

    def uniform_support(self, prev0, prev_off0, cur0, step, rng):
        """A uniform draw among each lane's positive-weight edges
        (``NO_EDGE``: none), one uniform per edge entry of the rows."""
        weights = self._row_weights(cur0, prev0, prev_off0, step)
        return self._race(cur0, (weights > 0.0).astype(np.float64), rng.random(weights.size))

    def init_high_weight(self, m, u) -> np.ndarray:
        """First edges of the fresh chains of ``m``: the best of ``cap``
        candidates from the ``(lanes, cap)`` block ``u``.

        ``u=None`` (no cap) takes the exact row argmax instead.
        """
        prev0, prev_off0, cur0, step = self.fresh_lanes(m)
        if u is None:
            return self._exact_argmax(prev0, prev_off0, cur0, step)
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
        return result

    def _exact_argmax(self, prev0, prev_off0, cur0, step):
        """Each lane's first heaviest edge, ``NO_EDGE`` where its row has no
        positive weight."""
        lo, deg = self._rows(cur0)
        weights = self._row_weights(cur0, prev0, prev_off0, step)
        pos = segment_argmax(weights, deg)
        good = pos >= 0
        good[good] = weights[(np.cumsum(deg) - deg + pos)[good]] > 0.0
        return np.where(good, lo + pos, NO_EDGE)

    def _refresh(self, plan) -> dict:
        # no tables: the whole refresh is one vectorized remap of LAST_x
        return self.chains.on_delta(plan, self.model)

    def memory_bytes(self) -> int:
        return self.chains.memory_bytes() + self._probed_filter_bytes()


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
    _AliasStepper,
    second_order=True,
    time_per_sample="O(1)",
    memory="O(d * #state)",
)
SAMPLER_REGISTRY.register(
    "alias-first-order",
    _first_order_alias,
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


def check_node_ids(graph) -> None:
    """Refuse a graph whose node ids a walk token cannot hold.

    Both engines run this before they touch anything else of the graph:
    the corpus stores ids as :data:`~repro.tokens.TOKEN_DTYPE`, and an
    id past it would wrap without a word.
    """
    if graph.num_nodes >= TOKEN_LIMIT:
        raise WalkError(
            f"the graph has {graph.num_nodes:,} nodes, more than {TOKEN_DTYPE} walk "
            f"tokens can name (at most {TOKEN_LIMIT - 1:,} nodes)"
        )


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
        check_node_ids(graph)
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
        walks = np.full((num_walks * starts.size, walk_length), -1, dtype=TOKEN_DTYPE)
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
        if shard_walks is not None:
            check_counts({"shard_walks": shard_walks})
        starts = self._resolve_starts(start_nodes)
        chunk = starts.size if shard_walks is None else min(shard_walks, starts.size)
        for __ in range(num_walks):
            for lo in range(0, starts.size, chunk):
                part = starts[lo : lo + chunk]
                walks = np.full((part.size, walk_length), -1, dtype=TOKEN_DTYPE)
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
