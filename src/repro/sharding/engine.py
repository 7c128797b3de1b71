"""Sharded walk engine: one driver, one RNG, one worker per shard.

:class:`ShardedWalkEngine` *is* a
:class:`~repro.walks.vectorized.VectorizedWalkEngine`: same wave loop,
same counters, and as its stepper the very stepper class the monolithic
engine would build — with one half swapped. The built-in steppers keep
"draw the uniforms" and "apply them" apart (see
:class:`~repro.walks.vectorized.StepperBase`); the driver's stepper
inherits the draw half untouched and overrides only the apply half, to
slice each batch of uniforms by lane ownership and fan it out to the
shard workers, who run the same apply methods on their local CSR. The
driver keeps the full graph (for the cheap O(walkers) bookkeeping — lane
compaction, target lookups, pending sets, the KnightKing outlier split),
the bound model and the **single** random generator; workers own the
expensive O(edges) per-step work — weight expansion, alias gathers, M-H
chains — and every sampler structure.

Bitwise parity comes from that one discipline: every uniform is drawn
*here*, by the monolithic code, over the union of all lanes in
monolithic lane order. Workers consume their slices positionally (their
resident arrays are id-sorted, matching the driver's lane order) and
never draw. Because each per-entry kernel in this repo maps one uniform
to one lane or edge entry independently of the others, a worker
evaluating its slice computes exactly what the monolith computes for
those lanes — so the corpus is identical for any partitioner and any
shard count.

Walkers that step across a shard boundary are emigrated by their old
owner into typed migration batches (KnightKing's walker-centric
exchange) and relayed to the new owner before the next step; the
round/batch/walker counts surface in :meth:`ShardedWalkEngine.stats`.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from repro.config import ShardingConfig, WalkConfig, take_fields
from repro.errors import ShardError, WalkError
from repro.registry import SamplerContext
from repro.sampling.base import NO_EDGE
from repro.sharding.partitioner import build_shard_plan
from repro.sharding.transport import make_transport
from repro.utils.rng import as_rng
from repro.walks.models import make_model
from repro.walks.vectorized import (
    StepperBase,
    VectorizedWalkEngine,
    _DirectStepper,
    _FirstOrderAliasStepper,
    _MHStepper,
    _RejectionStepper,
    _StateAliasStepper,
    resolve_kernels,
)


class _Fanout:
    """Mixin over a built-in stepper: its apply half, run on the shards.

    Listed before the stepper class, so the stepper's ``step`` (the draw
    half) runs unchanged and resolves every apply call to the overrides
    here and in the subclasses below. Each override slices the wave's
    uniforms per shard, ships one op per worker and scatters the replies
    back into monolithic lane order.
    """

    #: the driver steps lane by lane through the overrides below; a
    #: stepper's own wave kernel (``_MHStepper.run_wave``) would skip them
    run_wave = StepperBase.run_wave

    def _build(self, ctx) -> None:
        """The structures live with the workers; the driver holds none."""

    def attach(self, plan, transport) -> None:
        self.owner = plan.owner
        self.num_shards = plan.num_shards
        self.transport = transport
        self.migrated_walkers = 0
        self.migration_batches = 0
        self.migration_rounds = 0
        self.walker_steps = 0

    # -- plumbing --------------------------------------------------------
    def _call(self, op, args_per_shard):
        return self.transport.call_many(
            [(j, op, args_per_shard[j]) for j in range(self.num_shards)]
        )

    def _all(self, op, *args):
        return self._call(op, [args] * self.num_shards)

    def _gather(self, out, index_per_shard, results):
        for j in range(self.num_shards):
            out[index_per_shard[j]] = results[j]
        return out

    def _chosen(self, results):
        """Per-shard chosen edges back in lane order."""
        out = np.full(self.shard_of.size, NO_EDGE, dtype=np.int64)
        return self._gather(out, self.lanes_per, results)

    def _by_shard(self, shard_of):
        """Per shard, the positions of ``shard_of`` it owns (ascending)."""
        return [np.flatnonzero(shard_of == j) for j in range(self.num_shards)]

    def _by_entry(self, shard_of, cur, u_flat):
        """Split one-uniform-per-edge-entry draws by the shard of each row."""
        __, deg = self._rows(cur)
        rep = np.repeat(shard_of, deg)
        return [u_flat[rep == j] for j in range(self.num_shards)]

    # -- residency: every step ends by moving the walkers ----------------
    def load_wave(self, starts) -> None:
        lanes_per = self._by_shard(self.owner[starts])
        self._call("load_wave", [(lanes, starts[lanes]) for lanes in lanes_per])

    def first_step(self, cur, rng):
        self._enter(cur)
        return self._advance(super().first_step(cur, rng))

    def step(self, prev, prev_off, cur, step, rng):
        self._enter(cur)
        return self._advance(super().step(prev, prev_off, cur, step, rng))

    def _enter(self, cur) -> None:
        self.walker_steps += cur.size
        self.shard_of = self.owner[cur]
        self.lanes_per = self._by_shard(self.shard_of)

    def _advance(self, chosen):
        """Ship step outcomes; relay the returned migration batches."""
        results = self._call("advance", [(chosen[lanes],) for lanes in self.lanes_per])
        relays = []
        moved = 0
        for j in range(self.num_shards):
            for dest, batch in results[j].items():
                moved += int(batch[0].size)
                relays.append((dest, "absorb", batch))
        if relays:
            self.migration_rounds += 1
            self.migration_batches += len(relays)
            self.migrated_walkers += moved
            self.transport.call_many(relays)
        return chosen

    # -- the apply ops every stepper has ----------------------------------
    def apply_first(self, cur, u_flat):
        parts = self._by_entry(self.shard_of, cur, u_flat)
        return self._chosen(self._call("step_first", [(u,) for u in parts]))

    def reject_round(self, prev, prev_off, cur, step, sel, u_prop, u_keep, u_acc, bound, clip):
        picks = self._by_shard(self.shard_of[sel])
        results = self._call(
            "reject_round",
            [
                (
                    np.searchsorted(self.lanes_per[j], sel[picks[j]]),
                    u_prop[picks[j]],
                    None if u_keep is None else u_keep[picks[j]],
                    u_acc[picks[j]],
                    bound,
                    clip,
                    step,
                )
                for j in range(self.num_shards)
            ],
        )
        off = self._gather(np.empty(sel.size, dtype=np.int64), picks, [r[0] for r in results])
        accept = self._gather(np.zeros(sel.size, dtype=bool), picks, [r[1] for r in results])
        return off, accept

    def memory_bytes(self) -> int:
        """Total resident sampler bytes across all shard workers."""
        return int(sum(self._all("memory_bytes")))


class _FanoutDirect(_Fanout, _DirectStepper):
    def apply(self, prev, prev_off, cur, step, u_flat):
        parts = self._by_entry(self.shard_of, cur, u_flat)
        return self._chosen(self._call("step_direct", [(u, step) for u in parts]))


class _FanoutAlias(_Fanout, _FirstOrderAliasStepper):
    def apply(self, prev, prev_off, cur, step, u_slot, u_keep):
        args = [
            (u_slot[lanes], None if u_keep is None else u_keep[lanes])
            for lanes in self.lanes_per
        ]
        return self._chosen(self._call("step_alias", args))


class _FanoutStateAlias(_Fanout, _StateAliasStepper):
    def attach(self, plan, transport) -> None:
        super().attach(plan, transport)
        # the tables were built at worker construction: count them as Ti
        self.initializations += int(sum(self._all("tables_built")))

    def apply(self, prev, prev_off, cur, step, u_slot, u_keep):
        args = [(u_slot[lanes], u_keep[lanes], step) for lanes in self.lanes_per]
        return self._chosen(self._call("step_state_alias", args))


class _FanoutRejection(_Fanout, _RejectionStepper):
    """Pending-set loop and outlier split inherited; rounds fan out."""


class _FanoutMH(_Fanout, _MHStepper):
    """The scratch holds, per shard, which of the fresh lanes it owns."""

    def begin(self, prev, prev_off, cur, step) -> dict:
        uninit = self._gather(
            np.zeros(cur.size, dtype=bool), self.lanes_per, self._all("mh_begin", step)
        )
        own = self.shard_of[uninit]
        return {"uninit": uninit, "own": own, "picks": self._by_shard(own), "cur0": cur[uninit]}

    def init_high_weight(self, m, u) -> None:
        self._call("mh_init_hw", [(None if u is None else u[pick],) for pick in m["picks"]])

    def init_random(self, m, u1):
        results = self._call("mh_init_rand", [(u1[pick],) for pick in m["picks"]])
        m["bad"] = self._gather(np.zeros(u1.size, dtype=bool), m["picks"], results)
        return m["bad"]

    def init_support(self, m, u_flat) -> None:
        bad = m["bad"]
        parts = self._by_entry(m["own"][bad], m["cur0"][bad], u_flat)
        self._call("mh_init_support", [(u,) for u in parts])

    def init_burn_in(self, m, draws) -> None:
        # the wire op takes the whole (iterations, 2, lanes) schedule
        sched = np.empty((self.burn_in_iterations, 2, m["own"].size))
        it = 0
        for pair in draws:
            sched[it] = pair
            it += 1
        self._call("mh_init_burn", [(sched[:, :, pick],) for pick in m["picks"]])

    def finish(self, m, u_cand, u_acc):
        results = self._call(
            "mh_exec", [(u_cand[lanes], u_acc[lanes]) for lanes in self.lanes_per]
        )
        return (
            self._chosen([r[0] for r in results]),
            sum(r[1] for r in results),
            sum(r[2] for r in results),
        )


def _fanout_alias(graph, model, ctx):
    cls = _FanoutAlias if model.is_static else _FanoutStateAlias
    return cls(graph, model, ctx)


#: sampler -> driver-side stepper; the samplers whose apply half has ops.
_FANOUT = {
    "mh": _FanoutMH,
    "direct": _FanoutDirect,
    "alias": _fanout_alias,
    "alias-first-order": _FanoutAlias,
    "rejection": partial(_FanoutRejection, fold=False),
    "knightking": partial(_FanoutRejection, fold=True),
}


class ShardedWalkEngine(VectorizedWalkEngine):
    """Drop-in sharded counterpart of :class:`VectorizedWalkEngine`.

    Same ``generate`` / ``stats`` / ``memory_bytes`` surface, same
    corpora bit-for-bit, plus partitioning and migration counters. Built
    from the same :class:`~repro.config.WalkConfig` (``config=``, kept
    as :attr:`config`; ``config.backend`` names the kernel backend the
    *workers'* steppers run on, resolved per worker exactly as the
    monolithic engine resolves it) and a
    :class:`~repro.config.ShardingConfig` (``sharding=``, kept as
    :attr:`sharding`). A keyword naming a field of either replaces it,
    ``num_shards=`` is the constructor's spelling of ``shards``, and the
    rest go to the model constructor. Options the sharded execution
    model cannot honour raise :class:`~repro.errors.ShardError` up
    front: instance models or custom initializers (workers rebuild both
    from names, and a custom initializer draws from the RNG itself),
    ``memory-aware`` sampling and table budgets (per-shard budget
    accounting is not modelled), and injected chain stores.
    """

    def __init__(
        self, graph, model, sampler=None, *, config=None, sharding=None, num_shards=None,
        chain_store=None, budget=None, seed=None, **keywords,
    ):
        start = time.perf_counter()
        if not isinstance(model, str):
            raise ShardError(
                "the sharded engine needs a model registry name; workers "
                "rebuild the model per shard from (name, params)"
            )
        if chain_store is not None:
            raise ShardError(
                "chain_store injection is not supported: M-H chains live "
                "per shard inside the workers"
            )
        self.config = take_fields(config or WalkConfig(), keywords, sampler=sampler)
        try:
            self.sharding = take_fields(sharding or ShardingConfig(), keywords, shards=num_shards)
        except WalkError as err:  # a refusal of this engine's own knobs
            raise ShardError(str(err)) from None
        if self.config.sampler not in _FANOUT:
            raise ShardError(
                f"sampler {self.config.sampler!r} is not supported by the sharded "
                f"engine; supported: {list(_FANOUT)}"
            )
        if self.config.table_budget_bytes is not None or budget is not None:
            raise ShardError(
                "memory budgets are not supported by the sharded engine; "
                "use VectorizedWalkEngine for budgeted runs"
            )
        if not isinstance(self.config.initializer, str):
            raise ShardError(
                "custom initializer instances are not supported by the "
                "sharded engine; register and pass a builtin name"
            )
        self.graph = graph
        self.model = make_model(model, graph, **keywords)
        kernels = resolve_kernels(self.config.backend, self.model)
        self.backend = kernels.name
        # compiled once here, so same-host workers load the cached build
        self.compile_seconds = float(kernels.warmup())
        # the driver's half first: it validates sampler x model and holds
        # no resources, so a refusal here leaves no worker behind
        self.stepper = _FANOUT[self.config.sampler](graph, self.model, SamplerContext(self.config))
        if getattr(self.stepper, "custom_initializer", None) is not None:
            raise ShardError(
                f"initializer {self.config.initializer!r} has no vectorized sharded "
                "protocol; supported: ['random', 'high-weight', 'burn-in']"
            )
        self.plan = build_shard_plan(graph, self.sharding.shards, self.sharding.partitioner)
        self.num_shards = self.plan.num_shards
        self.transport = make_transport(self.sharding, self.plan, model, keywords, self.config)
        self.stepper.attach(self.plan, self.transport)
        self.setup_seconds = time.perf_counter() - start
        self.rng = as_rng(seed)

    def _run_wave(self, starts, walk_length, walks, row_base) -> np.ndarray:
        self.stepper.load_wave(starts)
        return super()._run_wave(starts, walk_length, walks, row_base)

    def apply_delta(self, delta):
        raise ShardError(
            "the sharded engine does not refresh across graph deltas: the "
            "plan and every worker's structures are built per graph; build "
            "a fresh engine"
        )

    def stats(self) -> dict:
        """Monolithic stats keys plus partitioning/migration counters."""
        out = super().stats()
        stepper = self.stepper
        out["migrated_walkers"] = stepper.migrated_walkers
        out["migration_batches"] = stepper.migration_batches
        out["migration_rounds"] = stepper.migration_rounds
        out["walker_steps"] = stepper.walker_steps
        out["migration_rate"] = (
            stepper.migrated_walkers / stepper.walker_steps if stepper.walker_steps else 0.0
        )
        out.update(self.plan.stats())
        out["transport"] = self.transport.name
        transport_stats = getattr(self.transport, "transport_stats", None)
        if transport_stats is not None:
            out["transport_stats"] = transport_stats()
        return out

    def close(self) -> None:
        """Shut down the transport (worker processes, shared segments)."""
        self.transport.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
