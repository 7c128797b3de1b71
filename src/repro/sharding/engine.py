"""Sharded walk engine: one driver, one RNG, one worker per shard.

:class:`ShardedWalkEngine` *is* a
:class:`~repro.walks.vectorized.VectorizedWalkEngine`: same wave loop,
same counters, and as its stepper the monolithic M-H stepper with its
applying half swapped. It runs one walk, :data:`SHARDED_WALK`: a
first-order model, sampler ``mh``, initializer ``high-weight``, the
configuration every sharded number in this repo was recorded on
(KnightKing-style sharding is the paper's baseline, not its design).
Anything else raises :class:`~repro.errors.ShardError` before a plan or
a worker exists.

``_MHStepper`` keeps "draw the uniforms" (``step``) and "apply them"
(``begin`` -> ``init_high_weight`` -> ``finish``) apart. The driver's
stepper inherits the drawing half untouched and overrides the applying
half, to slice each batch of uniforms by lane ownership and fan it out
to the shard workers, who run the same applying methods on their local
CSR. The driver keeps the full graph (for the cheap O(walkers)
bookkeeping: lane compaction, target lookups), the bound model and the
**single** random generator; workers own the expensive O(edges)
per-step work (weight evaluation, the M-H chains).

Bitwise parity comes from that one discipline: every uniform is drawn
*here*, by the monolithic code, over the union of all lanes in
monolithic lane order. Workers consume their slices positionally (their
resident arrays are id-sorted, matching the driver's lane order) and
never draw. Because each per-entry kernel in this repo maps one uniform
to one lane or edge entry independently of the others, a worker
evaluating its slice computes exactly what the monolith computes for
those lanes — so the corpus is identical for any shard count.

Walkers that step across a shard boundary are emigrated by their old
owner into typed migration batches (KnightKing's walker-centric
exchange) and relayed to the new owner before the next step; the
round/batch/walker counts surface in :meth:`ShardedWalkEngine.stats`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import WalkConfig, take_fields
from repro.errors import ShardError, WalkError
from repro.registry import INITIALIZER_REGISTRY, SamplerContext
from repro.sampling.base import NO_EDGE
from repro.sampling.initialization import HighWeightInit
from repro.sharding.config import ShardingConfig
from repro.sharding.partitioner import build_shard_plan
from repro.sharding.transport import make_transport
from repro.utils.rng import as_rng
from repro.walks.models import make_model
from repro.walks.vectorized import (
    StepperBase,
    VectorizedWalkEngine,
    _MHStepper,
    check_node_ids,
    resolve_kernels,
)


#: The one walk the sharded engine runs: (sampler, initializer).
SHARDED_WALK = ("mh", "high-weight")


def check_sharded_walk(config: WalkConfig, budget=None) -> None:
    """Raise :class:`~repro.errors.ShardError` unless the engine can run ``config``.

    The sharded engine runs M-H with the built-in ``high-weight``
    initializer (not one registered over it with ``replace=True``) and no
    table budget (per-shard budget accounting is not modelled): the
    configuration every sharded number in this repo measures. The
    engine calls this before it builds a plan or a transport.
    """
    if (config.sampler, config.initializer) != SHARDED_WALK or (
        INITIALIZER_REGISTRY.get(config.initializer) is not HighWeightInit
    ):
        raise ShardError(
            f"the sharded engine runs sampler {SHARDED_WALK[0]!r} with the built-in initializer "
            f"{SHARDED_WALK[1]!r} only, got sampler {config.sampler!r} and initializer "
            f"{config.initializer!r}; use VectorizedWalkEngine for any other walk"
        )
    if config.table_budget_bytes is not None or budget is not None:
        raise ShardError(
            "memory budgets are not supported by the sharded engine; "
            "use VectorizedWalkEngine for budgeted runs"
        )


class _FanoutMH(_MHStepper):
    """The driver's M-H stepper: it draws, and its shard workers apply.

    ``step`` is the monolithic stepper's drawing half, unchanged; it
    resolves every applying call (``begin``, ``init_high_weight``,
    ``finish``) to the overrides here, which slice the wave's uniforms
    per shard, ship one op per worker and scatter the replies back into
    monolithic lane order. The ``begin`` scratch holds, per shard, which
    of the fresh lanes it owns.
    """

    #: the driver steps lane by lane through the overrides below; the
    #: stepper's own wave kernel would skip them
    run_wave = StepperBase.run_wave

    def _build(self, ctx) -> None:
        """The chains live with the workers; the driver holds none."""

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

    # -- residency: every step ends by moving the walkers ----------------
    def load_wave(self, starts) -> None:
        lanes_per = self._by_shard(self.owner[starts])
        self._call("load_wave", [(lanes, starts[lanes]) for lanes in lanes_per])

    def step(self, prev, prev_off, cur, step, rng):
        """The monolithic step over the workers; then ship its outcomes
        and relay the returned migration batches."""
        self.walker_steps += cur.size
        self.shard_of = self.owner[cur]
        self.lanes_per = self._by_shard(self.shard_of)
        chosen = super().step(prev, prev_off, cur, step, rng)
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

    # -- the applying half, one op per worker ----------------------------
    def begin(self, prev, prev_off, cur, step) -> dict:
        uninit = self._gather(
            np.zeros(cur.size, dtype=bool), self.lanes_per, self._all("mh_begin", step)
        )
        return {"uninit": uninit, "picks": self._by_shard(self.shard_of[uninit])}

    def init_high_weight(self, m, u) -> None:
        """The workers keep the first edges of their fresh chains."""
        self._call("mh_init_hw", [(None if u is None else u[pick],) for pick in m["picks"]])

    def finish(self, m, u_cand, u_acc):
        results = self._call(
            "mh_exec", [(u_cand[lanes], u_acc[lanes]) for lanes in self.lanes_per]
        )
        return (
            self._chosen([r[0] for r in results]),
            sum(r[1] for r in results),
            sum(r[2] for r in results),
        )

    def memory_bytes(self) -> int:
        """Total resident sampler bytes across all shard workers."""
        return int(sum(self._all("memory_bytes")))


class ShardedWalkEngine(VectorizedWalkEngine):
    """Drop-in sharded counterpart of :class:`VectorizedWalkEngine`.

    Same ``generate`` / ``stats`` / ``memory_bytes`` surface, same
    corpora bit-for-bit, plus partitioning and migration counters. Built
    from the same :class:`~repro.config.WalkConfig` (``config=``, kept
    as :attr:`config`; ``config.backend`` names the kernel backend the
    *workers'* steppers run on, resolved per worker exactly as the
    monolithic engine resolves it) and a
    :class:`~repro.sharding.config.ShardingConfig` (``sharding=``, kept as
    :attr:`sharding`). A keyword naming a field of either replaces it,
    ``num_shards=`` is the constructor's spelling of ``shards``, and the
    rest go to the model constructor. Options the sharded execution
    model cannot honour raise :class:`~repro.errors.ShardError` before a
    plan or a transport is built: any walk but :data:`SHARDED_WALK`
    (:func:`check_sharded_walk`), table budgets (per-shard budget
    accounting is not modelled), instance models (workers rebuild the
    model from its name), second-order models (workers hold no previous
    node or edge) and injected chain stores.
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
        check_sharded_walk(self.config, budget)
        check_node_ids(graph)
        self.graph = graph
        self.model = make_model(model, graph, **keywords)
        if self.model.order != 1:
            raise ShardError(
                f"the sharded engine runs first-order models only, got {model!r} "
                f"(order {self.model.order}); use VectorizedWalkEngine for it"
            )
        kernels = resolve_kernels(self.config.backend, self.model)
        self.backend = kernels.name
        # compiled once here, so same-host workers load the cached build
        self.compile_seconds = float(kernels.warmup())
        self.stepper = _FanoutMH(graph, self.model, SamplerContext(self.config))
        self.plan = build_shard_plan(graph, self.sharding.shards)
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
        out["partitioner"] = self.sharding.partitioner
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
