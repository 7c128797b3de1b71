"""Per-shard walk worker: one real M-H stepper on the local graph, zero RNG.

One :class:`ShardWorker` owns a shard's local CSR, **one stepper** built
on it through the same ``SAMPLER_REGISTRY`` factory and the same kernel
backend resolution the monolithic engine uses (always M-H with the
``high-weight`` initializer: the one walk the sharded engine runs, see
:mod:`repro.sharding.engine`), and the *resident* walkers currently
standing on its owned nodes. The KnightKing discipline: walker state
moves to the data, the data never moves to the walkers.

There is no step math in this module. Every op translates the resident
lanes from global to local coordinates, calls the stepper's applying
half (M-H's ``begin`` -> ``init_high_weight`` -> ``finish``) with the
uniforms the driver shipped, and translates the chosen edges back. The
walks are first order, so a walker is its id and its current node: no
previous node or edge is resident or migrates.

RNG discipline (the bitwise-parity contract): workers draw **no**
random numbers. The driver owns the single generator, draws every
uniform over the union of all shards' walkers in monolithic lane order,
and ships each worker the slice for its lanes. Because every kernel in
this repo maps one uniform to one walker/edge entry as a pure function
of that entry (see :func:`repro.walks._segments.race_keys`), evaluating
a slice locally reproduces exactly what the single-process engine
computes for those lanes — whatever the shard count.

Residency invariant: the resident arrays are kept sorted by walker id,
which equals the driver's per-shard lane order (its lane arrays stay
id-ascending through compaction), so uniform slices align with resident
rows positionally — no index vectors on the wire.

All walker/node/edge coordinates on the wire are **global**; workers
translate at the boundary (nodes through the dense ``global_to_local``
map, edges through a binary search of the sorted ``edge_map``).
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from repro.config import WalkConfig
from repro.registry import SAMPLER_REGISTRY, SamplerContext
from repro.sampling.base import NO_EDGE
from repro.walks.models import make_model
from repro.walks.state import NO_PREVIOUS
from repro.walks.vectorized import resolve_kernels


class ShardWorker:
    """Executes one shard's share of every walk step, driven by ops."""

    def __init__(
        self, shard, num_shards: int, owner: np.ndarray, model: str, model_params: dict,
        config: WalkConfig,
    ):
        self.shard_id = int(shard.shard_id)
        self.num_shards = int(num_shards)
        self.graph = graph = shard.graph
        self.node_map = shard.node_map
        self.edge_map = shard.edge_map
        self.g2l = shard.global_to_local
        self.owner = owner
        #: the driver's :class:`~repro.config.WalkConfig`, as it crossed the wire
        self.config = config
        model = make_model(model, graph, **(model_params or {}))
        ctx = SamplerContext(config, kernels=resolve_kernels(config.backend, model))
        self.stepper = SAMPLER_REGISTRY.get(config.sampler)(graph, model, ctx)
        # resident walkers, global coordinates, sorted by walker id
        self.ids = np.empty(0, dtype=np.int64)
        self.cur_g = np.empty(0, dtype=np.int64)
        self._mh = None  # the stepper's M-H scratch between begin and exec

    # -- coordinate translation ----------------------------------------
    def _edges_global(self, local: np.ndarray) -> np.ndarray:
        # masked, not clamped: an edgeless shard has no entry to clamp to
        out = np.full(local.shape, NO_EDGE, dtype=np.int64)
        chose = local >= 0
        out[chose] = self.edge_map[local[chose]]
        return out

    def _lanes(self):
        """Resident lanes in local coordinates, ``(prev, prev_off, cur)``."""
        no_prev = np.full(self.cur_g.size, NO_PREVIOUS, dtype=np.int64)
        return no_prev, no_prev, self.g2l[self.cur_g]

    # -- residency ------------------------------------------------------
    def load_wave(self, ids, cur_g):
        """Reset residency for a new wave (walkers at their start nodes)."""
        self.ids = np.asarray(ids, dtype=np.int64)
        self.cur_g = np.asarray(cur_g, dtype=np.int64)
        self._mh = None

    def absorb(self, ids, cur_g):
        """Merge an immigrant batch, restoring walker-id sort order."""
        ids = np.concatenate((self.ids, ids))
        order = np.argsort(ids, kind="stable")
        self.ids = ids[order]
        self.cur_g = np.concatenate((self.cur_g, cur_g))[order]

    def advance(self, chosen_g):
        """Apply the step outcome; emigrate boundary-crossing walkers.

        ``chosen_g`` is this shard's lanes' chosen global edge offsets
        (``NO_EDGE`` = walk ended). Returns ``{dest_shard: (ids, cur_g)}``
        — the typed migration batches; the driver relays each to its
        destination worker's :meth:`absorb`.
        """
        chosen_g = np.asarray(chosen_g, dtype=np.int64)
        alive = chosen_g != NO_EDGE
        ids = self.ids[alive]
        chosen_l = np.searchsorted(self.edge_map, chosen_g[alive])
        cur_g = self.node_map[self.graph.targets[chosen_l]]
        dest = self.owner[cur_g]
        stay = dest == self.shard_id
        batches = {}
        for j in range(self.num_shards):
            if j == self.shard_id:
                continue
            mask = dest == j
            if mask.any():
                batches[j] = (ids[mask], cur_g[mask])
        self.ids = ids[stay]
        self.cur_g = cur_g[stay]
        self._mh = None
        return batches

    # -- M-H: the stepper's begin -> init_high_weight -> finish, one op each
    def mh_begin(self, step):
        """Start an M-H step: stash scratch, report uninitialised chains."""
        self._mh = self.stepper.begin(*self._lanes(), step)
        return self._mh["uninit"]

    def mh_init_hw(self, u_block):
        """High-weight init: capped subsample argmax (exact when u is None)."""
        self._mh["init"] = self.stepper.init_high_weight(self._mh, u_block)

    def mh_exec(self, u_cand, u_acc):
        """Finish an M-H step: propose/accept kernel + chain scatter."""
        nxt, n_ok, n_acc = self.stepper.finish(self._mh, u_cand, u_acc)
        return self._edges_global(nxt), n_ok, n_acc

    # -- bookkeeping ----------------------------------------------------
    def walk_config(self) -> dict:
        """The fields of :attr:`config` (a mapping: the wire moves no dataclass)."""
        return asdict(self.config)

    def memory_bytes(self) -> int:
        """Resident bytes of this shard's sampler structures."""
        return self.stepper.memory_bytes()

    def debug_exit(self, code: int = 17):
        """Kill this worker's process immediately (fault-injection hook).

        Only meaningful behind an out-of-process transport: the process
        dies without replying, so the driver observes a closed pipe or
        socket mid-round — exactly the failure the transports' broken-
        state discipline exists for. ``os._exit`` skips all cleanup, as
        a real crash would.
        """
        import os

        os._exit(int(code))

    def close(self):
        """Release references (transport shutdown hook)."""
        self._mh = None
        return None
