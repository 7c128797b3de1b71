"""Reference walk engine — a scalar transliteration of Algorithm 2.

This engine exists for *validation*: it walks one step at a time through
exactly the paper's control flow (get walker, query sampler by state,
sample, update state), so its output distribution is easy to reason about
and the test suite uses it as ground truth for the vectorized engine. For
production workloads use :class:`~repro.walks.vectorized.VectorizedWalkEngine`.
"""

from __future__ import annotations

import numpy as np

from repro.config import WalkConfig, take_fields
from repro.registry import SCALAR_SAMPLER_REGISTRY, SamplerContext
from repro.sampling.base import NO_EDGE, EdgeSampler, draw_from_weights
from repro.utils.rng import as_rng
from repro.walks.corpus import WalkCorpus
from repro.walks.models import make_model


class ReferenceWalkEngine:
    """Algorithm 2, one walker at a time.

    Parameters
    ----------
    graph:
        CSR network.
    model:
        A bound :class:`~repro.walks.models.base.RandomWalkModel` or a
        registry name.
    sampler:
        An :class:`~repro.sampling.base.EdgeSampler` instance, or
        positional sugar for ``config.sampler``: a name in
        :data:`repro.registry.SCALAR_SAMPLER_REGISTRY`, whose ``factory``
        capability (or, without one, the entry itself) is called as
        ``factory(graph, model, ctx)``.
    config:
        The :class:`~repro.config.WalkConfig` (kept as :attr:`config`);
        as on the vectorized engine, a keyword naming one of its fields
        replaces it and the others go to the model constructor.
    seed:
        Seed for the engine's generator.
    """

    def __init__(self, graph, model, sampler=None, *, config=None, budget=None, seed=None, **keywords):
        built = isinstance(sampler, EdgeSampler)
        self.config = take_fields(config or WalkConfig(), keywords, sampler=None if built else sampler)
        self.graph = graph
        self.model = make_model(model, graph, **keywords)
        if not built:
            entry = SCALAR_SAMPLER_REGISTRY.entry(self.config.sampler)
            factory = entry.capabilities.get("factory", entry.obj)
            sampler = factory(graph, self.model, SamplerContext(self.config, budget=budget))
        self.sampler = sampler
        self.rng = as_rng(seed)

    # ------------------------------------------------------------------
    def generate(self, num_walks=None, walk_length=None, start_nodes=None) -> WalkCorpus:
        """Create ``num_walks`` walks of ``walk_length`` nodes per start.

        ``None`` reads the shape off :attr:`config`. ``walk_length``
        counts *nodes* (the paper's "sequences of length 80"), so each
        walk takes at most ``walk_length - 1`` steps. Walks start at
        every valid start node by default and may end early at dead ends.
        """
        shape = self.config.reshaped(num_walks, walk_length)
        if start_nodes is None:
            starts = self.model.valid_start_nodes()
        else:
            starts = np.asarray(start_nodes, dtype=np.int64)
        sequences = []
        for __ in range(shape.num_walks):
            for v in starts:
                sequences.append(self.walk(int(v), shape.walk_length))
        return WalkCorpus.from_lists(sequences)

    def walk(self, start: int, walk_length: int) -> list[int]:
        """One walk from ``start``; the inner loop of Algorithm 2."""
        graph, model, sampler, rng = self.graph, self.model, self.sampler, self.rng
        state = model.initial_state(start)
        sequence = [start]
        for __ in range(walk_length - 1):
            if model.order == 2 and state.at_start:
                off = self._first_step(state, rng)
            else:
                off = sampler.sample(graph, model, state, rng)
            if off == NO_EDGE:
                break
            sequence.append(int(graph.targets[off]))
            state = model.update_state(state, off)
        return sequence

    def _first_step(self, state, rng) -> int:
        """Second-order models take step 0 from the model's start-state law.

        The models define α = 1 without a previous edge, so this is the
        static distribution for node2vec/edge2vec but keeps fairwalk's
        group discounting.
        """
        weights = self.model.dynamic_weights_row(self.graph, state)
        pos = draw_from_weights(weights, rng)
        if pos == NO_EDGE:
            return NO_EDGE
        return int(self.graph.offsets[state.current]) + pos
