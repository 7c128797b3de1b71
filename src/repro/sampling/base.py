"""Edge-sampler interface shared by all sampling strategies.

An edge sampler answers one question (paper Section III-A): *given the
walker state x at node v, draw the next edge from the transition
distribution G_x* — identified here by the global CSR offset of the chosen
edge entry. Samplers receive the graph, the random-walk model (for dynamic
edge weights) and the current state; they return an edge offset, or
``NO_EDGE`` when the state has no positive-weight transition (e.g. a
metapath dead end), which terminates the walk.

The model object must satisfy the small protocol documented on
:class:`TransitionModel` — concrete implementations live in
:mod:`repro.walks.models`.

Scalar samplers are built for one graph and have no graph-mutation
hook; after a :class:`~repro.graph.delta.GraphDelta` construct them
again. What survives a delta is the vectorized steppers' state
(``StepperBase.on_delta``, reached by ``VectorizedWalkEngine.apply_delta``
and ``UniNet.update``) and what they share with the classes here:
``FirstOrderAliasStore.on_delta`` and the chain remap in
:mod:`repro.walks.manager`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

#: Sentinel returned when a state has no positive-weight out-edge.
NO_EDGE = -1


@runtime_checkable
class TransitionModel(Protocol):
    """What samplers need from a random-walk model.

    This is the sampler-facing half of the paper's unified abstraction:
    ``dynamic_weight`` is CALCULATEWEIGHT from Algorithm 1; state
    bookkeeping (UPDATESTATE) belongs to the walk engine and is not
    required here.
    """

    def dynamic_weight(self, graph, state, edge_offset: int) -> float:
        """Unnormalised transition weight w'_x(e) of one edge entry."""

    def dynamic_weights_row(self, graph, state) -> np.ndarray:
        """w'_x(e) for every out-edge of the state's current node."""

    def state_index(self, graph, state) -> int:
        """Flat index of ``state`` in the model's state space (Fig. 4)."""

    def state_space_size(self, graph) -> int:
        """#state — the number of distinct transition distributions."""


@dataclass
class SamplerStats:
    """Counters every sampler maintains; the basis of Table II.

    ``proposals`` counts candidate draws; ``samples`` counts successful
    sampling calls; for acceptance-based samplers the ratio
    ``samples / proposals`` is the empirical acceptance ratio θ.
    """

    samples: int = 0
    proposals: int = 0
    initializations: int = 0

    @property
    def acceptance_ratio(self) -> float:
        """Empirical θ; 1.0 when no proposals were needed."""
        if self.proposals == 0:
            return 1.0
        return self.samples / self.proposals

    def reset(self) -> None:
        """Zero all counters."""
        self.samples = 0
        self.proposals = 0
        self.initializations = 0


class EdgeSampler(abc.ABC):
    """Abstract scalar edge sampler.

    Subclasses implement :meth:`sample` and declare their memory footprint
    via :meth:`memory_bytes`. Construction-time preprocessing (alias
    tables, proposal structures) counts as initialisation cost ``Ti`` in
    the pipeline timing.
    """

    #: Registry-facing name, overridden by subclasses.
    name = "abstract"

    def __init__(self):
        self.stats = SamplerStats()

    @abc.abstractmethod
    def sample(self, graph, model, state, rng: np.random.Generator) -> int:
        """Draw the next edge offset for ``state`` (or ``NO_EDGE``)."""

    @classmethod
    @abc.abstractmethod
    def memory_bytes(cls, graph, model) -> int:
        """Estimated resident bytes of this sampler for graph + model."""

    def reset_stats(self) -> None:
        """Clear the sampling counters."""
        self.stats.reset()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def draw_from_weights(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Exact O(d) draw from unnormalised ``weights`` (direct sampling).

    Returns the chosen position within ``weights`` or ``NO_EDGE`` when all
    weights are zero.
    """
    total = float(weights.sum())
    if total <= 0.0:
        return NO_EDGE
    cdf = np.cumsum(weights)
    r = rng.random() * total
    pos = int(np.searchsorted(cdf, r, side="right"))
    return min(pos, weights.size - 1)
