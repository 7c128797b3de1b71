"""Flat kernel state: every array a step kernel may touch, in one bundle.

The compiled-kernel layer works on plain contiguous ndarrays only — no
graph objects, no model objects, no Python callbacks (the NumPy backend
is the one exception: it receives a ``weight_fn`` for *generic* models
whose dynamic weight has no compiled equivalent). :class:`KernelState`
is that array bundle: the CSR arrays, the model's compiled weight spec,
the graph's adjacency filter and the M-H chain arrays. Alias tables are
not in it: a stepper may hold two stores
(:class:`~repro.sampling.alias.AliasTables`, memory-aware's state tables
and its proposal), so the gathers take the store as an argument.

Steppers expose it via a ``kernel_state`` property built fresh on each
access — the fields are *references* to the live arrays, so construction
is O(1) and the bundle can never go stale across an ``on_delta`` rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Weight-rule identifiers understood by the compiled backends.  A model
#: advertises one via :meth:`RandomWalkModel.kernel_spec`; ``"generic"``
#: means "only the model's own :meth:`batch_dynamic_weight` can evaluate
#: it", which restricts the engine to the NumPy backend.
KIND_GENERIC = "generic"
KIND_STATIC = "static"
KIND_NODE2VEC = "node2vec"

#: Integer codes for the compiled (C) entry points.
KIND_CODES = {KIND_GENERIC: 0, KIND_STATIC: 1, KIND_NODE2VEC: 2}


@dataclass
class KernelState:
    """Array bundle handed to step kernels.

    Graph fields are always present; the chain fields are ``None``
    unless the owning stepper is M-H. All arrays are C-contiguous with
    the dtypes the CSR representation guarantees (int64 offsets,
    targets and chains, float64 weights).
    """

    # -- CSR graph ------------------------------------------------------
    offsets: np.ndarray
    targets: np.ndarray
    weights: np.ndarray | None = None

    # -- model weight rule ---------------------------------------------
    kind: str = KIND_GENERIC
    p: float = 1.0
    q: float = 1.0

    # -- M-H chain arrays (LAST_x and its cached dynamic weight) --------
    chain_last: np.ndarray | None = None
    chain_last_w: np.ndarray | None = None

    # -- the graph's adjacency filter, for node2vec's alpha (uint64) ----
    edge_filter: np.ndarray | None = None

    @property
    def kind_code(self) -> int:
        """Integer weight-rule code for the compiled entry points."""
        return KIND_CODES.get(self.kind, 0)

    @classmethod
    def for_graph(cls, graph, model=None) -> "KernelState":
        """Base bundle for ``graph``, stamped with ``model``'s weight spec
        (and, for a rule that tests adjacency, ``graph``'s filter)."""
        spec = model.kernel_spec() if model is not None else {"kind": KIND_GENERIC}
        kind = spec.get("kind", KIND_GENERIC)
        return cls(
            offsets=graph.offsets,
            targets=graph.targets,
            weights=graph.weights,
            kind=kind,
            p=float(spec.get("p", 1.0)),
            q=float(spec.get("q", 1.0)),
            edge_filter=graph.edge_filter() if kind == KIND_NODE2VEC else None,
        )


__all__ = [
    "KernelState",
    "KIND_GENERIC",
    "KIND_STATIC",
    "KIND_NODE2VEC",
    "KIND_CODES",
]
