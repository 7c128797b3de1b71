"""Base class of the unified random-walk model abstraction (Section IV-B).

The paper's Fig. 3 defines a model by its *dynamic edge weight* w'_x(e)
given the walker state x, which fixes the unnormalised transition
distribution G_x(u) = w'_xu / Σ_k w'_xk. A model here writes that rule
once, for a whole wave: :meth:`RandomWalkModel.batch_dynamic_weight`
takes aligned arrays of walker states ``(prev, prev_off, cur, step)``
and candidate edge entries. It is the one required method; the engine
advances every model's state the same way, on arrays. Optional:

* :meth:`~RandomWalkModel.batch_state_index` — the M-H chain layout, when
  one chain per current node (first order) or per taken edge (second
  order) is not it (metapath2vec also keys by target type);
* :meth:`~RandomWalkModel.kernel_spec` — the rule's compiled ``kind``, so
  the C kernels evaluate it without calling back into Python;
* :meth:`~RandomWalkModel.enumerate_state_contexts` — one context per
  state index, for the samplers that build a table per state.

The rest is derived support with defaults (state space size, rejection
bounds, alias-table sizing). Models are *bound to a graph at
construction* so they may precompute lookup tables (e.g. fairwalk's
per-node type counts). Subclasses set ``order`` (1 = distribution
depends only on the current node [+ metapath position], 2 = on the
previous edge).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.config import check_reals
from repro.errors import ModelError
from repro.walks.state import NO_PREVIOUS


def check_bias(model: str, p, q) -> tuple[float, float]:
    """The return parameter ``p`` and in-out parameter ``q`` of a
    second-order model as floats; each must be finite and > 0 (NaN
    passes a ``<= 0`` test and walks on)."""
    check_reals({"p": p, "q": q}, section=f"{model} ", error=ModelError)
    return float(p), float(q)


class RandomWalkModel(abc.ABC):
    """A random-walk model bound to a graph.

    Attributes
    ----------
    name: registry name of the model.
    order: 1 for first-order models, 2 when transitions depend on the
        previous edge.
    requires_node_types: True for heterogeneous models.
    """

    name = "abstract"
    order = 1
    requires_node_types = False
    #: True when dynamic weights always equal static weights (deepwalk),
    #: which makes per-node static samplers exact for this model.
    is_static = False

    def __init__(self, graph):
        if self.requires_node_types and not graph.is_heterogeneous:
            raise ModelError(f"{self.name} requires a typed (heterogeneous) graph")
        self.graph = graph

    @classmethod
    def check_params(cls, params: dict) -> None:
        """Refuse, with no graph at hand, the parameter values the
        constructor refuses; :class:`~repro.core.spec.RunSpec` calls it
        when it is built, before a graph is loaded. Nothing here."""

    def rebind(self, graph) -> "RandomWalkModel":
        """Rebind this model to a (mutated) graph in place; returns self.

        Called by the dynamic-graph machinery after a delta is applied.
        The base implementation swaps the graph reference; models that
        precompute graph-derived tables (e.g. fairwalk's per-node type
        counts) override to refresh them.
        """
        if self.requires_node_types and not graph.is_heterogeneous:
            raise ModelError(f"{self.name} requires a typed (heterogeneous) graph")
        self.graph = graph
        return self

    # ------------------------------------------------------------------
    # walk lifecycle
    # ------------------------------------------------------------------
    def valid_start_nodes(self) -> np.ndarray:
        """Nodes walks may start from (metapath models restrict this)."""
        return np.arange(self.graph.num_nodes, dtype=np.int64)

    # ------------------------------------------------------------------
    # state support
    # ------------------------------------------------------------------
    def dynamic_weights_row(self, cur, prev=NO_PREVIOUS, prev_off=NO_PREVIOUS, step=0) -> np.ndarray:
        """w'_x for all out-edges of ``cur`` in the state ``(cur, prev, prev_off, step)``.

        One :meth:`batch_dynamic_weight` call over the row: the exact
        law the statistical tests fit the samplers against.
        """
        lo, hi = self.graph.edge_range(cur)
        offsets = np.arange(lo, hi, dtype=np.int64)
        lane = [np.full(offsets.size, v, dtype=np.int64) for v in (prev, prev_off, cur, step)]
        return self.batch_dynamic_weight(*lane, offsets)

    def state_space_size(self, graph) -> int:
        """#state (Table I): |V| for first-order, |E| for second-order."""
        if self.order == 1:
            return self.graph.num_nodes
        return self.graph.num_edge_entries

    def state_table_degrees(self, graph) -> np.ndarray:
        """Alias-table size (current node's degree) per flat state index."""
        degrees = self.graph.degrees()
        if self.order == 1:
            return degrees
        # state = directed edge entry (s -> v); its table covers N(v)
        return degrees[self.graph.targets]

    def alias_entries(self, graph) -> int:
        """Total alias-table entries across all states (Σ table degrees)."""
        return int(self.state_table_degrees(graph).sum())

    # ------------------------------------------------------------------
    # rejection-sampling support
    # ------------------------------------------------------------------
    def alpha_bound(self, graph) -> float:
        """Upper bound on w'(e) / w(e) over all states and edges."""
        return 1.0

    # ------------------------------------------------------------------
    # vectorized kernels (lock-step engine)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def batch_dynamic_weight(
        self,
        prev: np.ndarray,
        prev_off: np.ndarray,
        cur: np.ndarray,
        step: np.ndarray,
        edge_offsets: np.ndarray,
    ) -> np.ndarray:
        """Dynamic edge weight w'_x(e) per query (paper Fig. 3).

        All arrays are aligned per query: walker context (previous node,
        previous edge offset, current node, step count; ``prev`` and
        ``prev_off`` are ``NO_PREVIOUS`` before the first step) and the
        candidate edge entry. ``step`` may also be a scalar shared by
        every query. Returns float64 dynamic weights.
        """

    def batch_state_index(self, prev_off: np.ndarray, cur: np.ndarray, step: np.ndarray) -> np.ndarray:
        """Flat chain index in [0, state_space_size) per walker state.

        Default layouts: first-order models index by current node;
        second-order models index by the *taken* directed edge entry
        (the transpose of Fig. 4's bucket layout — same size, same O(1)
        lookup, no extra binary search). Second-order states before the
        first step have no previous edge and are never indexed: the walk
        engine takes the first step from the start-state law.
        """
        if self.order == 1:
            return cur.astype(np.int64, copy=True)
        return prev_off.astype(np.int64, copy=True)

    def kernel_spec(self) -> dict:
        """Weight rule for the compiled step kernels (:mod:`repro.walks.kernels`).

        A dict whose ``"kind"`` selects how a compiled backend evaluates
        this model's dynamic weight without calling back into Python:
        ``"static"`` (weight = static edge weight), ``"node2vec"`` (keys
        ``p``/``q``), or ``"generic"`` — no compiled rule exists, so only
        the NumPy backend (which evaluates
        :meth:`batch_dynamic_weight` directly) can drive the walk and
        the engine falls back to it.

        Contract every model must honour regardless of kind: the dynamic
        weight of an edge is a pure function of ``(state index, edge
        offset)`` — the same invariant that makes one M-H chain per state
        meaningful, and which lets the engine cache w'(LAST_x) alongside
        the chain array.
        """
        return {"kind": "static"} if self.is_static else {"kind": "generic"}

    def enumerate_state_contexts(self, graph) -> dict[str, np.ndarray]:
        """Walker contexts for every flat state index (for eager tables).

        Used by samplers that materialise one structure per state (alias,
        memory-aware). Returns aligned arrays ``prev``, ``prev_off``,
        ``cur``, ``step`` plus a ``valid`` mask of states that can be
        realised by an actual walker.
        """
        if self.order == 1:
            n = self.graph.num_nodes
            return {
                "prev": np.full(n, NO_PREVIOUS, dtype=np.int64),
                "prev_off": np.full(n, NO_PREVIOUS, dtype=np.int64),
                "cur": np.arange(n, dtype=np.int64),
                "step": np.zeros(n, dtype=np.int64),
                "valid": self.graph.degrees() > 0,
            }
        m = self.graph.num_edge_entries
        cur = self.graph.targets.astype(np.int64)
        return {
            "prev": self.graph.edge_sources(),
            "prev_off": np.arange(m, dtype=np.int64),
            "cur": cur,
            "step": np.ones(m, dtype=np.int64),
            "valid": self.graph.degrees()[cur] > 0,
        }

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"{type(self).__name__}(graph={self.graph!r})"


class BiasedWalkModel(RandomWalkModel):
    """A second-order walk biased by a return parameter ``p`` and an
    in-out parameter ``q``, both held to :func:`check_bias`."""

    order = 2

    def __init__(self, graph, p: float = 1.0, q: float = 1.0):
        super().__init__(graph)
        self.p, self.q = check_bias(self.name, p, q)

    @classmethod
    def check_params(cls, params: dict) -> None:
        check_bias(cls.name, params.get("p", 1.0), params.get("q", 1.0))
