"""Compressed-sparse-row graph storage (paper Section IV-C).

:class:`CSRGraph` is the immutable in-memory network representation shared
by every sampler and walk engine in the library. It stores a directed
adjacency structure; undirected graphs are represented by storing both
directions of every edge (the convention used by the paper's datasets).

Design points that matter downstream:

* **Rows are sorted.** The targets of each node's out-edges are stored in
  ascending order, so ``edge_index`` (does edge (v, u) exist, and at which
  global offset?) is a binary search — the O(log deg) lookup the paper's
  complexity analysis of node2vec relies on.
* **Global edge offsets are the currency.** Samplers identify an edge by
  its position in the flat ``targets`` array. The M-H sampler's entire
  mutable state is one int64 array of such offsets.
* **Heterogeneous support.** Optional ``node_types`` (per node) and
  ``edge_types`` (per directed edge entry) arrays back metapath2vec and
  edge2vec.
* **Negative-first adjacency filter.** :meth:`CSRGraph.edge_filter`, a
  blocked Bloom filter over every ``(source, target)`` key, built once per
  graph, answers most "is it an edge?" questions "no" for the NumPy
  lookups and the compiled kernels alike; a hit falls through to the search.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError

#: rows longer than this are probed in the adjacency filter first (C takes it too)
FILTER_MIN_ROW = 16

_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)
_HASH_MIX = np.uint64(0xD6E8FEB86659FD93)
_ONE = np.uint64(1)


def edge_hash(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The filter's 64-bit hash of the keys ``(v, u)`` (``edge_hash`` in C)."""
    h = v.astype(np.uint64)
    h *= _HASH_MUL
    h += u.astype(np.uint64)
    h ^= h >> np.uint64(32)
    h *= _HASH_MIX
    h ^= h >> np.uint64(32)
    return h


def filter_bits(h: np.ndarray) -> np.ndarray:
    """The two bits of its word a key sets (``FILTER_BITS`` in C)."""
    return (_ONE << (h >> np.uint64(58))) | (_ONE << ((h >> np.uint64(52)) & np.uint64(63)))


class CSRGraph:
    """An immutable CSR graph.

    Parameters
    ----------
    offsets:
        int64 array of shape ``(num_nodes + 1,)``; row ``v`` spans
        ``targets[offsets[v]:offsets[v + 1]]``.
    targets:
        int32/int64 array of edge targets, sorted within each row.
    weights:
        optional float64 array aligned with ``targets``; ``None`` means an
        unweighted graph (all weights treated as 1.0).
    node_types:
        optional int16 array of shape ``(num_nodes,)`` with type ids in
        ``[0, num_node_types)``.
    edge_types:
        optional int32 array aligned with ``targets`` with type ids in
        ``[0, num_edge_types)``.
    """

    __slots__ = (
        "offsets",
        "targets",
        "weights",
        "node_types",
        "edge_types",
        "num_node_types",
        "num_edge_types",
        "_edge_filter",
    )

    def __init__(self, offsets, targets, weights=None, node_types=None, edge_types=None):
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.targets = np.ascontiguousarray(targets, dtype=np.int64)
        self.weights = None if weights is None else np.ascontiguousarray(weights, dtype=np.float64)
        self.node_types = (
            None if node_types is None else np.ascontiguousarray(node_types, dtype=np.int16)
        )
        self.edge_types = (
            None if edge_types is None else np.ascontiguousarray(edge_types, dtype=np.int32)
        )
        self.num_node_types = 1 if self.node_types is None else int(self.node_types.max(initial=-1)) + 1
        self.num_edge_types = 1 if self.edge_types is None else int(self.edge_types.max(initial=-1)) + 1
        self._edge_filter = None
        self._validate()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _from_trusted_arrays(
        cls,
        offsets,
        targets,
        weights=None,
        node_types=None,
        edge_types=None,
        *,
        num_node_types=None,
        num_edge_types=None,
    ) -> "CSRGraph":
        """Construction from already-validated arrays.

        :meth:`subgraph` uses this to wrap arrays it derived from a
        graph whose public constructor already established every
        invariant, without re-running the O(|E|) validation. Callers
        must pass arrays with the exact dtypes the public constructor
        would produce (int64 offsets/targets, float64 weights,
        int16/int32 types); nothing is converted or checked here. The
        new graph has no adjacency filter until one is asked for.
        """
        graph = object.__new__(cls)
        graph.offsets = offsets
        graph.targets = targets
        graph.weights = weights
        graph.node_types = node_types
        graph.edge_types = edge_types
        graph._edge_filter = None
        graph.num_node_types = (
            int(num_node_types)
            if num_node_types is not None
            else (1 if node_types is None else int(node_types.max(initial=-1)) + 1)
        )
        graph.num_edge_types = (
            int(num_edge_types)
            if num_edge_types is not None
            else (1 if edge_types is None else int(edge_types.max(initial=-1)) + 1)
        )
        return graph

    def _validate(self) -> None:
        if self.offsets.ndim != 1 or self.offsets.size < 1:
            raise GraphError("offsets must be a 1-D array with at least one entry")
        if self.offsets[0] != 0:
            raise GraphError("offsets[0] must be 0")
        if np.any(np.diff(self.offsets) < 0):
            raise GraphError("offsets must be non-decreasing")
        if self.offsets[-1] != self.targets.size:
            raise GraphError(
                f"offsets[-1] ({self.offsets[-1]}) must equal the number of "
                f"edge entries ({self.targets.size})"
            )
        n = self.num_nodes
        if self.targets.size and (self.targets.min() < 0 or self.targets.max() >= n):
            raise GraphError("edge targets out of range")
        if self.weights is not None:
            if self.weights.shape != self.targets.shape:
                raise GraphError("weights must align with targets")
            if np.any(~np.isfinite(self.weights)) or np.any(self.weights < 0):
                raise GraphError("weights must be finite and non-negative")
        if self.node_types is not None and self.node_types.shape != (n,):
            raise GraphError("node_types must have one entry per node")
        if self.edge_types is not None and self.edge_types.shape != self.targets.shape:
            raise GraphError("edge_types must align with targets")
        # Sorted rows are required for binary-search lookups: on unsorted
        # input edge_index would silently miss edges, so reject eagerly.
        if not self.is_sorted:
            raise GraphError(
                "targets must be sorted (ascending) within each row; "
                "edge_index's binary search silently misses edges otherwise"
            )

    @property
    def is_sorted(self) -> bool:
        """True when every row's targets are in ascending order.

        This is the invariant ``edge_index`` / ``edge_index_batch`` and
        the delta merge (:meth:`apply_delta`) rely on; the constructor
        enforces it, so it only reads False for arrays mutated in place.
        """
        if not self.targets.size:
            return True
        row_starts = self.offsets[:-1]
        diffs = np.diff(self.targets)
        # positions where a new row begins are exempt from ordering
        boundary = np.zeros(self.targets.size, dtype=bool)
        boundary[row_starts[row_starts < self.targets.size]] = True
        interior = ~boundary[1:]
        return not np.any(diffs[interior] < 0)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.offsets.size - 1

    @property
    def num_edge_entries(self) -> int:
        """Number of *directed* edge entries (2x edge count for undirected)."""
        return self.targets.size

    @property
    def num_undirected_edges(self) -> int:
        """Edge-entry count divided by two (meaningful for symmetric graphs)."""
        return self.targets.size // 2

    @property
    def is_weighted(self) -> bool:
        """True when an explicit weight array is present."""
        return self.weights is not None

    @property
    def is_heterogeneous(self) -> bool:
        """True when node types are attached."""
        return self.node_types is not None

    @property
    def mean_degree(self) -> float:
        """Average out-degree."""
        if self.num_nodes == 0:
            return 0.0
        return self.num_edge_entries / self.num_nodes

    def degree(self, v: int) -> int:
        """Out-degree of node ``v``."""
        return int(self.offsets[v + 1] - self.offsets[v])

    def degrees(self) -> np.ndarray:
        """Out-degree array for all nodes."""
        return np.diff(self.offsets)

    def neighbors(self, v: int) -> np.ndarray:
        """View of the (sorted) neighbour ids of ``v``."""
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Static weights of the out-edges of ``v`` (ones when unweighted)."""
        lo, hi = self.offsets[v], self.offsets[v + 1]
        if self.weights is None:
            return np.ones(hi - lo, dtype=np.float64)
        return self.weights[lo:hi]

    def edge_weight_at(self, offset) -> np.ndarray | float:
        """Static weight of the edge entry at ``offset`` (scalar or array)."""
        if self.weights is None:
            if np.isscalar(offset):
                return 1.0
            return np.ones(np.shape(offset), dtype=np.float64)
        return self.weights[offset]

    def edge_range(self, v: int) -> tuple[int, int]:
        """Half-open global offset range of node ``v``'s out-edges."""
        return int(self.offsets[v]), int(self.offsets[v + 1])

    # ------------------------------------------------------------------
    # edge lookup (binary search on sorted rows)
    # ------------------------------------------------------------------
    def edge_index(self, v: int, u: int) -> int:
        """Global offset of directed edge entry (v, u), or -1 if absent."""
        if not (0 <= v < self.num_nodes and 0 <= u < self.num_nodes):
            raise GraphError(f"edge ({v}, {u}) names a node outside [0, {self.num_nodes})")
        lo, hi = self.offsets[v], self.offsets[v + 1]
        pos = lo + np.searchsorted(self.targets[lo:hi], u)
        if pos < hi and self.targets[pos] == u:
            return int(pos)
        return -1

    def has_edge(self, v: int, u: int) -> bool:
        """True when the directed edge entry (v, u) exists."""
        return self.edge_index(v, u) >= 0

    def _node_ids(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_nodes):
            raise GraphError(f"edge lookup names a node outside [0, {self.num_nodes})")
        return ids

    def edge_index_batch(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`edge_index` for aligned ``src``/``dst`` arrays.

        Once the graph's :meth:`edge_filter` exists, a query on a row
        longer than ``FILTER_MIN_ROW`` that the filter rejects answers -1
        at once, and the short rows and the filter's hits are searched
        apart, each in O(log(its longest row)) vector passes.
        """
        shape = np.shape(src)
        src, dst = self._node_ids(src), self._node_ids(dst)
        out = np.full(src.size, -1, dtype=np.int64)
        lo, hi = self.offsets[src], self.offsets[src + 1]
        if self._edge_filter is None:
            asks = (np.flatnonzero(hi > lo),)
        else:
            long_rows = hi - lo > FILTER_MIN_ROW
            probe = np.flatnonzero(long_rows)
            h = edge_hash(src[probe], dst[probe])
            bits = filter_bits(h)
            words = self._edge_filter[h & np.uint64(self._edge_filter.size - 1)]
            asks = (np.flatnonzero((hi > lo) & ~long_rows), probe[(words & bits) == bits])
        for ask in asks:
            out[ask] = self._search_rows(lo[ask], hi[ask], dst[ask])
        return out.reshape(shape)

    def _search_rows(self, lo, hi, dst) -> np.ndarray:
        """Offset of each ``dst`` in its non-empty row ``targets[lo:hi]``, or -1."""
        pos = self._lower_bound(lo, hi, dst)
        found = (pos < hi) & (self.targets[np.minimum(pos, self.num_edge_entries - 1)] == dst)
        return np.where(found, pos, -1)

    def _lower_bound(self, lo, hi, dst) -> np.ndarray:
        """Lock-step branchless lower bound of each ``dst`` in its
        non-empty row ``targets[lo:hi]``: the offset of the row's first
        target not below it (``hi`` when there is none)."""
        base, n = lo, hi - lo
        for __ in range(int(n.max(initial=1) - 1).bit_length()):
            half = n >> 1
            mid = base + half
            base = np.where(self.targets[mid] < dst, mid, base)
            n -= half
        return base + (self.targets[base] < dst)

    def row_lower_bound(self, src, dst) -> np.ndarray:
        """Where entry ``(src, dst)`` is, or would be inserted, in the
        flat ``targets``, for aligned arrays: the offset of the first
        target of row ``src`` not below ``dst``. A source past the last
        node (one a delta appends) has an empty row at the end of
        ``targets``; ``dst`` is not range-checked."""
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        lo = self.offsets[np.minimum(src, self.num_nodes)]
        hi = self.offsets[np.minimum(src + 1, self.num_nodes)]
        pos = lo.copy()
        ask = np.flatnonzero(hi > lo)
        pos[ask] = self._lower_bound(lo[ask], hi[ask], dst[ask])
        return pos

    def has_edge_batch(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`has_edge`; builds the :meth:`edge_filter`."""
        self.edge_filter()
        return self.edge_index_batch(src, dst) >= 0

    def edge_filter(self) -> np.ndarray:
        """The adjacency filter, built on first call: key ``(v, u)`` sets
        the two :func:`filter_bits` of word ``edge_hash(v, u) & (words - 1)``
        of ``next_pow2(|E| / 4)`` (at least 8) uint64 words. The graph is
        immutable, so it never goes stale: a delta or a subgraph is a new
        graph with a filter of its own."""
        if self._edge_filter is None:
            words = max(1 << (self.num_edge_entries // 4 - 1).bit_length(), 8)
            h = edge_hash(self.edge_sources(), self.targets)
            filt = np.zeros(words, dtype=np.uint64)
            np.bitwise_or.at(filt, h & np.uint64(words - 1), filter_bits(h))
            self._edge_filter = filt
        return self._edge_filter

    # ------------------------------------------------------------------
    # derived data
    # ------------------------------------------------------------------
    def edge_sources(self) -> np.ndarray:
        """Source node of every directed edge entry (expanded from rows)."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees())

    def total_weight(self, v: int) -> float:
        """Sum of static out-edge weights of ``v``."""
        return float(self.neighbor_weights(v).sum())

    def weight_row_sums(self) -> np.ndarray:
        """Per-node sums of static out-edge weights (0.0 for empty rows)."""
        if self.weights is None:
            return self.degrees().astype(np.float64)
        prefix = np.concatenate(([0.0], np.cumsum(self.weights)))
        return prefix[self.offsets[1:]] - prefix[self.offsets[:-1]]

    def memory_bytes(self) -> int:
        """Actual bytes held by the CSR arrays (the paper's storage cost)."""
        total = self.offsets.nbytes + self.targets.nbytes
        for arr in (self.weights, self.node_types, self.edge_types):
            if arr is not None:
                total += arr.nbytes
        return total

    def apply_delta(self, delta) -> "CSRGraph":
        """Rebuilt graph with a :class:`~repro.graph.delta.GraphDelta`
        applied (vectorized merge of offsets/targets/weights/types; this
        graph is left untouched)."""
        from repro.graph.delta import apply_delta

        return apply_delta(self, delta)

    def subgraph(self, node_ids) -> tuple["CSRGraph", np.ndarray, np.ndarray]:
        """Vertex-induced subgraph with global↔local translation maps.

        Keeps exactly the edge entries whose source *and* target both lie
        in ``node_ids`` (duplicates are dropped, order is ignored). Local
        node ``i`` corresponds to global node ``node_map[i]`` with
        ``node_map`` sorted ascending, so the relabeling is monotone and
        every row stays sorted — the binary-search invariant survives for
        free. ``edge_map[j]`` is the global offset of local edge entry
        ``j`` and is strictly increasing.

        Returns ``(sub, node_map, edge_map)``. Weights and type arrays
        are sliced along; ``num_node_types``/``num_edge_types`` are
        inherited from this graph so type-conditioned samplers see the
        same type universe on every shard.
        """
        node_map = np.unique(np.asarray(node_ids, dtype=np.int64))
        if node_map.size and (node_map[0] < 0 or node_map[-1] >= self.num_nodes):
            raise GraphError("subgraph node ids out of range")
        member = np.zeros(self.num_nodes, dtype=bool)
        member[node_map] = True
        g2l = np.full(self.num_nodes, -1, dtype=np.int64)
        g2l[node_map] = np.arange(node_map.size, dtype=np.int64)
        deg = self.degrees()[node_map]
        from repro.walks._segments import concat_ranges

        flat, seg_ids = concat_ranges(self.offsets[node_map], deg)
        keep = member[self.targets[flat]]
        edge_map = flat[keep]
        counts = np.bincount(seg_ids[keep], minlength=node_map.size)
        offsets = np.zeros(node_map.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        sub = CSRGraph._from_trusted_arrays(
            offsets,
            np.ascontiguousarray(g2l[self.targets[edge_map]]),
            None if self.weights is None else np.ascontiguousarray(self.weights[edge_map]),
            None if self.node_types is None else np.ascontiguousarray(self.node_types[node_map]),
            None if self.edge_types is None else np.ascontiguousarray(self.edge_types[edge_map]),
            num_node_types=self.num_node_types,
            num_edge_types=self.num_edge_types,
        )
        return sub, node_map, edge_map

    def with_node_types(self, node_types, edge_types=None) -> "CSRGraph":
        """Return a copy of this graph with type annotations attached."""
        return CSRGraph(
            self.offsets,
            self.targets,
            self.weights,
            node_types=node_types,
            edge_types=edge_types,
        )

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def edge_list(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (src, dst, weight) arrays over all directed entries."""
        src = self.edge_sources()
        weights = (
            np.ones(self.num_edge_entries, dtype=np.float64)
            if self.weights is None
            else self.weights.copy()
        )
        return src, self.targets.copy(), weights

    def to_networkx(self):
        """Convert to a ``networkx.DiGraph`` (test/interop helper)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_nodes))
        src, dst, w = self.edge_list()
        g.add_weighted_edges_from(zip(src.tolist(), dst.tolist(), w.tolist()))
        if self.node_types is not None:
            for v in range(self.num_nodes):
                g.nodes[v]["node_type"] = int(self.node_types[v])
        return g

    @classmethod
    def from_networkx(cls, g, weight_attr: str = "weight") -> "CSRGraph":
        """Build from a networkx graph (undirected graphs are symmetrised)."""
        from repro.graph.builder import GraphBuilder

        directed = g.is_directed()
        builder = GraphBuilder(num_nodes=g.number_of_nodes(), directed=directed)
        for u, v, data in g.edges(data=True):
            builder.add_edge(int(u), int(v), float(data.get(weight_attr, 1.0)))
        node_types = None
        if all("node_type" in g.nodes[v] for v in g.nodes) and g.number_of_nodes():
            node_types = np.array([g.nodes[v]["node_type"] for v in sorted(g.nodes)], dtype=np.int16)
        graph = builder.build()
        if node_types is not None:
            graph = graph.with_node_types(node_types)
        return graph

    def __repr__(self) -> str:
        kind = "heterogeneous" if self.is_heterogeneous else "homogeneous"
        return (
            f"CSRGraph(num_nodes={self.num_nodes}, edge_entries={self.num_edge_entries}, "
            f"{kind}, weighted={self.is_weighted})"
        )
