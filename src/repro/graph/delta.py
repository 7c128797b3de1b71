"""Graph mutation: :class:`GraphDelta` and the merge-rebuild.

The rest of the library treats :class:`~repro.graph.csr.CSRGraph` as
immutable — the right call for the hot walk loops, but production graphs
evolve. This module is the mutation layer on top of that invariant:

* :class:`GraphDelta` — a validated value type describing one batch of
  edits (add/remove/reweight directed edge entries, append nodes). Deltas
  compose (:meth:`GraphDelta.compose`) and invert
  (:meth:`GraphDelta.inverse`), so an edit schedule can be replayed,
  squashed, or rolled back.
* :func:`apply_delta` — the vectorized merge-rebuild behind
  :meth:`CSRGraph.apply_delta`: one lexsort-free pass that splices added
  entries into the sorted rows, drops removed ones, and re-lays-out
  offsets/targets/weights/types.
* :class:`DeltaPlan` — the old-graph/new-graph bridge samplers consume in
  ``on_delta``: touched nodes, removed/reweighted old offsets, and the
  old→new global edge-offset remap (all computed once, shared by every
  sampler refreshing against the same delta).

Canonical form: ``apply_delta`` stores a weight array only when some
weight differs from 1.0 and an edge-type array only when the input graph
had one (or the delta introduces non-zero types). All accessors treat a
missing array as all-ones / all-zeros, so the canonicalisation is
behaviour-preserving — and it is what makes
``apply_delta(d)`` ∘ ``apply_delta(d.inverse(g))`` a *bitwise* identity.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import DeltaError
from repro.graph.csr import CSRGraph

#: Node ids in deltas must stay below this so (src, dst) pairs pack into
#: one int64 key for vectorized duplicate/overlap detection.
_MAX_ID = np.int64(1) << 31


def _as_ids(values, what: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=np.int64))
    if arr.ndim != 1:
        raise DeltaError(f"{what} must be a 1-D array of node ids")
    if arr.size and (arr.min() < 0 or arr.max() >= _MAX_ID):
        raise DeltaError(f"{what} ids must be in [0, 2^31)")
    return arr


def _pack(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """One sortable int64 key per (src, dst) pair."""
    return (src << np.int64(32)) | dst


class GraphDelta:
    """One validated batch of edge-level edits over a directed CSR graph.

    All edge arrays address *directed edge entries*; use the
    ``symmetric=True`` constructors to edit both directions of an
    undirected graph at once. Within one delta the three edge operations
    must be disjoint and duplicate-free — a delta is a set of edits, not
    a log (use :meth:`compose` to squash a log into one delta).

    Parameters
    ----------
    add_src, add_dst:
        endpoints of edge entries to insert (must not already exist).
    add_weights:
        weights of the inserted entries (default 1.0).
    add_edge_types:
        edge-type ids of the inserted entries (default 0).
    remove_src, remove_dst:
        endpoints of entries to delete (must exist).
    reweight_src, reweight_dst, reweight_weights:
        entries whose weight changes (must exist).
    add_nodes:
        number of fresh node ids appended after the current id space.
    add_node_types:
        type ids of the appended nodes (required when the graph is
        typed; ignored otherwise).
    remove_last_nodes:
        trailing node ids to drop — valid only when those nodes are
        isolated after the edge edits. Exists so :meth:`inverse` can
        undo ``add_nodes``.
    """

    __slots__ = (
        "add_src", "add_dst", "add_weights", "add_edge_types",
        "remove_src", "remove_dst",
        "reweight_src", "reweight_dst", "reweight_weights",
        "add_nodes", "add_node_types", "remove_last_nodes",
    )

    def __init__(
        self,
        *,
        add_src=(), add_dst=(), add_weights=None, add_edge_types=None,
        remove_src=(), remove_dst=(),
        reweight_src=(), reweight_dst=(), reweight_weights=(),
        add_nodes: int = 0,
        add_node_types=None,
        remove_last_nodes: int = 0,
    ):
        self.add_src = _as_ids(add_src, "add_src")
        self.add_dst = _as_ids(add_dst, "add_dst")
        self.remove_src = _as_ids(remove_src, "remove_src")
        self.remove_dst = _as_ids(remove_dst, "remove_dst")
        self.reweight_src = _as_ids(reweight_src, "reweight_src")
        self.reweight_dst = _as_ids(reweight_dst, "reweight_dst")
        if self.add_src.shape != self.add_dst.shape:
            raise DeltaError("add_src and add_dst must align")
        if self.remove_src.shape != self.remove_dst.shape:
            raise DeltaError("remove_src and remove_dst must align")
        if self.reweight_src.shape != self.reweight_dst.shape:
            raise DeltaError("reweight_src and reweight_dst must align")

        if add_weights is None:
            self.add_weights = np.ones(self.add_src.size, dtype=np.float64)
        else:
            self.add_weights = np.atleast_1d(np.asarray(add_weights, dtype=np.float64))
        if add_edge_types is None:
            self.add_edge_types = np.zeros(self.add_src.size, dtype=np.int32)
        else:
            self.add_edge_types = np.atleast_1d(np.asarray(add_edge_types, dtype=np.int32))
        self.reweight_weights = np.atleast_1d(
            np.asarray(reweight_weights, dtype=np.float64)
        )
        if self.add_weights.shape != self.add_src.shape:
            raise DeltaError("add_weights must align with add_src/add_dst")
        if self.add_edge_types.shape != self.add_src.shape:
            raise DeltaError("add_edge_types must align with add_src/add_dst")
        if self.reweight_weights.shape != self.reweight_src.shape:
            raise DeltaError("reweight_weights must align with reweight_src/reweight_dst")
        for w, what in ((self.add_weights, "add_weights"), (self.reweight_weights, "reweight_weights")):
            if w.size and (np.any(~np.isfinite(w)) or np.any(w < 0)):
                raise DeltaError(f"{what} must be finite and non-negative")
        if np.any(self.add_edge_types < 0):
            raise DeltaError("add_edge_types must be non-negative")

        self.add_nodes = int(add_nodes)
        self.remove_last_nodes = int(remove_last_nodes)
        if self.add_nodes < 0 or self.remove_last_nodes < 0:
            raise DeltaError("add_nodes / remove_last_nodes must be >= 0")
        if add_node_types is None:
            self.add_node_types = None
        else:
            self.add_node_types = np.atleast_1d(np.asarray(add_node_types, dtype=np.int16))
            if self.add_node_types.shape != (self.add_nodes,):
                raise DeltaError("add_node_types must have one entry per added node")
            if self.add_node_types.size and self.add_node_types.min() < 0:
                raise DeltaError("add_node_types must be non-negative")

        add_k = _pack(self.add_src, self.add_dst)
        rem_k = _pack(self.remove_src, self.remove_dst)
        rw_k = _pack(self.reweight_src, self.reweight_dst)
        for keys, what in ((add_k, "add"), (rem_k, "remove"), (rw_k, "reweight")):
            if keys.size != np.unique(keys).size:
                raise DeltaError(f"duplicate (src, dst) pair in the {what} set")
        for a, b, what in (
            (add_k, rem_k, "add and remove"),
            (add_k, rw_k, "add and reweight"),
            (rem_k, rw_k, "remove and reweight"),
        ):
            if np.intersect1d(a, b).size:
                raise DeltaError(f"the {what} sets overlap; a delta is a set of disjoint edits")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def add_edges(cls, src, dst, weights=None, edge_types=None, *, symmetric: bool = True) -> "GraphDelta":
        """Delta inserting edges; ``symmetric`` adds both directed entries."""
        src, dst, weights, edge_types = _expand_symmetric(src, dst, weights, edge_types, symmetric)
        return cls(add_src=src, add_dst=dst, add_weights=weights, add_edge_types=edge_types)

    @classmethod
    def remove_edges(cls, src, dst, *, symmetric: bool = True) -> "GraphDelta":
        """Delta deleting edges; ``symmetric`` removes both directed entries."""
        src, dst, __, ___ = _expand_symmetric(src, dst, None, None, symmetric)
        return cls(remove_src=src, remove_dst=dst)

    @classmethod
    def reweight_edges(cls, src, dst, weights, *, symmetric: bool = True) -> "GraphDelta":
        """Delta changing edge weights; ``symmetric`` touches both entries."""
        src, dst, weights, __ = _expand_symmetric(src, dst, weights, None, symmetric)
        return cls(reweight_src=src, reweight_dst=dst, reweight_weights=weights)

    @classmethod
    def grow(cls, count: int, node_types=None) -> "GraphDelta":
        """Delta appending ``count`` fresh (isolated) nodes."""
        return cls(add_nodes=count, add_node_types=node_types)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_ops(self) -> int:
        """Total edge edits (directed entries) in this delta."""
        return int(self.add_src.size + self.remove_src.size + self.reweight_src.size)

    def is_empty(self) -> bool:
        """True when the delta changes nothing."""
        return self.num_ops == 0 and self.add_nodes == 0 and self.remove_last_nodes == 0

    def touched_nodes(self) -> np.ndarray:
        """Sorted unique nodes whose out-row an edge edit changes."""
        return np.unique(
            np.concatenate([self.add_src, self.remove_src, self.reweight_src])
        )

    def touched_endpoints(self) -> np.ndarray:
        """Sorted unique nodes appearing on either side of an edge edit."""
        return np.unique(
            np.concatenate(
                [
                    self.add_src, self.add_dst,
                    self.remove_src, self.remove_dst,
                    self.reweight_src, self.reweight_dst,
                ]
            )
        )

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def inverse(self, graph: CSRGraph) -> "GraphDelta":
        """The delta that undoes this one.

        ``graph`` must be the *pre-application* graph (removed edges get
        their old weights/types back from it). Satisfies
        ``graph.apply_delta(d).apply_delta(d.inverse(graph))`` ==
        ``graph`` bitwise, for graphs in canonical form (see the module
        docstring).
        """
        off = graph.edge_index_batch(self.remove_src, self.remove_dst)
        if np.any(off < 0):
            raise DeltaError("inverse: a removed edge does not exist in the given graph")
        old_w = np.asarray(graph.edge_weight_at(off), dtype=np.float64)
        old_et = (
            np.zeros(off.size, dtype=np.int32)
            if graph.edge_types is None
            else graph.edge_types[off]
        )
        rw_off = graph.edge_index_batch(self.reweight_src, self.reweight_dst)
        if np.any(rw_off < 0):
            raise DeltaError("inverse: a reweighted edge does not exist in the given graph")
        inv_add_node_types = None
        if self.remove_last_nodes and graph.node_types is not None:
            inv_add_node_types = graph.node_types[graph.num_nodes - self.remove_last_nodes:]
        return GraphDelta(
            add_src=self.remove_src,
            add_dst=self.remove_dst,
            add_weights=old_w,
            add_edge_types=old_et,
            remove_src=self.add_src,
            remove_dst=self.add_dst,
            reweight_src=self.reweight_src,
            reweight_dst=self.reweight_dst,
            reweight_weights=np.asarray(graph.edge_weight_at(rw_off), dtype=np.float64),
            add_nodes=self.remove_last_nodes,
            add_node_types=inv_add_node_types,
            remove_last_nodes=self.add_nodes,
        )

    def compose(self, other: "GraphDelta") -> "GraphDelta":
        """One delta equivalent to applying ``self`` then ``other``.

        Node removal does not compose (it renumbers the tail of the id
        space); deltas carrying ``remove_last_nodes`` raise.
        """
        if self.remove_last_nodes or other.remove_last_nodes:
            raise DeltaError("deltas with remove_last_nodes do not compose")
        adds: dict[tuple[int, int], tuple[float, int]] = {
            (int(s), int(d)): (float(w), int(t))
            for s, d, w, t in zip(self.add_src, self.add_dst, self.add_weights, self.add_edge_types)
        }
        removes = {(int(s), int(d)) for s, d in zip(self.remove_src, self.remove_dst)}
        rws: dict[tuple[int, int], float] = {
            (int(s), int(d)): float(w)
            for s, d, w in zip(self.reweight_src, self.reweight_dst, self.reweight_weights)
        }
        for s, d, w, t in zip(other.add_src, other.add_dst, other.add_weights, other.add_edge_types):
            key = (int(s), int(d))
            if key in adds:
                raise DeltaError(f"compose: edge {key} added twice without a removal between")
            if key in removes:
                # remove-then-add squashes to a reweight (+ type change is
                # not representable as a reweight; keep remove+add then)
                removes.discard(key)
                rws[key] = float(w)
            else:
                adds[key] = (float(w), int(t))
        for s, d in zip(other.remove_src, other.remove_dst):
            key = (int(s), int(d))
            if key in adds:
                del adds[key]  # add-then-remove cancels
            else:
                rws.pop(key, None)  # a reweight of a now-removed edge is moot
                if key in removes:
                    raise DeltaError(f"compose: edge {key} removed twice")
                removes.add(key)
        for s, d, w in zip(other.reweight_src, other.reweight_dst, other.reweight_weights):
            key = (int(s), int(d))
            if key in adds:
                adds[key] = (float(w), adds[key][1])
            elif key in removes:
                raise DeltaError(f"compose: edge {key} reweighted after removal")
            else:
                rws[key] = float(w)
        add_node_types = self.add_node_types
        if other.add_node_types is not None or add_node_types is not None:
            parts = []
            if self.add_nodes:
                parts.append(
                    add_node_types
                    if add_node_types is not None
                    else np.zeros(self.add_nodes, dtype=np.int16)
                )
            if other.add_nodes:
                parts.append(
                    other.add_node_types
                    if other.add_node_types is not None
                    else np.zeros(other.add_nodes, dtype=np.int16)
                )
            add_node_types = np.concatenate(parts) if parts else None
        return GraphDelta(
            add_src=[k[0] for k in adds], add_dst=[k[1] for k in adds],
            add_weights=[v[0] for v in adds.values()],
            add_edge_types=[v[1] for v in adds.values()],
            remove_src=[k[0] for k in removes], remove_dst=[k[1] for k in removes],
            reweight_src=[k[0] for k in rws], reweight_dst=[k[1] for k in rws],
            reweight_weights=list(rws.values()),
            add_nodes=self.add_nodes + other.add_nodes,
            add_node_types=add_node_types,
        )

    # ------------------------------------------------------------------
    # (de)serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict; inverse of :meth:`from_dict`."""
        out: dict = {}
        if self.add_src.size:
            out["add"] = [
                [int(s), int(d), float(w), int(t)]
                for s, d, w, t in zip(self.add_src, self.add_dst, self.add_weights, self.add_edge_types)
            ]
        if self.remove_src.size:
            out["remove"] = [[int(s), int(d)] for s, d in zip(self.remove_src, self.remove_dst)]
        if self.reweight_src.size:
            out["reweight"] = [
                [int(s), int(d), float(w)]
                for s, d, w in zip(self.reweight_src, self.reweight_dst, self.reweight_weights)
            ]
        if self.add_nodes:
            out["add_nodes"] = self.add_nodes
            if self.add_node_types is not None:
                out["add_node_types"] = self.add_node_types.tolist()
        if self.remove_last_nodes:
            out["remove_last_nodes"] = self.remove_last_nodes
        return out

    @classmethod
    def from_dict(cls, data: dict, *, symmetric: bool = False) -> "GraphDelta":
        """Build a delta from a plain dict (e.g. one JSONL record).

        Keys: ``add`` (``[src, dst, weight?, edge_type?]`` rows),
        ``remove`` (``[src, dst]``), ``reweight`` (``[src, dst, weight]``),
        ``add_nodes``, ``add_node_types``, ``remove_last_nodes``,
        ``symmetric`` (expand each row to both directed entries; also
        settable via the keyword for files that omit it).
        """
        if not isinstance(data, dict):
            raise DeltaError(f"delta record must be a mapping, got {type(data).__name__}")
        known = {"add", "remove", "reweight", "add_nodes", "add_node_types",
                 "remove_last_nodes", "symmetric"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise DeltaError(f"unknown delta key(s) {unknown}; known keys: {sorted(known)}")
        symmetric = bool(data.get("symmetric", symmetric))

        def _rows(key, width_min, width_max):
            rows = data.get(key, [])
            if not isinstance(rows, (list, tuple)):
                raise DeltaError(f"delta {key!r} must be a list of rows")
            cols: list[list] = [[] for __ in range(width_max)]
            for row in rows:
                if not isinstance(row, (list, tuple)) or not width_min <= len(row) <= width_max:
                    raise DeltaError(
                        f"delta {key!r} rows need {width_min}..{width_max} fields, got {row!r}"
                    )
                for i in range(width_max):
                    cols[i].append(row[i] if i < len(row) else None)
            return cols

        a_src, a_dst, a_w, a_t = _rows("add", 2, 4)
        r_src, r_dst = _rows("remove", 2, 2)
        w_src, w_dst, w_w = _rows("reweight", 3, 3)
        a_w = [1.0 if w is None else w for w in a_w]
        a_t = [0 if t is None else t for t in a_t]
        if symmetric:
            a_src, a_dst, a_w, a_t = _expand_symmetric(a_src, a_dst, a_w, a_t, True)
            r_src, r_dst, __, ___ = _expand_symmetric(r_src, r_dst, None, None, True)
            w_src, w_dst, w_w, __ = _expand_symmetric(w_src, w_dst, w_w, None, True)
        return cls(
            add_src=a_src, add_dst=a_dst, add_weights=a_w, add_edge_types=a_t,
            remove_src=r_src, remove_dst=r_dst,
            reweight_src=w_src, reweight_dst=w_dst, reweight_weights=w_w,
            add_nodes=int(data.get("add_nodes", 0)),
            add_node_types=data.get("add_node_types"),
            remove_last_nodes=int(data.get("remove_last_nodes", 0)),
        )

    def __repr__(self) -> str:
        return (
            f"GraphDelta(add={self.add_src.size}, remove={self.remove_src.size}, "
            f"reweight={self.reweight_src.size}, add_nodes={self.add_nodes})"
        )


def _expand_symmetric(src, dst, weights, edge_types, symmetric: bool):
    src = _as_ids(src, "src")
    dst = _as_ids(dst, "dst")
    if weights is None:
        weights = np.ones(src.size, dtype=np.float64)
    else:
        weights = np.atleast_1d(np.asarray(weights, dtype=np.float64))
    if edge_types is None:
        edge_types = np.zeros(src.size, dtype=np.int32)
    else:
        edge_types = np.atleast_1d(np.asarray(edge_types, dtype=np.int32))
    if not symmetric:
        return src, dst, weights, edge_types
    if np.any(src == dst):
        raise DeltaError("symmetric edits cannot include self-loops; use the directed form")
    return (
        np.concatenate([src, dst]),
        np.concatenate([dst, src]),
        np.concatenate([weights, weights]),
        np.concatenate([edge_types, edge_types]),
    )


# ----------------------------------------------------------------------
# the merge-rebuild
# ----------------------------------------------------------------------
def apply_delta(graph: CSRGraph, delta: GraphDelta) -> CSRGraph:
    """Apply ``delta`` to ``graph`` and return the rebuilt CSR.

    The rebuild is vectorized: removed entries are masked, reweights are
    written in place, added entries are merge-inserted into the sorted
    rows via one ``lexsort`` over the (small) addition set, and offsets
    are recomputed with one ``bincount``. Cost is O(|E| + |delta| log
    |delta|) — a memcpy-dominated pass, not a per-edge Python loop.
    """
    if not graph.is_sorted:
        raise DeltaError("apply_delta requires sorted CSR rows")
    n = graph.num_nodes
    mid_n = n + delta.add_nodes
    new_n = mid_n - delta.remove_last_nodes
    if new_n < 0:
        raise DeltaError("remove_last_nodes exceeds the node count")
    for arr, what in (
        (delta.remove_src, "remove_src"), (delta.remove_dst, "remove_dst"),
        (delta.reweight_src, "reweight_src"), (delta.reweight_dst, "reweight_dst"),
    ):
        if arr.size and arr.max() >= n:
            raise DeltaError(f"{what} references a node outside the graph")
    for arr, what in ((delta.add_src, "add_src"), (delta.add_dst, "add_dst")):
        if arr.size and arr.max() >= mid_n:
            raise DeltaError(f"{what} references a node outside the (grown) graph")

    src = graph.edge_sources()
    dst = graph.targets
    weights = (
        np.ones(dst.size, dtype=np.float64) if graph.weights is None else graph.weights.copy()
    )
    etypes = (
        np.zeros(dst.size, dtype=np.int32) if graph.edge_types is None else graph.edge_types.copy()
    )

    keep = np.ones(dst.size, dtype=bool)
    if delta.remove_src.size:
        off = graph.edge_index_batch(delta.remove_src, delta.remove_dst)
        if np.any(off < 0):
            i = int(np.flatnonzero(off < 0)[0])
            raise DeltaError(
                f"cannot remove edge ({delta.remove_src[i]}, {delta.remove_dst[i]}): not present"
            )
        keep[off] = False
    if delta.reweight_src.size:
        off = graph.edge_index_batch(delta.reweight_src, delta.reweight_dst)
        if np.any(off < 0):
            i = int(np.flatnonzero(off < 0)[0])
            raise DeltaError(
                f"cannot reweight edge ({delta.reweight_src[i]}, {delta.reweight_dst[i]}): not present"
            )
        weights[off] = delta.reweight_weights
    if delta.add_src.size:
        in_old = (delta.add_src < n) & (delta.add_dst < n)
        if in_old.any():
            off = graph.edge_index_batch(delta.add_src[in_old], delta.add_dst[in_old])
            if np.any(off >= 0):
                i = int(np.flatnonzero(off >= 0)[0])
                s = delta.add_src[in_old][i]
                d = delta.add_dst[in_old][i]
                raise DeltaError(
                    f"cannot add edge ({s}, {d}): already present (use reweight)"
                )

    order = np.lexsort((delta.add_dst, delta.add_src))
    a_src = delta.add_src[order]
    a_dst = delta.add_dst[order]
    a_w = delta.add_weights[order]
    a_t = delta.add_edge_types[order]

    new_src = np.concatenate([src[keep], a_src])
    new_dst = np.concatenate([dst[keep], a_dst])
    new_w = np.concatenate([weights[keep], a_w])
    new_t = np.concatenate([etypes[keep], a_t])
    merge = np.lexsort((new_dst, new_src))
    new_src, new_dst = new_src[merge], new_dst[merge]
    new_w, new_t = new_w[merge], new_t[merge]

    if delta.remove_last_nodes:
        dropped = np.arange(new_n, mid_n)
        if np.isin(new_src, dropped).any() or np.isin(new_dst, dropped).any():
            raise DeltaError(
                "remove_last_nodes: trailing nodes still carry edges after the edge edits"
            )

    offsets = np.zeros(new_n + 1, dtype=np.int64)
    if new_src.size:
        counts = np.bincount(new_src, minlength=new_n)
        np.cumsum(counts, out=offsets[1:])

    node_types = graph.node_types
    if node_types is not None:
        extra = (
            delta.add_node_types
            if delta.add_node_types is not None
            else np.zeros(delta.add_nodes, dtype=np.int16)
        )
        node_types = np.concatenate([node_types, extra])[:new_n]
    elif delta.add_node_types is not None:
        raise DeltaError("add_node_types given but the graph is untyped")

    # canonical form (see module docstring)
    out_w = None if not new_w.size or np.all(new_w == 1.0) else new_w
    keep_types = graph.edge_types is not None or np.any(new_t != 0)
    out_t = new_t if keep_types else None
    return CSRGraph(offsets, new_dst, weights=out_w, node_types=node_types, edge_types=out_t)


# ----------------------------------------------------------------------
# the sampler-facing bridge
# ----------------------------------------------------------------------
class DeltaPlan:
    """Everything a sampler needs to refresh against one applied delta.

    Built once per mutation and shared: old graph, new graph, the delta,
    the touched-node set, the old offsets of removed/reweighted entries,
    and (lazily) the old→new global edge-offset remap.
    """

    def __init__(self, old_graph: CSRGraph, new_graph: CSRGraph, delta: GraphDelta):
        self.old_graph = old_graph
        self.new_graph = new_graph
        self.delta = delta
        self._remap: np.ndarray | None = None
        self._removed_old: np.ndarray | None = None
        self._reweighted_old: np.ndarray | None = None
        self._add_positions: np.ndarray | None = None

    @classmethod
    def build(cls, graph: CSRGraph, delta: GraphDelta) -> "DeltaPlan":
        """Apply ``delta`` to ``graph`` and wrap the pair in a plan."""
        return cls(graph, apply_delta(graph, delta), delta)

    # -- touched sets ----------------------------------------------------
    def touched_nodes(self) -> np.ndarray:
        """Nodes whose out-row changed (sorted unique)."""
        return self.delta.touched_nodes()

    def removed_old_offsets(self) -> np.ndarray:
        """Old global offsets of removed entries (sorted)."""
        if self._removed_old is None:
            off = self.old_graph.edge_index_batch(self.delta.remove_src, self.delta.remove_dst)
            self._removed_old = np.sort(off)
        return self._removed_old

    def reweighted_old_offsets(self) -> np.ndarray:
        """Old global offsets of reweighted entries (sorted)."""
        if self._reweighted_old is None:
            off = self.old_graph.edge_index_batch(self.delta.reweight_src, self.delta.reweight_dst)
            self._reweighted_old = np.sort(off)
        return self._reweighted_old

    def touched_old_offsets(self) -> np.ndarray:
        """Old offsets whose entry was removed or reweighted (sorted)."""
        return np.union1d(self.removed_old_offsets(), self.reweighted_old_offsets())

    def _added_insert_positions(self) -> np.ndarray:
        """Old-array insertion position of each added entry (sorted).

        An added edge (s, u) lands at ``old.offsets[s] + rank of u in
        s's old row`` — the count of *old* entries that precede it in the
        merged layout.
        """
        if self._add_positions is None:
            d = self.delta
            lo = self.old_graph.offsets[np.minimum(d.add_src, self.old_graph.num_nodes - 1)]
            hi = self.old_graph.offsets[np.minimum(d.add_src + 1, self.old_graph.num_nodes)]
            pos = np.empty(d.add_src.size, dtype=np.int64)
            # new nodes have no old row; they insert at the array end
            tail = d.add_src >= self.old_graph.num_nodes
            for i in range(d.add_src.size):
                if tail[i]:
                    pos[i] = self.old_graph.num_edge_entries
                else:
                    row = self.old_graph.targets[lo[i]:hi[i]]
                    pos[i] = lo[i] + np.searchsorted(row, d.add_dst[i])
            self._add_positions = np.sort(pos)
        return self._add_positions

    # -- the offset remap ------------------------------------------------
    def edge_remap(self) -> np.ndarray:
        """int64 array: old global edge offset → new offset (-1 if removed).

        Computed arithmetically from the delta (rank shifts from sorted
        removal/insertion positions), not by re-searching the new graph —
        two ``searchsorted`` passes over |E| against the (small) delta.
        """
        if self._remap is None:
            m = self.old_graph.num_edge_entries
            old = np.arange(m, dtype=np.int64)
            removed = self.removed_old_offsets()
            added = self._added_insert_positions()
            shift = (
                np.searchsorted(added, old, side="right")
                - np.searchsorted(removed, old, side="right")
            )
            remap = old + shift
            if removed.size:
                remap[removed] = -1
            self._remap = remap
        return self._remap

    def remap_offsets(self, offsets: np.ndarray) -> np.ndarray:
        """Remap an array of old edge offsets; -1 entries pass through."""
        offsets = np.asarray(offsets, dtype=np.int64)
        remap = self.edge_remap()
        safe = np.clip(offsets, 0, max(remap.size - 1, 0))
        out = np.where(offsets >= 0, remap[safe] if remap.size else -1, -1)
        return out.astype(np.int64, copy=False)


# ----------------------------------------------------------------------
# delta file IO
# ----------------------------------------------------------------------
def save_deltas(deltas, path) -> Path:
    """Write a delta schedule as JSONL (one delta per line)."""
    path = Path(path)
    with open(path, "w") as fh:
        for delta in deltas:
            fh.write(json.dumps(delta.to_dict()) + "\n")
    return path


def load_deltas(path, *, symmetric: bool = False) -> list[GraphDelta]:
    """Read a delta schedule from ``.jsonl`` (one record per line) or
    ``.npz`` (arrays ``add_src``/``add_dst``/``add_weights``/
    ``add_edge_types``/``remove_src``/``remove_dst``/``reweight_src``/
    ``reweight_dst``/``reweight_weights`` plus scalar ``add_nodes``,
    interpreted as a single delta)."""
    path = Path(path)
    if path.suffix == ".npz":
        with np.load(path) as data:
            kwargs = {key: data[key] for key in data.files if key != "add_nodes"}
            if "add_nodes" in data.files:
                kwargs["add_nodes"] = int(data["add_nodes"])
        return [GraphDelta(**kwargs)]
    deltas = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise DeltaError(f"{path}:{line_no}: not valid JSON: {err}") from None
            deltas.append(GraphDelta.from_dict(record, symmetric=symmetric))
    return deltas
