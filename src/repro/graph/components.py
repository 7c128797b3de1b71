"""Connectivity utilities: components and induced subgraphs.

Random-walk NRL pipelines conventionally embed the largest connected
component (walks cannot cross components, so small islands only dilute
the corpus); the paper's datasets are distributed that way. These helpers
provide that preprocessing for arbitrary inputs: component labelling via
frontier BFS over the CSR arrays, induced subgraphs with dense
relabelling, and label-set remapping.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.labels import NodeLabels


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Component id per node (ids are dense, assigned in discovery order).

    Edges are treated as undirected: for the library's symmetric graphs
    this is exact; for directed inputs it yields weakly connected
    components of the stored arcs.
    """
    n = graph.num_nodes
    labels = np.full(n, -1, dtype=np.int64)
    current = 0
    for seed in range(n):
        if labels[seed] >= 0:
            continue
        labels[seed] = current
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            flat = []
            for v in frontier:
                flat.append(graph.neighbors(int(v)))
            neighbors = np.unique(np.concatenate(flat)) if flat else np.empty(0, np.int64)
            fresh = neighbors[labels[neighbors] < 0]
            labels[fresh] = current
            frontier = fresh
        current += 1
    return labels


def component_sizes(labels: np.ndarray) -> np.ndarray:
    """Size of each component id."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.bincount(labels)


def induced_subgraph(graph: CSRGraph, nodes) -> tuple[CSRGraph, np.ndarray]:
    """Subgraph on ``nodes`` with dense relabelling.

    Returns ``(subgraph, kept)`` where ``kept`` is the sorted array of
    original node ids; new id ``i`` corresponds to ``kept[i]``. Weights
    and node/edge types are carried over, and the type universe
    (``num_node_types`` / ``num_edge_types``) is the parent graph's
    (:meth:`CSRGraph.subgraph <repro.graph.csr.CSRGraph.subgraph>`).
    """
    kept = np.unique(np.asarray(nodes, dtype=np.int64))
    if kept.size == 0:
        raise GraphError("subgraph needs at least one node")
    if kept[0] < 0 or kept[-1] >= graph.num_nodes:
        raise GraphError("subgraph node ids out of range")
    return graph.subgraph(kept)[:2]


def largest_component(graph: CSRGraph) -> tuple[CSRGraph, np.ndarray]:
    """The induced subgraph of the largest connected component.

    Returns ``(subgraph, kept)`` as in :func:`induced_subgraph`.
    """
    labels = connected_components(graph)
    if labels.size == 0:
        raise GraphError("graph has no nodes")
    biggest = int(np.argmax(component_sizes(labels)))
    return induced_subgraph(graph, np.flatnonzero(labels == biggest))


def remap_labels(labels: NodeLabels, kept: np.ndarray) -> NodeLabels:
    """Restrict a :class:`NodeLabels` to a subgraph's kept nodes.

    ``kept`` is the array returned by :func:`induced_subgraph`; the
    resulting labels use the *new* dense node ids.
    """
    kept = np.asarray(kept, dtype=np.int64)
    new_id = {int(old): new for new, old in enumerate(kept)}
    positions = [i for i, node in enumerate(labels.node_ids) if int(node) in new_id]
    if not positions:
        raise GraphError("no labeled nodes inside the subgraph")
    subset = labels.subset(np.asarray(positions))
    new_node_ids = np.array([new_id[int(v)] for v in subset.node_ids], dtype=np.int64)
    if subset.is_multilabel:
        return NodeLabels(new_node_ids, subset.indicator_matrix())
    return NodeLabels(new_node_ids, subset.class_ids())
