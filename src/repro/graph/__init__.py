"""Graph substrate: CSR storage, builders, IO, generators and datasets.

The in-memory layout follows Section IV-C of the paper: compressed sparse
row (CSR) with a node offset array and an edge target array, an optional
per-edge weight array, and optional per-node / per-edge type arrays for
heterogeneous networks.
"""

from repro.graph.builder import GraphBuilder
from repro.graph.components import (
    connected_components,
    induced_subgraph,
    largest_component,
    remap_labels,
)
from repro.graph.csr import CSRGraph
from repro.graph.delta import (
    DeltaPlan,
    GraphDelta,
    apply_delta,
    load_deltas,
    save_deltas,
)
from repro.graph.io import (
    load_edge_list,
    load_npz,
    save_edge_list,
    save_npz,
)
from repro.graph.stats import graph_statistics

__all__ = [
    "CSRGraph",
    "GraphBuilder",
    "GraphDelta",
    "DeltaPlan",
    "apply_delta",
    "load_deltas",
    "save_deltas",
    "load_edge_list",
    "save_edge_list",
    "load_npz",
    "save_npz",
    "graph_statistics",
    "connected_components",
    "largest_component",
    "induced_subgraph",
    "remap_labels",
]
