"""Heterogeneous network support.

metapath2vec and edge2vec operate on typed networks. This module provides:

* :func:`assign_random_types` — the technique the paper uses in Section
  V-D to run heterogeneous models on homogeneous billion-edge networks
  ("we adopt the method in [KnightKing] to randomly generate type
  information for the networks");
* :func:`derive_edge_types` — canonical edge-type ids from endpoint node
  types (what edge2vec's transition matrix is indexed by);
* :func:`academic_graph` — a synthetic author/paper/venue network with
  planted research areas, standing in for ACM/DBLP/DBIS/AMiner;
* metapath parsing helpers.
"""

from __future__ import annotations

import numpy as np

from repro.config import check_counts
from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph
from repro.graph.generators import _edge_weights
from repro.graph.labels import NodeLabels
from repro.utils.rng import as_rng

#: Conventional letters for academic metapaths.
ACADEMIC_TYPE_NAMES = {"A": 0, "P": 1, "V": 2}

AUTHOR_TYPE, PAPER_TYPE, VENUE_TYPE = 0, 1, 2


def parse_metapath(spec, type_names=None) -> list[int]:
    """Turn a metapath spec into a list of node-type ids.

    Accepts either a string of type letters (``"APVPA"``) resolved through
    ``type_names`` (default: A/P/V), or an iterable of integer type ids.
    The walk engine treats the path as cyclic after the first node.
    """
    if isinstance(spec, str):
        names = ACADEMIC_TYPE_NAMES if type_names is None else type_names
        try:
            path = [names[ch] for ch in spec]
        except KeyError as exc:
            raise GraphError(f"unknown metapath letter {exc.args[0]!r} in {spec!r}") from exc
    else:
        path = [int(t) for t in spec]
    if len(path) < 2:
        raise GraphError("a metapath needs at least two node types")
    if any(t < 0 for t in path):
        raise GraphError("metapath type ids must be non-negative")
    return path


def assign_random_types(graph: CSRGraph, num_types: int, *, seed=None) -> CSRGraph:
    """Attach uniformly random node types (and derived edge types).

    This is the paper's Section V-D device for evaluating heterogeneous
    models on homogeneous networks.
    """
    check_counts({"num_types": num_types}, error=GraphError)
    rng = as_rng(seed)
    node_types = rng.integers(0, num_types, size=graph.num_nodes).astype(np.int16)
    edge_types = derive_edge_types(graph, node_types, num_types)
    return graph.with_node_types(node_types, edge_types)


def derive_edge_types(graph: CSRGraph, node_types: np.ndarray, num_types: int) -> np.ndarray:
    """Canonical symmetric edge-type id for every directed edge entry.

    Edge (v, u) gets the id of the unordered type pair
    ``{type(v), type(u)}``, so both directions of an undirected edge share
    one id — the property edge2vec's type-transition matrix expects.
    There are ``num_types * (num_types + 1) / 2`` possible ids.
    """
    src_t = node_types[graph.edge_sources()].astype(np.int64)
    dst_t = node_types[graph.targets].astype(np.int64)
    lo = np.minimum(src_t, dst_t)
    hi = np.maximum(src_t, dst_t)
    # rank of pair (lo, hi) with lo <= hi in the upper-triangular ordering
    ids = lo * num_types - lo * (lo - 1) // 2 + (hi - lo)
    return ids.astype(np.int32)


def num_symmetric_edge_types(num_types: int) -> int:
    """Number of distinct unordered type pairs over ``num_types`` types."""
    return num_types * (num_types + 1) // 2


def academic_graph(
    num_authors: int = 800,
    num_papers: int = 1200,
    num_venues: int = 20,
    *,
    num_areas: int = 4,
    max_coauthors: int = 3,
    area_fidelity: float = 0.85,
    weight_mode=None,
    seed=None,
) -> tuple[CSRGraph, NodeLabels]:
    """Synthetic author-paper-venue network with planted research areas.

    Construction: venues are split evenly over ``num_areas`` research
    areas; every author has a home area; every paper picks a primary
    author, inherits that author's area with probability
    ``area_fidelity`` (else a random area), is published at a random venue
    of its area, and gains up to ``max_coauthors`` extra authors biased
    toward the paper's area. The resulting A-P-V structure carries the
    community signal that metapath2vec's "APA"/"APVPA" walks exploit, so
    author-area classification works just like the paper's AMiner task.

    Returns the typed graph (types: author=0, paper=1, venue=2) and
    single-label author-area :class:`NodeLabels` over author nodes.
    """
    check_counts({"num_areas": num_areas}, section="academic_graph ", error=GraphError, minimum=2)
    if num_venues < num_areas:
        raise GraphError("need at least one venue per area")
    rng = as_rng(seed)
    venue_area = np.arange(num_venues) % num_areas
    author_area = rng.integers(0, num_areas, size=num_authors)

    primary = rng.integers(0, num_authors, size=num_papers)
    inherit = rng.random(num_papers) < area_fidelity
    paper_area = np.where(inherit, author_area[primary], rng.integers(0, num_areas, num_papers))

    # venue of each paper: uniform among venues of the paper's area
    venues_by_area = [np.flatnonzero(venue_area == a) for a in range(num_areas)]
    paper_venue = np.empty(num_papers, dtype=np.int64)
    for a in range(num_areas):
        papers_a = np.flatnonzero(paper_area == a)
        if papers_a.size:
            paper_venue[papers_a] = rng.choice(venues_by_area[a], size=papers_a.size)

    # authorship edges: the primary author plus same-area-biased coauthors
    authors_by_area = [np.flatnonzero(author_area == a) for a in range(num_areas)]
    ap_src = [primary]
    ap_dst = [np.arange(num_papers, dtype=np.int64)]
    extra_counts = rng.integers(0, max_coauthors + 1, size=num_papers)
    for k in range(1, max_coauthors + 1):
        papers_k = np.flatnonzero(extra_counts >= k)
        if papers_k.size == 0:
            continue
        same_area = rng.random(papers_k.size) < area_fidelity
        coauthors = rng.integers(0, num_authors, size=papers_k.size)
        for a in range(num_areas):
            mask = same_area & (paper_area[papers_k] == a)
            if mask.any() and authors_by_area[a].size:
                coauthors[mask] = rng.choice(authors_by_area[a], size=int(mask.sum()))
        ap_src.append(coauthors)
        ap_dst.append(papers_k)

    author_offset = 0
    paper_offset = num_authors
    venue_offset = num_authors + num_papers
    n = num_authors + num_papers + num_venues

    builder = GraphBuilder(num_nodes=n, directed=False, duplicate_policy="first")
    src = np.concatenate(ap_src) + author_offset
    dst = np.concatenate(ap_dst) + paper_offset
    ap_w = _edge_weights(src.size, weight_mode, rng)
    builder.add_edges(src, dst, ap_w)
    pv_w = _edge_weights(num_papers, weight_mode, rng)
    builder.add_edges(
        np.arange(num_papers, dtype=np.int64) + paper_offset,
        paper_venue + venue_offset,
        pv_w,
    )
    node_types = np.concatenate(
        [
            np.full(num_authors, AUTHOR_TYPE, dtype=np.int16),
            np.full(num_papers, PAPER_TYPE, dtype=np.int16),
            np.full(num_venues, VENUE_TYPE, dtype=np.int16),
        ]
    )
    builder.set_node_types(node_types)
    graph = builder.build()
    edge_types = derive_edge_types(graph, node_types, num_types=3)
    graph = graph.with_node_types(node_types, edge_types)
    labels = NodeLabels(np.arange(num_authors) + author_offset, author_area)
    return graph, labels
