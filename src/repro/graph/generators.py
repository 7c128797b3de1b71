"""Synthetic graph generators.

These stand in for the paper's real-world datasets (Table V). What matters
for reproducing the paper's *behaviour* is the shape of the degree
distribution (power-law vs flat), edge-weight skew, community structure
(for the classification accuracy experiments) and scale — all of which are
parameters here.

All generators are fully vectorised and deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from repro.config import check_counts, check_reals
from repro.errors import GraphError
from repro.graph.builder import GraphBuilder, from_edge_arrays
from repro.graph.csr import CSRGraph
from repro.graph.labels import NodeLabels
from repro.utils.rng import as_rng

WEIGHT_MODES = (None, "unit", "uniform", "exponential")


def _edge_weights(num_edges: int, weight_mode, rng) -> np.ndarray | None:
    """Draw per-edge static weights for a weight mode (None = unweighted)."""
    if weight_mode in (None, "unit"):
        return None
    if weight_mode == "uniform":
        return rng.uniform(0.5, 1.5, size=num_edges)
    if weight_mode == "exponential":
        # Heavy-ish tail; the +0.05 floor keeps weights strictly positive.
        return rng.exponential(1.0, size=num_edges) + 0.05
    raise GraphError(f"unknown weight_mode {weight_mode!r}; choose from {WEIGHT_MODES}")


def _finish(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    *,
    weight_mode,
    rng,
    connect_isolated: bool = True,
) -> CSRGraph:
    """Filter self-loops/dups, optionally patch isolated nodes, build CSR.

    Sampled pairs are canonicalised and de-duplicated *before* weights are
    drawn, so both directions of every undirected edge share one weight
    (duplicate pairs sampled in opposite orientations would otherwise end
    up with direction-dependent weights).
    """
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if connect_isolated and num_nodes > 1:
        touched = np.zeros(num_nodes, dtype=bool)
        touched[src] = True
        touched[dst] = True
        isolated = np.flatnonzero(~touched)
        if isolated.size:
            partners = rng.integers(0, num_nodes - 1, size=isolated.size)
            partners = np.where(partners >= isolated, partners + 1, partners)
            src = np.concatenate([src, isolated])
            dst = np.concatenate([dst, partners])
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    key = np.unique(lo * np.int64(num_nodes) + hi)
    lo, hi = key // num_nodes, key % num_nodes
    weights = _edge_weights(lo.size, weight_mode, rng)
    return from_edge_arrays(
        lo,
        hi,
        weights,
        num_nodes=num_nodes,
        directed=False,
        duplicate_policy="error",
    )


# ----------------------------------------------------------------------
# small deterministic graphs (tests and documentation examples)
# ----------------------------------------------------------------------
def path_graph(n: int) -> CSRGraph:
    """Undirected path 0-1-...-(n-1)."""
    check_counts({"n": n}, section="path_graph ", error=GraphError, minimum=2)
    idx = np.arange(n - 1, dtype=np.int64)
    return from_edge_arrays(idx, idx + 1, num_nodes=n)


def cycle_graph(n: int) -> CSRGraph:
    """Undirected cycle on n nodes."""
    check_counts({"n": n}, section="cycle_graph ", error=GraphError, minimum=3)
    idx = np.arange(n, dtype=np.int64)
    return from_edge_arrays(idx, (idx + 1) % n, num_nodes=n)


def complete_graph(n: int) -> CSRGraph:
    """Undirected clique on n nodes."""
    check_counts({"n": n}, section="complete_graph ", error=GraphError, minimum=2)
    src, dst = np.triu_indices(n, k=1)
    return from_edge_arrays(src.astype(np.int64), dst.astype(np.int64), num_nodes=n)


def star_graph(n: int) -> CSRGraph:
    """Node 0 connected to nodes 1..n-1."""
    check_counts({"n": n}, section="star_graph ", error=GraphError, minimum=2)
    leaves = np.arange(1, n, dtype=np.int64)
    return from_edge_arrays(np.zeros(n - 1, dtype=np.int64), leaves, num_nodes=n)


def barbell_graph(clique_size: int, bridge_length: int = 1) -> CSRGraph:
    """Two cliques joined by a path — handy for community-structure tests."""
    check_counts({"clique_size": clique_size}, section="barbell_graph ", error=GraphError, minimum=2)
    builder = GraphBuilder(directed=False)
    a_src, a_dst = np.triu_indices(clique_size, k=1)
    builder.add_edges(a_src, a_dst)
    offset = clique_size + max(bridge_length - 1, 0)
    builder.add_edges(a_src + offset, a_dst + offset)
    chain = np.arange(clique_size - 1, offset + 1, dtype=np.int64)
    builder.add_edges(chain[:-1], chain[1:])
    return builder.build()


# ----------------------------------------------------------------------
# random graph families
# ----------------------------------------------------------------------
def erdos_renyi(n: int, avg_degree: float, *, weight_mode=None, seed=None) -> CSRGraph:
    """G(n, m) with m chosen so the mean (undirected) degree ≈ avg_degree."""
    check_counts({"n": n}, section="erdos_renyi ", error=GraphError, minimum=2)
    check_reals({"avg_degree": avg_degree}, section="erdos_renyi ", error=GraphError)
    rng = as_rng(seed)
    m = max(int(round(n * avg_degree / 2)), 1)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    return _finish(src, dst, n, weight_mode=weight_mode, rng=rng)


def chung_lu_power_law(
    n: int,
    avg_degree: float,
    *,
    exponent: float = 2.5,
    weight_mode=None,
    seed=None,
) -> CSRGraph:
    """Chung-Lu graph with a power-law expected-degree sequence.

    Endpoint i of every edge is drawn with probability proportional to
    ``(i + i0) ** (-1 / (exponent - 1))``, yielding degrees that follow a
    power law with the given ``exponent`` — the shape of the paper's
    social-network datasets (YouTube, LiveJournal, Flickr, ...).
    """
    check_counts({"n": n}, section="chung_lu_power_law ", error=GraphError, minimum=2)
    check_reals({"avg_degree": avg_degree}, section="chung_lu_power_law ", error=GraphError)
    check_reals({"exponent": exponent}, None, "chung_lu_power_law ", GraphError, "(1, inf)")
    rng = as_rng(seed)
    m = max(int(round(n * avg_degree / 2)), 1)
    ranks = np.arange(n, dtype=np.float64) + 10.0
    props = ranks ** (-1.0 / (exponent - 1.0))
    props /= props.sum()
    src = rng.choice(n, size=m, p=props)
    dst = rng.choice(n, size=m, p=props)
    return _finish(src, dst, n, weight_mode=weight_mode, rng=rng)


def rmat(
    scale: int,
    edge_factor: float = 16.0,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    weight_mode=None,
    seed=None,
) -> CSRGraph:
    """R-MAT graph on ``2**scale`` nodes with heavy-tailed degrees.

    The (a, b, c, d=1-a-b-c) quadrant probabilities default to the
    Graph500 values, which produce the highly skewed degree distributions
    of web/twitter crawls — the regime of the paper's billion-edge tables.
    """
    if scale < 1 or scale > 28:
        raise GraphError("scale must be in [1, 28]")
    check_reals({"edge_factor": edge_factor}, section="rmat ", error=GraphError)
    check_reals({"a": a, "b": b, "c": c}, None, "rmat ", GraphError, "[0, 1]")
    d = 1.0 - a - b - c
    if d < 0:
        raise GraphError("quadrant probabilities must be non-negative")
    rng = as_rng(seed)
    n = 1 << scale
    m = max(int(round(n * edge_factor / 2)), 1)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _ in range(scale):
        src <<= 1
        dst <<= 1
        u = rng.random(m)
        v = rng.random(m)
        # choose the row half, then the column half conditioned on it
        bottom = u >= (a + b)
        p_right = np.where(bottom, d / max(c + d, 1e-12), b / max(a + b, 1e-12))
        right = v < p_right
        src += bottom
        dst += right
    return _finish(src, dst, n, weight_mode=weight_mode, rng=rng)


# ----------------------------------------------------------------------
# labelled community graphs (classification experiments)
# ----------------------------------------------------------------------
def planted_partition(
    n: int,
    num_communities: int,
    *,
    within_degree: float = 12.0,
    between_degree: float = 3.0,
    weight_mode=None,
    seed=None,
) -> tuple[CSRGraph, NodeLabels]:
    """Single-label community graph (Reddit-style multi-class setting).

    Each node belongs to exactly one community; ``within_degree`` /
    ``between_degree`` control the expected intra/inter community degree.
    Returns the graph plus single-label :class:`NodeLabels` over all nodes.
    """
    check_counts({"num_communities": num_communities}, None, "planted_partition ", GraphError, 2)
    if n < 2 * num_communities:
        raise GraphError("n too small for the community count")
    rng = as_rng(seed)
    community = rng.integers(0, num_communities, size=n)
    # intra-community edges: sample both endpoints within the same community
    m_in = max(int(round(n * within_degree / 2)), 1)
    members: list[np.ndarray] = [np.flatnonzero(community == c) for c in range(num_communities)]
    sizes = np.array([m.size for m in members], dtype=np.float64)
    probs = sizes / sizes.sum()
    counts = rng.multinomial(m_in, probs)
    src_parts = []
    dst_parts = []
    for c, cnt in enumerate(counts):
        if cnt == 0 or members[c].size < 2:
            continue
        src_parts.append(rng.choice(members[c], size=cnt))
        dst_parts.append(rng.choice(members[c], size=cnt))
    # inter-community edges: unconstrained endpoints
    m_out = max(int(round(n * between_degree / 2)), 1)
    src_parts.append(rng.integers(0, n, size=m_out))
    dst_parts.append(rng.integers(0, n, size=m_out))
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    graph = _finish(src, dst, n, weight_mode=weight_mode, rng=rng)
    labels = NodeLabels(np.arange(n), community)
    return graph, labels


def overlapping_communities(
    n: int,
    num_communities: int,
    *,
    avg_memberships: float = 1.6,
    within_degree: float = 16.0,
    background_degree: float = 4.0,
    weight_mode=None,
    seed=None,
) -> tuple[CSRGraph, NodeLabels]:
    """Multi-label community graph (BlogCatalog/Flickr-style groups).

    Every node joins 1..4 communities (mean ``avg_memberships``); edges are
    drawn mostly within shared communities plus uniform background noise.
    Returns the graph and a multi-label indicator :class:`NodeLabels`.
    """
    check_counts({"num_communities": num_communities}, None, "overlapping_communities ", GraphError, 2)
    rng = as_rng(seed)
    # membership counts in {1, 2, 3, 4} with the requested mean
    extra = np.clip(rng.poisson(max(avg_memberships - 1.0, 0.0), size=n), 0, 3)
    member_counts = 1 + extra
    y = np.zeros((n, num_communities), dtype=bool)
    for k in range(1, 5):
        nodes_k = np.flatnonzero(member_counts == k)
        if nodes_k.size == 0:
            continue
        for __ in range(k):
            y[nodes_k, rng.integers(0, num_communities, size=nodes_k.size)] = True
    # community edge sampling proportional to community size
    members = [np.flatnonzero(y[:, c]) for c in range(num_communities)]
    sizes = np.array([max(m.size, 1) for m in members], dtype=np.float64)
    probs = sizes / sizes.sum()
    m_in = max(int(round(n * within_degree / 2)), 1)
    counts = rng.multinomial(m_in, probs)
    src_parts = []
    dst_parts = []
    for c, cnt in enumerate(counts):
        if cnt == 0 or members[c].size < 2:
            continue
        src_parts.append(rng.choice(members[c], size=cnt))
        dst_parts.append(rng.choice(members[c], size=cnt))
    m_bg = max(int(round(n * background_degree / 2)), 1)
    src_parts.append(rng.integers(0, n, size=m_bg))
    dst_parts.append(rng.integers(0, n, size=m_bg))
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    graph = _finish(src, dst, n, weight_mode=weight_mode, rng=rng)
    return graph, NodeLabels(np.arange(n), y)
