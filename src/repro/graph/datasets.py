"""Synthetic stand-ins for the paper's eleven datasets (Table V).

Real BlogCatalog/Flickr/.../Twitter/Web-UK data is not redistributable and
billion-edge crawls are not tractable here, so each dataset name maps to a
deterministic synthetic generator that reproduces the *relevant shape*:
degree distribution family, mean degree ordering, label structure and (for
the heterogeneous four) the author/paper/venue schema. Every generator
accepts a ``scale`` factor so benchmarks can dial size against runtime;
``scale=1.0`` gives sizes that keep the full benchmark suite in minutes on
a laptop.

Homogeneous, labeled (classification experiments, Fig. 5):
    blogcatalog_like (multi-label), flickr_like (multi-label),
    reddit_like (single-label)
Homogeneous, unlabeled (efficiency experiments, Tables VI/VII):
    amazon_like, youtube_like, livejournal_like, twitter_like, webuk_like
Heterogeneous academic (metapath2vec / edge2vec experiments):
    acm_like, dblp_like, dbis_like, aminer_like (labeled author areas)
"""

from __future__ import annotations

import numpy as np

from repro.config import check_reals
from repro.errors import GraphError
from repro.graph import generators, hetero
from repro.graph.csr import CSRGraph
from repro.graph.labels import NodeLabels


def _scaled(base: int, scale: float, minimum: int = 16) -> int:
    return max(int(round(base * scale)), minimum)


# ----------------------------------------------------------------------
# homogeneous labeled
# ----------------------------------------------------------------------
def blogcatalog_like(scale: float = 1.0, *, weight_mode=None, seed=0):
    """BlogCatalog stand-in: dense multi-label social graph (39 groups)."""
    n = _scaled(1500, scale)
    return generators.overlapping_communities(
        n,
        num_communities=20,
        avg_memberships=1.6,
        within_degree=28.0,
        background_degree=6.0,
        weight_mode=weight_mode,
        seed=seed,
    )


def flickr_like(scale: float = 1.0, *, weight_mode=None, seed=0):
    """Flickr stand-in: denser multi-label graph, heavier degree tail."""
    n = _scaled(3000, scale)
    return generators.overlapping_communities(
        n,
        num_communities=16,
        avg_memberships=1.4,
        within_degree=40.0,
        background_degree=8.0,
        weight_mode=weight_mode,
        seed=seed,
    )


def reddit_like(scale: float = 1.0, *, weight_mode=None, seed=0):
    """Reddit stand-in: single-label community graph (41 subreddits)."""
    n = _scaled(2500, scale)
    return generators.planted_partition(
        n,
        num_communities=12,
        within_degree=30.0,
        between_degree=6.0,
        weight_mode=weight_mode,
        seed=seed,
    )


# ----------------------------------------------------------------------
# homogeneous unlabeled
# ----------------------------------------------------------------------
def amazon_like(scale: float = 1.0, *, weight_mode=None, seed=0) -> CSRGraph:
    """Amazon co-purchase stand-in: sparse, mild degree skew."""
    n = _scaled(6000, scale)
    return generators.chung_lu_power_law(
        n, avg_degree=6.0, exponent=3.0, weight_mode=weight_mode, seed=seed
    )


def youtube_like(scale: float = 1.0, *, weight_mode=None, seed=0) -> CSRGraph:
    """YouTube stand-in: large sparse power-law graph."""
    n = _scaled(12000, scale)
    return generators.chung_lu_power_law(
        n, avg_degree=5.5, exponent=2.3, weight_mode=weight_mode, seed=seed
    )


def livejournal_like(scale: float = 1.0, *, weight_mode=None, seed=0) -> CSRGraph:
    """LiveJournal stand-in: larger, moderately dense power-law graph."""
    n = _scaled(25000, scale)
    return generators.chung_lu_power_law(
        n, avg_degree=18.0, exponent=2.4, weight_mode=weight_mode, seed=seed
    )


def twitter_like(scale: float = 1.0, *, weight_mode=None, seed=0) -> CSRGraph:
    """Twitter stand-in: R-MAT with Graph500 skew (the paper's 2.9B-edge net)."""
    target_nodes = _scaled(1 << 15, scale, minimum=1 << 8)
    rmat_scale = max(int(np.ceil(np.log2(target_nodes))), 8)
    return generators.rmat(rmat_scale, edge_factor=24.0, weight_mode=weight_mode, seed=seed)


def webuk_like(scale: float = 1.0, *, weight_mode=None, seed=0) -> CSRGraph:
    """Web-UK stand-in: the largest net in the suite (the paper's 6.6B-edge crawl)."""
    target_nodes = _scaled(1 << 16, scale, minimum=1 << 9)
    rmat_scale = max(int(np.ceil(np.log2(target_nodes))), 9)
    return generators.rmat(rmat_scale, edge_factor=20.0, weight_mode=weight_mode, seed=seed)


# ----------------------------------------------------------------------
# heterogeneous academic
# ----------------------------------------------------------------------
def acm_like(scale: float = 1.0, *, weight_mode=None, seed=0):
    """ACM stand-in: small 3-type academic network."""
    return hetero.academic_graph(
        num_authors=_scaled(600, scale),
        num_papers=_scaled(900, scale),
        num_venues=max(int(12 * max(scale, 0.25)), 4),
        num_areas=3,
        weight_mode=weight_mode,
        seed=seed,
    )


def dblp_like(scale: float = 1.0, *, weight_mode=None, seed=0):
    """DBLP stand-in: mid-sized academic network."""
    return hetero.academic_graph(
        num_authors=_scaled(1500, scale),
        num_papers=_scaled(2500, scale),
        num_venues=max(int(20 * max(scale, 0.25)), 4),
        num_areas=4,
        weight_mode=weight_mode,
        seed=seed,
    )


def dbis_like(scale: float = 1.0, *, weight_mode=None, seed=0):
    """DBIS stand-in: sparser academic network."""
    return hetero.academic_graph(
        num_authors=_scaled(2500, scale),
        num_papers=_scaled(3000, scale),
        num_venues=max(int(24 * max(scale, 0.25)), 4),
        num_areas=4,
        max_coauthors=2,
        weight_mode=weight_mode,
        seed=seed,
    )


def aminer_like(scale: float = 1.0, *, weight_mode=None, seed=0):
    """AMiner stand-in: the largest academic network; labeled author areas."""
    return hetero.academic_graph(
        num_authors=_scaled(4000, scale),
        num_papers=_scaled(6000, scale),
        num_venues=max(int(30 * max(scale, 0.25)), 8),
        num_areas=4,
        weight_mode=weight_mode,
        seed=seed,
    )


#: Registry of every dataset generator, keyed by paper-adjacent name.
DATASETS = {
    "blogcatalog": blogcatalog_like,
    "flickr": flickr_like,
    "reddit": reddit_like,
    "amazon": amazon_like,
    "youtube": youtube_like,
    "livejournal": livejournal_like,
    "twitter": twitter_like,
    "web-uk": webuk_like,
    "acm": acm_like,
    "dblp": dblp_like,
    "dbis": dbis_like,
    "aminer": aminer_like,
}

#: Datasets that return (graph, labels) tuples.
LABELED = {"blogcatalog", "flickr", "reddit", "acm", "dblp", "dbis", "aminer"}

#: Heterogeneous (typed) datasets.
HETEROGENEOUS = {"acm", "dblp", "dbis", "aminer"}


def load(name: str, scale: float = 1.0, *, weight_mode=None, seed=0):
    """Load a dataset by name; labeled datasets return ``(graph, labels)``.

    >>> graph, labels = load("blogcatalog", scale=0.2, seed=1)
    >>> graph2 = load("youtube", scale=0.2, seed=1)
    """
    key = name.lower()
    if key not in DATASETS:
        raise GraphError(f"unknown dataset {name!r}; available: {sorted(DATASETS)}")
    check_reals({"scale": scale}, section=f"{key} ", error=GraphError)
    return DATASETS[key](scale, weight_mode=weight_mode, seed=seed)


def load_graph(name: str, scale: float = 1.0, *, weight_mode=None, seed=0) -> CSRGraph:
    """Like :func:`load` but always returns just the graph."""
    result = load(name, scale, weight_mode=weight_mode, seed=seed)
    if isinstance(result, tuple):
        return result[0]
    return result


def load_labels(name: str, scale: float = 1.0, *, weight_mode=None, seed=0) -> NodeLabels:
    """Return the labels of a labeled dataset (raises otherwise)."""
    result = load(name, scale, weight_mode=weight_mode, seed=seed)
    if not isinstance(result, tuple):
        raise GraphError(f"dataset {name!r} has no labels")
    return result[1]
