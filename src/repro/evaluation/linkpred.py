"""Link prediction over node embeddings (evaluation extension).

The node2vec paper's protocol: hide a fraction of edges, learn embeddings
on the remaining graph, and classify node pairs (held-out edges vs sampled
non-edges) from element-wise combinations of their endpoint embeddings.
Reported as ROC-AUC.
"""

from __future__ import annotations

import numpy as np

from repro.config import check_reals
from repro.errors import EvaluationError
from repro.evaluation.logistic import LogisticRegressionOVR
from repro.evaluation.metrics import roc_auc
from repro.graph.builder import from_edge_arrays
from repro.utils.rng import as_rng

_OPERATORS = ("hadamard", "average", "l1", "l2")


def edge_features(vectors, pairs: np.ndarray, operator: str = "hadamard") -> np.ndarray:
    """Combine endpoint embeddings into edge features."""
    if operator not in _OPERATORS:
        raise EvaluationError(f"operator must be one of {_OPERATORS}")
    a = vectors.matrix_for(pairs[:, 0], missing="zeros")
    b = vectors.matrix_for(pairs[:, 1], missing="zeros")
    if operator == "hadamard":
        return a * b
    if operator == "average":
        return (a + b) / 2.0
    if operator == "l1":
        return np.abs(a - b)
    return (a - b) ** 2


def split_edges(graph, *, test_fraction: float = 0.3, seed=None):
    """Hide a fraction of undirected edges for evaluation.

    Returns ``(train_graph, test_pairs)`` where ``test_pairs`` are the
    hidden undirected edges as an ``(k, 2)`` array. Only one direction of
    each undirected edge is considered for hiding; the training graph
    keeps both directions of every retained edge.
    """
    check_reals({"test_fraction": test_fraction}, error=EvaluationError, interval="(0, 1)")
    rng = as_rng(seed)
    src, dst, w = graph.edge_list()
    forward = src < dst
    f_src, f_dst, f_w = src[forward], dst[forward], w[forward]
    k = f_src.size
    num_test = max(int(round(test_fraction * k)), 1)
    perm = rng.permutation(k)
    test_sel = perm[:num_test]
    train_sel = perm[num_test:]
    train_graph = from_edge_arrays(
        f_src[train_sel],
        f_dst[train_sel],
        f_w[train_sel] if graph.is_weighted else None,
        num_nodes=graph.num_nodes,
        directed=False,
        duplicate_policy="first",
    )
    test_pairs = np.stack([f_src[test_sel], f_dst[test_sel]], axis=1)
    return train_graph, test_pairs


def sample_non_edges(graph, count: int, *, seed=None) -> np.ndarray:
    """Uniformly sample ``count`` node pairs that are not edges."""
    rng = as_rng(seed)
    n = graph.num_nodes
    out = np.empty((count, 2), dtype=np.int64)
    filled = 0
    while filled < count:
        need = (count - filled) * 2 + 8
        a = rng.integers(0, n, size=need)
        b = rng.integers(0, n, size=need)
        ok = (a != b) & ~graph.has_edge_batch(a, b)
        take = min(int(ok.sum()), count - filled)
        sel = np.flatnonzero(ok)[:take]
        out[filled : filled + take, 0] = a[sel]
        out[filled : filled + take, 1] = b[sel]
        filled += take
    return out


def link_prediction_experiment(
    graph,
    embed_fn,
    *,
    test_fraction: float = 0.3,
    operator: str = "hadamard",
    seed=None,
) -> dict:
    """End-to-end link prediction.

    ``embed_fn(train_graph) -> KeyedVectors`` learns embeddings on the
    training graph (so test edges are never seen). Returns AUC of a
    logistic classifier and of the raw feature scores.
    """
    rng = as_rng(seed)
    train_graph, pos_pairs = split_edges(graph, test_fraction=test_fraction, seed=rng)
    neg_pairs = sample_non_edges(graph, pos_pairs.shape[0], seed=rng)
    vectors = embed_fn(train_graph)

    pairs = np.concatenate([pos_pairs, neg_pairs])
    labels = np.concatenate(
        [np.ones(pos_pairs.shape[0], dtype=bool), np.zeros(neg_pairs.shape[0], dtype=bool)]
    )
    features = edge_features(vectors, pairs, operator)
    perm = rng.permutation(labels.size)
    cut = labels.size // 2
    train_idx, test_idx = perm[:cut], perm[cut:]
    clf = LogisticRegressionOVR(l2=1.0)
    clf.fit(features[train_idx], labels[train_idx, None])
    scores = clf.decision_function(features[test_idx])[:, 0]
    return {
        "auc": roc_auc(labels[test_idx], scores),
        "num_positive": int(pos_pairs.shape[0]),
        "num_negative": int(neg_pairs.shape[0]),
        "operator": operator,
    }
