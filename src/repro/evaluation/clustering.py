"""Clustering evaluation: k-means over embeddings + NMI against labels.

Network clustering is one of the applications motivating the paper's
introduction. This module provides a dependency-free evaluation path:
Lloyd's k-means (k-means++ seeding) on the embedding vectors and
normalised mutual information against ground-truth communities.
"""

from __future__ import annotations

import numpy as np

from repro.config import check_counts
from repro.errors import EvaluationError
from repro.utils.rng import as_rng


def kmeans(features: np.ndarray, k: int, *, max_iter: int = 100, seed=None):
    """Lloyd's algorithm with k-means++ initialisation.

    Returns ``(assignments, centers, inertia)``.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < k:
        raise EvaluationError("need a 2-D feature matrix with at least k rows")
    check_counts({"k": k}, error=EvaluationError)
    rng = as_rng(seed)
    n = features.shape[0]

    # k-means++ seeding
    centers = np.empty((k, features.shape[1]))
    centers[0] = features[rng.integers(n)]
    closest_sq = ((features - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            centers[j:] = features[rng.integers(0, n, size=k - j)]
            break
        probs = closest_sq / total
        centers[j] = features[rng.choice(n, p=probs)]
        closest_sq = np.minimum(closest_sq, ((features - centers[j]) ** 2).sum(axis=1))

    assignments = np.zeros(n, dtype=np.int64)
    for __ in range(max_iter):
        # squared distances via the expansion ||x||^2 - 2 x.c + ||c||^2
        cross = features @ centers.T
        sq = (features**2).sum(axis=1, keepdims=True) - 2 * cross + (centers**2).sum(axis=1)
        new_assignments = np.argmin(sq, axis=1)
        if np.array_equal(new_assignments, assignments) and __ > 0:
            break
        assignments = new_assignments
        for j in range(k):
            members = features[assignments == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
            else:  # re-seed an empty cluster at the worst-fit point
                centers[j] = features[int(np.argmax(sq.min(axis=1)))]
    inertia = float(np.min(sq, axis=1).sum())
    return assignments, centers, inertia


def normalized_mutual_information(labels_a, labels_b) -> float:
    """NMI (arithmetic normalisation) between two partitions."""
    a = np.asarray(labels_a, dtype=np.int64)
    b = np.asarray(labels_b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise EvaluationError("partitions must be non-empty aligned 1-D arrays")
    n = a.size
    ka, kb = int(a.max()) + 1, int(b.max()) + 1
    contingency = np.zeros((ka, kb))
    np.add.at(contingency, (a, b), 1.0)
    pa = contingency.sum(axis=1) / n
    pb = contingency.sum(axis=0) / n
    pab = contingency / n
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = pab / np.outer(pa, pb)
        terms = np.where(pab > 0, pab * np.log(ratio), 0.0)
    mi = float(terms.sum())

    def entropy(p):
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    ha, hb = entropy(pa), entropy(pb)
    if ha == 0.0 and hb == 0.0:
        return 1.0
    denom = (ha + hb) / 2.0
    if denom == 0.0:
        return 0.0
    return mi / denom


def clustering_experiment(embeddings, labels, *, seed=None) -> dict:
    """Cluster labeled nodes' embeddings into #classes groups, report NMI.

    Only meaningful for single-label data (partition vs partition).
    """
    if labels.is_multilabel:
        raise EvaluationError("clustering NMI needs single-label ground truth")
    features = embeddings.matrix_for(labels.node_ids, missing="zeros")
    truth = labels.class_ids()
    k = labels.num_classes
    assignments, __, inertia = kmeans(features, k, seed=seed)
    return {
        "nmi": normalized_mutual_information(truth, assignments),
        "num_clusters": k,
        "inertia": inertia,
    }
