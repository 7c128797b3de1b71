"""The node-classification protocol of Fig. 5.

Following the DeepWalk evaluation convention the paper inherits:

1. learn embeddings unsupervised;
2. for each training fraction f, sample f of the labeled nodes, train a
   one-vs-rest logistic classifier on their embeddings;
3. on the held-out nodes, predict for each node as many labels as it
   truly has (the *top-k* protocol — k is the node's true label count),
   sidestepping threshold calibration;
4. report micro-F1 and macro-F1, averaged over shuffles.
"""

from __future__ import annotations

import numpy as np

from repro.config import check_reals
from repro.errors import ConfigError, EvaluationError
from repro.evaluation.logistic import LogisticRegressionOVR
from repro.evaluation.metrics import macro_f1, micro_f1
from repro.utils.rng import as_rng


def top_k_predictions(scores: np.ndarray, label_counts: np.ndarray) -> np.ndarray:
    """Select each row's ``label_counts[i]`` highest-scoring classes.

    The standard multi-label NRL protocol: the evaluator reveals how many
    labels each test node has and the classifier ranks which ones.
    """
    scores = np.asarray(scores, dtype=np.float64)
    label_counts = np.asarray(label_counts, dtype=np.int64)
    if scores.shape[0] != label_counts.size:
        raise EvaluationError("scores and label_counts must align")
    n, c = scores.shape
    pred = np.zeros((n, c), dtype=bool)
    order = np.argsort(-scores, axis=1)
    col_rank = np.empty_like(order)
    rows = np.arange(n)[:, None]
    col_rank[rows, order] = np.arange(c)[None, :]
    return col_rank < label_counts[:, None]


def evaluate_split(
    features: np.ndarray,
    y: np.ndarray,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    *,
    l2: float = 1.0,
) -> dict:
    """Train on one split and score the held-out nodes."""
    clf = LogisticRegressionOVR(l2=l2)
    clf.fit(features[train_idx], y[train_idx])
    scores = clf.decision_function(features[test_idx])
    y_test = y[test_idx]
    pred = top_k_predictions(scores, y_test.sum(axis=1))
    return {
        "micro_f1": micro_f1(y_test, pred),
        "macro_f1": macro_f1(y_test, pred),
        "num_train": int(train_idx.size),
        "num_test": int(test_idx.size),
    }


def classification_sweep(
    embeddings,
    labels,
    *,
    train_fractions=(0.1, 0.3, 0.5, 0.7, 0.9),
    trials: int = 3,
    l2: float = 1.0,
    seed=None,
) -> list[dict]:
    """Fig. 5's x-axis sweep: F1 vs training-label fraction.

    Parameters
    ----------
    embeddings:
        :class:`~repro.embedding.keyed_vectors.KeyedVectors`.
    labels:
        :class:`~repro.graph.labels.NodeLabels` (single- or multi-label).
    train_fractions:
        fractions of labeled nodes used for training.
    trials:
        random shuffles averaged per fraction.

    Returns one dict per fraction with mean/std micro- and macro-F1.
    """
    rng = as_rng(seed)
    y = labels.indicator_matrix()
    features = embeddings.matrix_for(labels.node_ids, missing="zeros")
    n = labels.num_labeled
    results = []
    for fraction in train_fractions:
        check_reals({"train_fraction": fraction}, error=ConfigError, interval="(0, 1)")
        micro_scores = []
        macro_scores = []
        for __ in range(trials):
            perm = rng.permutation(n)
            cut = max(int(round(fraction * n)), 1)
            if cut >= n:
                cut = n - 1
            out = evaluate_split(features, y, perm[:cut], perm[cut:], l2=l2)
            micro_scores.append(out["micro_f1"])
            macro_scores.append(out["macro_f1"])
        results.append(
            {
                "train_fraction": float(fraction),
                "micro_f1_mean": float(np.mean(micro_scores)),
                "micro_f1_std": float(np.std(micro_scores)),
                "macro_f1_mean": float(np.mean(macro_scores)),
                "macro_f1_std": float(np.std(macro_scores)),
                "trials": trials,
            }
        )
    return results
