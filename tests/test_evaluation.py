"""Tests for metrics, the OVR classifier and the evaluation protocols."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.evaluation import (
    LogisticRegressionOVR,
    accuracy,
    classification_sweep,
    evaluate_split,
    link_prediction_experiment,
    macro_f1,
    micro_f1,
    roc_auc,
    top_k_predictions,
)
from repro.evaluation.linkpred import edge_features, sample_non_edges, split_edges


class TestMetrics:
    def test_perfect_prediction(self):
        y = np.array([[1, 0], [0, 1]], dtype=bool)
        assert micro_f1(y, y) == 1.0
        assert macro_f1(y, y) == 1.0
        assert accuracy(y, y) == 1.0

    def test_all_wrong(self):
        y = np.array([[1, 0], [1, 0]], dtype=bool)
        pred = ~y
        assert micro_f1(y, pred) == 0.0
        assert accuracy(y, pred) == 0.0

    def test_known_values(self):
        y_true = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)
        y_pred = np.array([[1, 0, 0], [1, 0, 1], [0, 0, 1]], dtype=bool)
        # pooled: tp=3, fp=1, fn=1
        assert micro_f1(y_true, y_pred) == pytest.approx(6 / 8)
        # per class: c0 f1=1, c1 f1=0, c2 tp=1 fp=1 -> f1=2/3
        assert macro_f1(y_true, y_pred) == pytest.approx((1 + 0 + 2 / 3) / 3)

    def test_micro_ge_zero_macro_sensitive_to_rare(self):
        y_true = np.zeros((10, 2), dtype=bool)
        y_true[:, 0] = True
        y_true[0, 1] = True
        y_pred = np.zeros_like(y_true)
        y_pred[:, 0] = True
        assert micro_f1(y_true, y_pred) > macro_f1(y_true, y_pred)

    def test_shape_mismatch(self):
        with pytest.raises(EvaluationError):
            micro_f1(np.zeros((2, 2), dtype=bool), np.zeros((3, 2), dtype=bool))

    def test_roc_auc_perfect_and_inverted(self):
        y = np.array([0, 0, 1, 1], dtype=bool)
        assert roc_auc(y, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
        assert roc_auc(y, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0

    def test_roc_auc_random_is_half(self, rng):
        y = rng.random(2000) < 0.5
        scores = rng.random(2000)
        assert abs(roc_auc(y, scores) - 0.5) < 0.05

    def test_roc_auc_ties_averaged(self):
        y = np.array([0, 1], dtype=bool)
        assert roc_auc(y, np.array([0.5, 0.5])) == 0.5

    def test_roc_auc_degenerate(self):
        assert roc_auc(np.array([True, True]), np.array([0.1, 0.2])) == 0.5


class TestTopK:
    def test_selects_highest_scores(self):
        scores = np.array([[0.1, 0.9, 0.5], [0.7, 0.2, 0.3]])
        pred = top_k_predictions(scores, np.array([2, 1]))
        assert pred[0].tolist() == [False, True, True]
        assert pred[1].tolist() == [True, False, False]

    def test_row_sums_match_counts(self, rng):
        scores = rng.random((20, 6))
        counts = rng.integers(1, 4, 20)
        pred = top_k_predictions(scores, counts)
        assert np.array_equal(pred.sum(axis=1), counts)

    def test_misaligned(self):
        with pytest.raises(EvaluationError):
            top_k_predictions(np.zeros((2, 3)), np.array([1]))


class TestLogistic:
    def test_separable_data(self, rng):
        x = np.vstack([rng.normal(-2, 0.3, (50, 2)), rng.normal(2, 0.3, (50, 2))])
        y = np.zeros((100, 1), dtype=bool)
        y[50:, 0] = True
        clf = LogisticRegressionOVR(l2=0.01).fit(x, y)
        probs = clf.predict_proba(x)[:, 0]
        assert (probs[:50] < 0.5).mean() > 0.95
        assert (probs[50:] > 0.5).mean() > 0.95

    def test_multiclass_ovr(self, rng):
        centers = np.array([[0, 4], [4, 0], [-4, -4]])
        x = np.vstack([rng.normal(c, 0.5, (30, 2)) for c in centers])
        y = np.zeros((90, 3), dtype=bool)
        for cls in range(3):
            y[30 * cls : 30 * (cls + 1), cls] = True
        clf = LogisticRegressionOVR().fit(x, y)
        pred = top_k_predictions(clf.decision_function(x), y.sum(axis=1))
        assert micro_f1(y, pred) > 0.95

    def test_degenerate_class_constant_prediction(self, rng):
        x = rng.normal(size=(20, 3))
        y = np.zeros((20, 2), dtype=bool)
        y[:, 0] = True  # class 0 always on, class 1 never
        clf = LogisticRegressionOVR().fit(x, y)
        probs = clf.predict_proba(x)
        assert np.all(probs[:, 0] > 0.99)
        assert np.all(probs[:, 1] < 0.01)

    def test_unfitted_raises(self):
        with pytest.raises(EvaluationError):
            LogisticRegressionOVR().decision_function(np.zeros((1, 2)))

    def test_empty_train_raises(self):
        with pytest.raises(EvaluationError):
            LogisticRegressionOVR().fit(np.zeros((0, 2)), np.zeros((0, 1), dtype=bool))

    def test_l2_shrinks_weights(self, rng):
        x = np.vstack([rng.normal(-1, 0.5, (40, 2)), rng.normal(1, 0.5, (40, 2))])
        y = np.zeros((80, 1), dtype=bool)
        y[40:, 0] = True
        small = LogisticRegressionOVR(l2=0.01).fit(x, y)
        large = LogisticRegressionOVR(l2=100.0).fit(x, y)
        assert np.linalg.norm(large.weights_) < np.linalg.norm(small.weights_)


class TestClassificationProtocol:
    @pytest.fixture
    def embedded_communities(self, rng):
        """Synthetic embeddings with planted class structure."""
        from repro.graph.labels import NodeLabels
        from repro.embedding import KeyedVectors

        n, classes, dim = 150, 3, 8
        y = rng.integers(0, classes, n)
        centers = rng.normal(0, 2.0, (classes, dim))
        vectors = centers[y] + rng.normal(0, 0.4, (n, dim))
        kv = KeyedVectors(np.arange(n), vectors)
        labels = NodeLabels(np.arange(n), y)
        return kv, labels

    def test_sweep_structure(self, embedded_communities):
        kv, labels = embedded_communities
        results = classification_sweep(
            kv, labels, train_fractions=(0.2, 0.8), trials=2, seed=0
        )
        assert len(results) == 2
        for row in results:
            assert 0.0 <= row["micro_f1_mean"] <= 1.0
            assert row["trials"] == 2

    def test_informative_embeddings_beat_chance(self, embedded_communities):
        kv, labels = embedded_communities
        results = classification_sweep(kv, labels, train_fractions=(0.5,), trials=3, seed=1)
        assert results[0]["micro_f1_mean"] > 0.8  # chance is ~1/3

    def test_more_training_helps(self, embedded_communities):
        kv, labels = embedded_communities
        results = classification_sweep(
            kv, labels, train_fractions=(0.1, 0.9), trials=5, seed=2
        )
        assert results[1]["micro_f1_mean"] >= results[0]["micro_f1_mean"] - 0.05

    def test_evaluate_split_keys(self, embedded_communities):
        kv, labels = embedded_communities
        y = labels.indicator_matrix()
        feats = kv.matrix_for(labels.node_ids)
        out = evaluate_split(feats, y, np.arange(100), np.arange(100, 150))
        assert set(out) == {"micro_f1", "macro_f1", "num_train", "num_test"}

    def test_invalid_fraction(self, embedded_communities):
        kv, labels = embedded_communities
        with pytest.raises(ValueError):
            classification_sweep(kv, labels, train_fractions=(0.0,), trials=1)


class TestLinkPrediction:
    def test_split_edges_hides_fraction(self, small_unweighted_graph):
        g = small_unweighted_graph
        train, test_pairs = split_edges(g, test_fraction=0.3, seed=0)
        assert train.num_undirected_edges + test_pairs.shape[0] == g.num_undirected_edges
        # hidden edges are absent from the training graph
        for a, b in test_pairs[:20]:
            assert not train.has_edge(int(a), int(b))

    def test_sample_non_edges(self, small_unweighted_graph):
        pairs = sample_non_edges(small_unweighted_graph, 50, seed=1)
        assert pairs.shape == (50, 2)
        assert not small_unweighted_graph.has_edge_batch(pairs[:, 0], pairs[:, 1]).any()

    @pytest.mark.parametrize("operator", ["hadamard", "average", "l1", "l2"])
    def test_edge_features_shapes(self, operator, rng):
        from repro.embedding import KeyedVectors

        kv = KeyedVectors(np.arange(10), rng.normal(size=(10, 4)))
        pairs = np.array([[0, 1], [2, 3]])
        feats = edge_features(kv, pairs, operator)
        assert feats.shape == (2, 4)

    def test_unknown_operator(self, rng):
        from repro.embedding import KeyedVectors

        kv = KeyedVectors(np.arange(4), rng.normal(size=(4, 2)))
        with pytest.raises(EvaluationError):
            edge_features(kv, np.array([[0, 1]]), "concat")

    def test_end_to_end_beats_chance(self, barbell):
        """Community-structured graph: embeddings must predict links."""
        from repro.embedding import Word2Vec
        from repro.walks.vectorized import VectorizedWalkEngine

        def embed(train_graph):
            eng = VectorizedWalkEngine(train_graph, "deepwalk", sampler="mh", seed=3)
            corpus = eng.generate(num_walks=12, walk_length=25)
            return Word2Vec(dimensions=16, epochs=3, seed=4).fit(
                corpus, num_nodes=train_graph.num_nodes
            )

        out = link_prediction_experiment(barbell, embed, test_fraction=0.25, seed=5)
        assert out["auc"] > 0.6

    @staticmethod
    def deepwalk_auc(name, scale):
        from repro import UniNet
        from repro.graph import datasets

        def embed(train_graph):
            net = UniNet(train_graph, model="deepwalk", seed=1)
            return net.train(num_walks=10, walk_length=40, dimensions=64).embeddings

        graph = datasets.load_graph(name, scale=scale, seed=1)
        return link_prediction_experiment(graph, embed, operator="hadamard", seed=1)["auc"]

    def test_held_out_links_of_a_community_graph_are_found(self):
        # the stand-in examples/link_prediction.py measures on
        assert self.deepwalk_auc("blogcatalog", 0.2) > 0.7

    def test_a_chung_lu_graph_has_no_held_out_link_signal(self):
        # edges independent given the degrees: nothing beyond chance to
        # find, so an AUC here measures noise (the amazon stand-in)
        assert abs(self.deepwalk_auc("amazon", 0.1) - 0.5) < 0.1


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 30),
    c=st.integers(1, 5),
    seed=st.integers(0, 100),
)
def test_property_f1_bounds(n, c, seed):
    rng = np.random.default_rng(seed)
    y_true = rng.random((n, c)) < 0.4
    y_pred = rng.random((n, c)) < 0.4
    for metric in (micro_f1, macro_f1, accuracy):
        value = metric(y_true, y_pred)
        assert 0.0 <= value <= 1.0
