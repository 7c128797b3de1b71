"""Tests for the extension features: clustering, CLI."""

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.evaluation.clustering import (
    clustering_experiment,
    kmeans,
    normalized_mutual_information,
)


class TestKMeans:
    def test_separable_clusters_recovered(self, rng):
        centers = np.array([[0.0, 8.0], [8.0, 0.0], [-8.0, -8.0]])
        x = np.vstack([rng.normal(c, 0.5, (40, 2)) for c in centers])
        truth = np.repeat([0, 1, 2], 40)
        assignments, __, inertia = kmeans(x, 3, seed=1)
        assert normalized_mutual_information(truth, assignments) > 0.95
        assert inertia >= 0

    def test_k_one(self, rng):
        x = rng.normal(size=(20, 3))
        assignments, centers, __ = kmeans(x, 1, seed=2)
        assert np.all(assignments == 0)
        assert np.allclose(centers[0], x.mean(axis=0), atol=1e-8)

    def test_invalid_inputs(self, rng):
        with pytest.raises(EvaluationError):
            kmeans(rng.normal(size=(2, 2)), 5)
        with pytest.raises(EvaluationError):
            kmeans(rng.normal(size=(5, 2)), 0)

    def test_deterministic_given_seed(self, rng):
        x = rng.normal(size=(50, 4))
        a1, __, ___ = kmeans(x, 3, seed=7)
        a2, __, ___ = kmeans(x, 3, seed=7)
        assert np.array_equal(a1, a2)


class TestNMI:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2])
        assert normalized_mutual_information(labels, labels) == pytest.approx(1.0)

    def test_permuted_labels_still_perfect(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([1, 1, 0, 0])
        assert normalized_mutual_information(a, b) == pytest.approx(1.0)

    def test_independent_partitions_near_zero(self, rng):
        a = rng.integers(0, 4, 5000)
        b = rng.integers(0, 4, 5000)
        assert normalized_mutual_information(a, b) < 0.01

    def test_single_cluster_each(self):
        a = np.zeros(10, dtype=int)
        assert normalized_mutual_information(a, a) == 1.0

    def test_invalid(self):
        with pytest.raises(EvaluationError):
            normalized_mutual_information([0, 1], [0])


class TestClusteringExperiment:
    def test_community_graph_clusters_well(self):
        from repro import UniNet
        from repro.graph.generators import planted_partition

        graph, labels = planted_partition(
            300, 3, within_degree=16.0, between_degree=2.0, seed=3
        )
        net = UniNet(graph, model="deepwalk", seed=3)
        result = net.train(
            num_walks=6, walk_length=30, dimensions=32, epochs=2
        )
        out = clustering_experiment(result.embeddings, labels, seed=4)
        assert out["nmi"] > 0.4
        assert out["num_clusters"] == 3

    def test_multilabel_rejected(self, rng):
        from repro.embedding import KeyedVectors
        from repro.graph.labels import NodeLabels

        kv = KeyedVectors(np.arange(4), rng.normal(size=(4, 2)))
        labels = NodeLabels(np.arange(4), np.ones((4, 2), dtype=bool))
        with pytest.raises(EvaluationError):
            clustering_experiment(kv, labels)


class TestCli:
    def test_stats_dataset(self, capsys):
        from repro.cli import main

        assert main(["stats", "--dataset", "acm", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "num_nodes" in out and "num_edges" in out

    def test_stats_edge_list(self, tmp_path, capsys, small_unweighted_graph):
        from repro.cli import main
        from repro.graph.io import save_edge_list

        path = tmp_path / "g.txt"
        save_edge_list(small_unweighted_graph, path)
        assert main(["stats", "--edge-list", str(path)]) == 0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dataset", "amazon", "--scale", "-1"], "graph.scale"),
            (["--edge-list", "no-such-graph.txt"], "no-such-graph.txt"),
        ],
        ids=("negative-scale", "missing-edge-list"),
    )
    def test_stats_error_is_one_line(self, tmp_path, monkeypatch, capsys, flags, message):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["stats", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    def test_walk_command(self, tmp_path, capsys):
        from repro.cli import main
        from repro.walks.corpus import WalkCorpus

        out_path = tmp_path / "walks.npz"
        rc = main(
            [
                "walk", "--dataset", "amazon", "--scale", "0.1",
                "--num-walks", "1", "--walk-length", "8",
                "--output", str(out_path),
            ]
        )
        assert rc == 0
        corpus = WalkCorpus.load_npz(out_path)
        assert corpus.token_count > 0

    def test_train_command(self, tmp_path, capsys):
        from repro.cli import main
        from repro.embedding import KeyedVectors

        out_path = tmp_path / "vec.npz"
        rc = main(
            [
                "train", "--dataset", "amazon", "--scale", "0.1",
                "--model", "node2vec", "--p", "0.5", "--q", "2.0",
                "--num-walks", "1", "--walk-length", "10",
                "--dimensions", "16", "--output", str(out_path),
            ]
        )
        assert rc == 0
        kv = KeyedVectors.load_npz(out_path)
        assert kv.dimensions == 16

    def test_train_command_trains_like_the_library(self, tmp_path, capsys):
        """The CLI pins no trainer option: same seed, same bits as UniNet."""
        from repro import UniNet
        from repro.cli import main
        from repro.embedding import KeyedVectors
        from repro.graph import datasets

        out_path = tmp_path / "vec.npz"
        shape = {"num_walks": 1, "walk_length": 10, "dimensions": 16}
        rc = main(
            [
                "train", "--dataset", "amazon", "--scale", "0.1", "--seed", "5",
                "--num-walks", "1", "--walk-length", "10",
                "--dimensions", "16", "--output", str(out_path),
            ]
        )
        assert rc == 0
        graph = datasets.load("amazon", scale=0.1, seed=5)
        expected = UniNet(graph, seed=5).train(**shape).embeddings
        got = KeyedVectors.load_npz(out_path)
        assert np.array_equal(got.keys, expected.keys)
        assert np.array_equal(got.vectors, expected.vectors)

    def test_classify_command(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "classify", "--dataset", "reddit", "--scale", "0.1",
                "--num-walks", "2", "--walk-length", "12",
                "--dimensions", "16", "--epochs", "1",
                "--fractions", "0.5", "--trials", "1",
            ]
        )
        assert rc == 0
        assert "micro_f1_mean" in capsys.readouterr().out

    def test_classify_requires_labels(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "classify", "--dataset", "amazon", "--scale", "0.1",
                "--num-walks", "1", "--walk-length", "6",
            ]
        )
        assert rc == 2
