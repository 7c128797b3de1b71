"""Tests for the pure-Python open-source baselines (``benchmarks/baselines.py``:
Table VI's "open-sourced version" is a benchmark's yardstick, not library code)."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ModelError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from baselines import LEGACY_MODELS, AdjacencyGraph, LegacyNode2Vec, alias_draw, alias_setup, run_legacy_walks


class TestAdjacency:
    def test_mirrors_csr(self, tiny_weighted_graph):
        adj = AdjacencyGraph(tiny_weighted_graph)
        for v in range(tiny_weighted_graph.num_nodes):
            assert adj.neighbors[v] == tiny_weighted_graph.neighbors(v).tolist()
        assert adj.has_edge(0, 1) and not adj.has_edge(0, 0)

    def test_types_carried(self, academic):
        graph, __ = academic
        adj = AdjacencyGraph(graph)
        assert adj.node_types == graph.node_types.tolist()
        assert adj.edge_types is not None


class TestLegacyAlias:
    def test_alias_distribution(self):
        import random

        rng = random.Random(0)
        probs = [0.1, 0.2, 0.7]
        j, q = alias_setup(probs)
        counts = [0, 0, 0]
        for __ in range(30000):
            counts[alias_draw(j, q, rng)] += 1
        freqs = [c / 30000 for c in counts]
        assert max(abs(f - p) for f, p in zip(freqs, probs)) < 0.02


class TestLegacyWalkers:
    def test_registry_covers_all_models(self):
        assert set(LEGACY_MODELS) == {
            "deepwalk", "node2vec", "metapath2vec", "edge2vec", "fairwalk",
        }

    def test_deepwalk_walks_follow_edges(self, small_unweighted_graph):
        corpus, timings = run_legacy_walks(
            small_unweighted_graph, "deepwalk", num_walks=1, walk_length=8, seed=0
        )
        assert corpus.num_walks == small_unweighted_graph.num_nodes
        for walk in list(corpus.iter_walks())[:30]:
            for a, b in zip(walk[:-1], walk[1:]):
                assert small_unweighted_graph.has_edge(int(a), int(b))

    def test_node2vec_preprocesses_all_edges(self, tiny_weighted_graph):
        walker = LegacyNode2Vec(tiny_weighted_graph, p=0.5, q=2.0, seed=1)
        walker.preprocess()
        assert len(walker.alias_edges) == tiny_weighted_graph.num_edge_entries
        assert len(walker.alias_nodes) == tiny_weighted_graph.num_nodes

    def test_node2vec_transition_matches_vectorized(self, tiny_weighted_graph):
        """Legacy and UniNet walk laws must agree statistically."""
        from repro.walks.vectorized import VectorizedWalkEngine

        g = tiny_weighted_graph
        params = dict(p=0.25, q=4.0)
        legacy_corpus, __ = run_legacy_walks(
            g, "node2vec", num_walks=300, walk_length=10, seed=2, **params
        )
        vec = VectorizedWalkEngine(g, "node2vec", sampler="direct", seed=3, **params)
        vec_corpus = vec.generate(num_walks=300, walk_length=10)

        def transitions(corpus):
            counts = np.zeros((5, 5))
            for walk in corpus.iter_walks():
                if walk.size > 1:
                    np.add.at(counts, (walk[:-1], walk[1:]), 1)
            return counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)

        tv = 0.5 * np.abs(transitions(legacy_corpus) - transitions(vec_corpus)).sum(axis=1).max()
        assert tv < 0.06

    def test_metapath_respects_types(self, academic):
        graph, __ = academic
        corpus, __ = run_legacy_walks(
            graph, "metapath2vec", num_walks=1, walk_length=7, metapath="APA", seed=4
        )
        for walk in list(corpus.iter_walks())[:30]:
            types = graph.node_types[walk].tolist()
            assert types == [0, 1, 0, 1, 0, 1, 0][: len(types)]

    def test_edge2vec_runs(self, academic):
        graph, __ = academic
        corpus, timings = run_legacy_walks(
            graph, "edge2vec", num_walks=1, walk_length=6, p=0.5, q=2.0, seed=5
        )
        assert corpus.token_count > 0
        assert timings["walk"] > 0

    def test_fairwalk_runs(self, academic):
        graph, __ = academic
        corpus, __ = run_legacy_walks(
            graph, "fairwalk", num_walks=1, walk_length=6, p=0.5, q=2.0, seed=6
        )
        assert corpus.token_count > 0

    def test_unknown_model(self, small_unweighted_graph):
        with pytest.raises(ModelError):
            run_legacy_walks(small_unweighted_graph, "gnn")

    def test_hetero_models_need_types(self, small_unweighted_graph):
        with pytest.raises(ModelError):
            run_legacy_walks(small_unweighted_graph, "metapath2vec")

    def test_timings_structure(self, small_unweighted_graph):
        __, timings = run_legacy_walks(
            small_unweighted_graph, "deepwalk", num_walks=1, walk_length=5, seed=7
        )
        assert set(timings) == {"init", "walk"}
