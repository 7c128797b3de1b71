"""Final coverage batch: examples compile, protocol conformance, misc."""

import py_compile
from pathlib import Path

import numpy as np
import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


class TestExamplesCompile:
    """Examples are documentation; they must at least stay syntactically
    valid and import-clean (full runs live outside the unit suite)."""

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_compiles(self, path, tmp_path):
        py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"), doraise=True)

    def test_at_least_quickstart_and_two_scenarios(self):
        names = {p.name for p in EXAMPLES}
        assert "quickstart.py" in names
        assert len(names) >= 3


class TestModelWeightPaths:
    def test_exact_law_row_is_the_batch_weights(self, typed_graph):
        """``dynamic_weights_row``, the statistical tests' exact law, is
        the row of the batch weights the steppers draw by."""
        from repro.walks.models import MODEL_REGISTRY, make_model

        g = typed_graph
        rng = np.random.default_rng(1)
        for name in MODEL_REGISTRY:
            kwargs = {"metapath": [0, 1, 0]} if name == "metapath2vec" else {}
            model = make_model(name, g, **kwargs)
            for __ in range(5):
                e = int(rng.integers(g.num_edge_entries))
                s, v = int(g.edge_sources()[e]), int(g.targets[e])
                lo, hi = g.edge_range(v)
                offs = np.arange(lo, hi)
                batch = model.batch_dynamic_weight(
                    np.full(offs.size, s), np.full(offs.size, e),
                    np.full(offs.size, v), 1, offs,
                )
                np.testing.assert_array_equal(model.dynamic_weights_row(v, s, e, 1), batch)


class TestMiscEdgeCases:
    def test_degree_histogram_uniform_graph(self):
        from repro.graph.generators import cycle_graph
        from repro.graph.stats import degree_histogram

        edges, counts = degree_histogram(cycle_graph(10))
        assert counts.sum() == 10

    def test_train_result_defaults(self):
        from repro.core.pipeline import TrainResult

        result = TrainResult(embeddings=None, corpus=None)
        assert result.ti == 0.0 and result.tw == 0.0 and result.tl == 0.0
        assert result.tt == 0.0

    def test_timer_total_matches_reported_phases(self, small_unweighted_graph):
        from repro.core.config import WalkConfig
        from repro.core.pipeline import train_pipeline

        result = train_pipeline(
            small_unweighted_graph,
            "deepwalk",
            WalkConfig(num_walks=1, walk_length=6),
            seed=1,
            skip_learning=True,
        )
        assert result.tt == pytest.approx(result.ti + result.tw + result.tl)

    def test_chain_store_shared_by_two_engines(self, small_unweighted_graph):
        """Two engines can walk on one chain array, in turn."""
        from repro.walks.manager import ChainStore
        from repro.walks.models import make_model
        from repro.walks.vectorized import VectorizedWalkEngine

        g = small_unweighted_graph
        model = make_model("deepwalk", g)
        store = ChainStore(g, model)
        first = VectorizedWalkEngine(g, model, sampler="mh", chain_store=store, seed=2)
        first.generate(num_walks=1, walk_length=6)
        touched = store.num_initialized
        second = VectorizedWalkEngine(g, model, sampler="mh", chain_store=store, seed=3)
        assert second.stepper.chains is store
        second.generate(num_walks=1, walk_length=6)
        assert store.num_initialized >= touched
        assert second.stats()["initializations"] == store.num_initialized - touched
