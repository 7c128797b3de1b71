"""Tests for the rejection and KnightKing (outlier folding) steppers.

The acceptance mechanics are read from ``engine.stats()`` after
``stepper.step`` calls, on both kernel backends. Both samplers' per-state
laws, with and without folding, are fitted in
``tests/test_statistical.py``.
"""

import numpy as np

from repro.walks.models import make_model
from repro.walks.vectorized import VectorizedWalkEngine


def arrival_lanes(graph, stride):
    """One lane at every ``stride``-th node with an out-edge, arrived
    from its first neighbour: ``(prev, prev_off, cur)``."""
    cur = np.flatnonzero(graph.degrees() > 0)[::stride].astype(np.int64)
    prev = graph.targets[graph.offsets[cur]].astype(np.int64)
    return prev, graph.edge_index_batch(prev, cur), cur


def acceptance_ratio(graph, model, sampler, backend, lanes, calls, seed):
    eng = VectorizedWalkEngine(graph, model, sampler=sampler, backend=backend, seed=seed)
    for __ in range(calls):
        eng.stepper.step(*lanes, 1, eng.rng)
    return eng.stats()["acceptance_ratio"]


class TestRejectionSampler:
    def test_acceptance_one_for_deepwalk(self, tiny_weighted_graph, kernel_backend):
        g = tiny_weighted_graph
        none = np.full(500, -1, dtype=np.int64)
        lanes = (none, none, np.zeros(500, dtype=np.int64))
        ratio = acceptance_ratio(g, "deepwalk", "rejection", kernel_backend, lanes, 1, 1)
        assert ratio == 1.0

    def test_acceptance_degrades_with_skewed_params(self, small_power_law_graph, kernel_backend):
        """Table II's effect: acceptance falls as (p, q) skew the target."""
        g = small_power_law_graph
        lanes = arrival_lanes(g, 3)
        ratios = {
            (p, q): acceptance_ratio(
                g, make_model("node2vec", g, p=p, q=q), "rejection", kernel_backend, lanes, 20, 5
            )
            for p, q in [(1.0, 1.0), (0.25, 1.0)]
        }
        assert ratios[(1.0, 1.0)] > 0.95
        assert ratios[(0.25, 1.0)] < 0.7


class TestKnightKing:
    def test_folding_beats_plain_rejection_acceptance(self, small_power_law_graph, kernel_backend):
        """With a 1/p outlier, folding should raise the acceptance ratio."""
        g = small_power_law_graph
        model = make_model("node2vec", g, p=0.1, q=1.0)
        assert model.supports_folding
        lanes = arrival_lanes(g, 5)
        ratios = {
            sampler: acceptance_ratio(g, model, sampler, kernel_backend, lanes, 10, 6)
            for sampler in ("rejection", "knightking")
        }
        assert ratios["knightking"] > ratios["rejection"]

    def test_falls_back_without_outliers(self, tiny_weighted_graph):
        model = make_model("node2vec", tiny_weighted_graph, p=4.0, q=1.0)  # 1/p < bulk
        assert not model.supports_folding
        eng = VectorizedWalkEngine(tiny_weighted_graph, model, sampler="knightking")
        assert not eng.stepper.fold

    def test_folding_not_used_for_hetero_models(self, academic):
        """edge2vec/fairwalk report no foldable outliers (paper V-D)."""
        graph, __ = academic
        for name in ("edge2vec", "fairwalk"):
            eng = VectorizedWalkEngine(graph, name, sampler="knightking", p=0.1, q=1.0)
            assert not eng.stepper.fold, name
