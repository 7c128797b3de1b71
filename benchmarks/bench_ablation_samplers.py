"""Ablation: per-step sampler cost and the high-weight sample cap.

Not a paper table — these micro-benchmarks isolate the design choices
DESIGN.md calls out:

* per-walk-step cost of each edge sampler under identical conditions
  (the constant behind the complexity table in the sampling package);
* high-weight initialization sample-cap trade-off (exact argmax vs the
  paper's subsampled approximation).
"""

import pytest

from repro.graph import datasets
from repro.walks.vectorized import VectorizedWalkEngine

SAMPLER_CASES = [
    ("mh", {}),
    ("direct", {}),
    ("alias", {}),
    ("rejection", {}),
    ("knightking", {}),
    ("memory-aware", {"table_budget_bytes": 1 << 20}),
]


@pytest.fixture(scope="module")
def workload():
    graph = datasets.load_graph("livejournal", scale=0.15, seed=20, weight_mode="uniform")
    return graph


@pytest.mark.parametrize("case", SAMPLER_CASES, ids=lambda c: c[0])
def test_per_step_sampler_cost(benchmark, workload, case):
    """Steady-state walk step cost for node2vec (p=0.25, q=4)."""
    sampler, extra = case
    engine = VectorizedWalkEngine(
        workload, "node2vec", sampler=sampler, p=0.25, q=4.0, seed=21, **extra
    )
    engine.generate(num_walks=1, walk_length=5)  # warm up chains/tables
    benchmark(engine.generate, num_walks=1, walk_length=20)


@pytest.mark.parametrize("cap", [4, 16, 64, None], ids=lambda c: f"cap={c}")
def test_high_weight_sample_cap(benchmark, workload, cap):
    """Init cost vs cap: the paper's law-of-large-numbers approximation."""
    def build_and_walk():
        engine = VectorizedWalkEngine(
            workload, "node2vec", sampler="mh", initializer="high-weight",
            init_sample_cap=cap, p=0.25, q=4.0, seed=23,
        )
        engine.generate(num_walks=1, walk_length=10)
        return engine.stats()["init_seconds"]

    benchmark.pedantic(build_and_walk, rounds=1, iterations=1, warmup_rounds=0)
