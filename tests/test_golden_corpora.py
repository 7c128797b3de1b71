"""Golden corpora: the monolithic engine's output, pinned by hash.

Every parity test in this suite compares two engines built from the same
source tree, so a refactor that shifts the RNG draw order of *both*
passes them all. This file pins the absolute output instead: SHA-256 of
``walks`` + ``lengths`` for every model x sampler x initializer x kernel
backend the monolithic engine supports, at fixed seeds on three fixture
graphs, recorded in ``tests/data/golden_corpora.json``.

Re-record (only when a change is *meant* to alter corpora) with
``PYTHONPATH=src python tests/test_golden_corpora.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import WalkError
from repro.graph import generators
from repro.graph.hetero import academic_graph
from repro.walks.kernels import available_backends
from repro.walks.vectorized import VectorizedWalkEngine

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_corpora.json"

GRAPHS = {
    "weighted": lambda: generators.chung_lu_power_law(150, 6.0, seed=11, weight_mode="uniform"),
    "unweighted": lambda: generators.chung_lu_power_law(150, 6.0, seed=11),
    "academic": lambda: academic_graph(num_authors=60, num_papers=100, num_venues=6, seed=5)[0],
}
MODELS = {
    "deepwalk": ("weighted", "unweighted"),
    "node2vec": ("weighted", "unweighted"),
    "metapath2vec": ("academic",),
}
MODEL_PARAMS = {"node2vec": {"p": 0.5, "q": 2.0}, "metapath2vec": {"metapath": "APVPA"}}
SAMPLERS = (
    "mh", "direct", "alias", "alias-first-order", "rejection", "knightking", "memory-aware",
)
INITIALIZERS = ("random", "high-weight", "burn-in")
BACKENDS = ("numpy", "cnative")
SEED = 2021


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for arr in arrays:
        sha.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return sha.hexdigest()


def _graph_digest(graph) -> str:
    weights = () if graph.weights is None else (graph.weights.view(np.int64),)
    return _digest((graph.offsets, graph.targets, *weights))


def _corpus_digest(graph, model, sampler, initializer, backend) -> str:
    options = {"table_budget_bytes": 20_000} if sampler == "memory-aware" else {}
    engine = VectorizedWalkEngine(
        graph, model, sampler=sampler, initializer=initializer, burn_in_iterations=5,
        backend=backend, seed=SEED, **options, **MODEL_PARAMS.get(model, {}),
    )
    corpus = engine.generate(num_walks=2, walk_length=12)
    return _digest((corpus.walks, corpus.lengths))


def _cases():
    for model, graph_names in MODELS.items():
        for graph_name in graph_names:
            for sampler in SAMPLERS:
                for initializer in INITIALIZERS if sampler == "mh" else ("high-weight",):
                    for backend in BACKENDS:
                        yield graph_name, model, sampler, initializer, backend


@pytest.fixture(scope="module")
def graphs():
    return {name: build() for name, build in GRAPHS.items()}


GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("key", sorted(GOLDEN["corpora"]))
def test_corpus_matches_golden(graphs, key):
    graph_name, model, sampler, initializer, backend = key.split("/")
    if not available_backends().get(backend, False):
        pytest.skip(f"kernel backend {backend!r} is not available here")
    graph = graphs[graph_name]
    if _graph_digest(graph) != GOLDEN["graphs"][graph_name]:
        pytest.skip("this platform generates a different fixture graph")
    assert _corpus_digest(graph, model, sampler, initializer, backend) == GOLDEN["corpora"][key]


#: the recorded cnative M-H runs with the wave kernel's initializer (the
#: other initializers keep the base loop; metapath2vec has no compiled
#: weight rule, so it walks on NumPy and calls no wave)
WAVE_KEYS = sorted(k for k in GOLDEN["corpora"] if k.endswith("/mh/high-weight/cnative"))


@pytest.mark.parametrize("threads", (1, 2, 3, 7))
@pytest.mark.parametrize("key", WAVE_KEYS)
def test_wave_corpus_at_any_thread_count(graphs, force_wave_threads, key, threads):
    used = force_wave_threads(threads)
    test_corpus_matches_golden(graphs, key)
    assert set(used) == ({threads} if "metapath2vec" not in key else set())


def test_golden_covers_every_supported_combination():
    """A combination the engine accepts must be pinned, not silently absent."""
    recorded = set(GOLDEN["corpora"])
    combos = {"/".join(case) for case in _cases()}
    assert recorded <= combos
    # what is absent is exactly what the engine refuses (exactness claims)
    assert {key.split("/")[2] for key in combos - recorded} == {"alias-first-order"}


def _record() -> None:
    graphs = {name: build() for name, build in GRAPHS.items()}
    corpora = {}
    for case in _cases():
        graph_name, *rest = case
        try:
            corpora["/".join(case)] = _corpus_digest(graphs[graph_name], *rest)
        except WalkError as err:
            print(f"not recorded: {'/'.join(case)}: {err}")
    golden = {
        "graphs": {name: _graph_digest(graph) for name, graph in graphs.items()},
        "corpora": corpora,
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(corpora)} corpora to {GOLDEN_PATH}")


if __name__ == "__main__":
    _record()
