"""Golden pipeline runs: what the walk→learn driver returns, pinned.

The parity tests of this suite compare two runs of one source tree, so a
rewrite of the driver that changes both sides alike passes them all.
This file pins the absolute result instead, for every way the driver is
entered: SHA-256 of ``embeddings.vectors`` and ``corpus.walks``, the
corpus summary, ``peak_corpus_bytes``, the ``streaming`` flag, the
sampler's ``samples`` counter and resident bytes, and the key sets of
``timings`` / ``sampler_stats``. ``tests/data/golden_pipeline.json`` was
recorded from the three drivers this one replaced (``train_pipeline``,
``train_streaming_pipeline`` and the body of
``UniNet.refresh_embeddings``), with one difference applied by hand: a
refresh result's ``sampler_stats`` carries ``learn_kernel`` /
``learn_compile_seconds`` like every other run that learned.

The vectors come from the C learn kernel, whose floats take nothing
from the platform (it brings its own exp and log), so the file holds
wherever the kernel builds. Re-record (only when a change is *meant* to alter results) with
``PYTHONPATH=src python tests/test_golden_pipeline.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import UniNet, datasets
from repro.core.config import TrainConfig, WalkConfig
from repro.core.pipeline import train_pipeline
from repro.embedding.kernels import resolve_train_kernel
from repro.graph import GraphDelta
from repro.tokens import TOKEN_DTYPE
from repro.walks.kernels import available_backends
from repro.walks.models import make_model

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_pipeline.json"
SEED = 11
WALK = dict(num_walks=3, walk_length=12)
SHARDED = dict(shard_walks=40)

#: ``train_pipeline`` keywords per case; ``walk`` / ``train`` / ``model``
#: replace fields of the common configuration.
PIPELINE_CASES = {
    "monolithic-skipgram": {},
    "monolithic-cbow": {"train": {"mode": "cbow"}},
    "streamed-degree": {"streaming": SHARDED},
    "streamed-exact": {"streaming": {**SHARDED, "vocab": "exact"}},
    "streamed-exact-waves-block8192": {
        "streaming": {"vocab": "exact"},
        "train": {"extra": {"block_walks": 8192}},
    },
    "streamed-overlap": {"streaming": {**SHARDED, "overlap": True}},
    # recorded as a 4,000-byte budget: 4,000 // (4 * 12 + 8) walks a shard
    "streamed-max-corpus-bytes": {"streaming": {"shard_walks": 71}},
    "skip-learning": {"skip_learning": True},
    "node2vec-cnative": {
        "model": ("node2vec", {"p": 0.25, "q": 4.0}),
        "walk": {"backend": "cnative"},
    },
}
#: cases that must equal another one in everything recorded but the
#: fields named (the driver's modes differ in execution, not in results)
SAME_RESULT = {
    "streamed-exact-waves-block8192": ("monolithic-skipgram", {"corpus", "streaming"}),
    "streamed-overlap": ("streamed-degree", {"peak_corpus_bytes"}),
}
FACADE_CASES = ("train", "refresh", "grow-refresh", "generate-walks", "train-streaming")
#: sampler stats whose value is the host's (how many CPUs a compiled
#: wave found), not the run's: not pinned
HOST_STATS = {"wave_threads"}


def _sha(array, dtype=None) -> str | None:
    if array is None:
        return None
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


def _corpus_sha(corpus) -> str | None:
    """The walk matrix's values widened to int64, as they were recorded:
    a golden pins what the walks are, not how many bytes a token takes."""
    if corpus is None:
        return None
    assert corpus.walks.dtype == TOKEN_DTYPE
    return _sha(corpus.walks, np.int64)


def _observe(result) -> dict:
    """The pinned fields of a :class:`TrainResult`."""
    return {
        "vectors": _sha(None if result.embeddings is None else result.embeddings.vectors),
        "corpus": _corpus_sha(result.corpus),
        "corpus_summary": result.corpus_summary,
        "peak_corpus_bytes": int(result.peak_corpus_bytes),
        "streaming": result.streaming,
        "samples": int(result.sampler_stats["samples"]),
        "sampler_memory_bytes": int(result.sampler_memory_bytes),
        "timings_keys": sorted(result.timings),
        "sampler_stats_keys": sorted(set(result.sampler_stats) - HOST_STATS),
    }


def _graph():
    return datasets.load("amazon", scale=0.05, seed=1)


def pipeline_case(name) -> dict:
    case = dict(PIPELINE_CASES[name])
    model, params = case.pop("model", ("deepwalk", {}))
    graph = _graph()
    if params:
        model = make_model(model, graph, **params)
    result = train_pipeline(
        graph,
        model,
        WalkConfig(**{**WALK, **case.pop("walk", {})}),
        TrainConfig(dimensions=8, **case.pop("train", {})),
        seed=SEED,
        **case,
    )
    return _observe(result)


def facade_case(name) -> dict:
    graph = _graph()
    net = UniNet(graph, "node2vec", seed=5)
    if name == "generate-walks":
        corpus = net.generate_walks(**WALK)
        walked = net.last_walk
        return {
            "corpus": _corpus_sha(corpus),
            "corpus_bytes": int(walked.corpus_bytes),
            "samples": int(walked.stats["samples"]),
            "sampler_memory_bytes": int(walked.memory_bytes),
            "timings_keys": sorted(walked.timings),
            "sampler_stats_keys": sorted(set(walked.stats) - HOST_STATS),
        }
    result = net.train(**WALK, dimensions=8, streaming=name == "train-streaming")
    if name == "refresh":
        net.update(GraphDelta.add_edges([0, 7], [100, 200]))
        result = net.refresh_embeddings(num_walks=1)
    elif name == "grow-refresh":
        n = graph.num_nodes
        net.update(GraphDelta(
            add_nodes=2, add_src=[n, n + 1, 0, 1], add_dst=[0, 1, n, n + 1],
            add_weights=[1.0] * 4,
        ))
        result = net.refresh_embeddings(num_walks=1)
    return _observe(result)


def run_case(key) -> dict:
    kind, name = key.split("/")
    return pipeline_case(name) if kind == "pipeline" else facade_case(name)


def all_keys():
    return [f"pipeline/{name}" for name in PIPELINE_CASES] + [
        f"facade/{name}" for name in FACADE_CASES
    ]


GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden():
    """The recorded runs, wherever the learn kernel builds."""
    if resolve_train_kernel() is None:
        pytest.skip("no C compiler on this host: the recorded vectors are the C kernel's")
    return GOLDEN["runs"]


def test_every_case_is_recorded():
    assert set(GOLDEN["runs"]) == set(all_keys())


@pytest.mark.parametrize("key", all_keys())
def test_run_matches_golden(golden, key):
    if "cnative" in key and not available_backends().get("cnative", False):
        pytest.skip("kernel backend 'cnative' is not available here")
    assert run_case(key) == golden[key]


@pytest.mark.parametrize("name", sorted(SAME_RESULT))
def test_modes_differ_in_execution_only(name):
    other, differing = SAME_RESULT[name]
    runs = GOLDEN["runs"]
    got, ref = runs[f"pipeline/{name}"], runs[f"pipeline/{other}"]
    assert {k for k in ref if got[k] != ref[k]} == differing


def _record() -> None:
    golden = {"runs": {key: run_case(key) for key in all_keys()}}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden['runs'])} runs to {GOLDEN_PATH}")


if __name__ == "__main__":
    assert resolve_train_kernel() is not None, "recording needs the C kernel"
    _record()
