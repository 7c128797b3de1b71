"""Ablation: word2vec trainer variants.

Throughput of the learning phase across training modes, the other half of
the paper's total-cost decomposition. Covers skip-gram vs CBOW and the
scaling knobs (dimensions), on whichever learn kernel this host resolves
(:attr:`Word2Vec.kernel`), and how the compiled kernel scales with the
CPUs it is allowed (:func:`test_learn_thread_scaling`, plain pytest, the
committed ``results/learn_threads.txt``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.embedding import Word2Vec
from repro.graph import datasets
from repro.walks.vectorized import VectorizedWalkEngine

from _common import commit_label, record_table


@pytest.fixture(scope="module")
def corpus_and_graph():
    graph = datasets.load_graph("amazon", scale=0.3, seed=30)
    engine = VectorizedWalkEngine(graph, "deepwalk", sampler="mh", seed=30)
    return graph, engine.generate(num_walks=2, walk_length=30)


@pytest.mark.parametrize(
    "label,kwargs",
    [
        ("sgns", {}),
        ("cbow", {"mode": "cbow"}),
    ],
)
def test_trainer_variants(benchmark, corpus_and_graph, label, kwargs):
    graph, corpus = corpus_and_graph

    def train():
        return Word2Vec(dimensions=64, epochs=1, seed=31, **kwargs).fit(
            corpus, num_nodes=graph.num_nodes
        )

    benchmark.pedantic(train, rounds=1, iterations=1, warmup_rounds=0)


@pytest.mark.parametrize("dimensions", [32, 128])
def test_dimension_scaling(benchmark, corpus_and_graph, dimensions):
    graph, corpus = corpus_and_graph

    def train():
        return Word2Vec(dimensions=dimensions, epochs=1, seed=32).fit(
            corpus, num_nodes=graph.num_nodes
        )

    benchmark.pedantic(train, rounds=1, iterations=1, warmup_rounds=0)


# ---------------------------------------------------------------------------
# thread scaling of the compiled learn kernel
# ---------------------------------------------------------------------------
#: One measurement, in a process of its own so that the CPU affinity it
#: narrows, and the source tree it imports, are its alone. The learn
#: kernel takes its thread count from the affinity mask, so narrowing the
#: mask is how a run on 1 CPU and a run on 2 are told apart: no option.
#: ``threads`` (the over-subscribed row only) goes through the
#: kernel-level argument that tests use; a tree without it (the parent)
#: reports one thread.
_FIT_SCRIPT = """
import hashlib, json, os, sys, time
cpus, mode, batch_pairs, threads = int(sys.argv[1]), sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])
from repro.embedding import Word2Vec, kernels
from repro.graph import datasets
from repro.walks.vectorized import VectorizedWalkEngine

used = []
if hasattr(kernels.CTrainKernel, "run"):
    original = kernels.CTrainKernel.run
    def run(self, *args):
        losses = original(self, *args, threads=threads or None)
        used.append(args[-1].threads)
        return losses
    kernels.CTrainKernel.run = run
graph = datasets.load_graph("blogcatalog", scale=0.3, seed=1)
corpus = VectorizedWalkEngine(
    graph, "deepwalk", sampler="mh", initializer="high-weight", seed=1
).generate(num_walks=10, walk_length=40)
seconds = []
for __ in range(3):
    trainer = Word2Vec(128, window=5, negative=5, epochs=1, batch_pairs=batch_pairs, mode=mode, seed=1)
    start = time.perf_counter()
    vectors = trainer.fit(corpus, num_nodes=graph.num_nodes).vectors
    seconds.append(time.perf_counter() - start)
print(json.dumps({
    "fit_s": min(seconds), "threads": max(used, default=1),
    "tokens": int(corpus.token_count), "sha": hashlib.sha256(vectors.tobytes()).hexdigest(),
}))
"""
_REPO = Path(__file__).resolve().parents[1]


def _measure(src, cpus, mode, batch_pairs, threads=0):
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", _FIT_SCRIPT, str(cpus), mode, str(batch_pairs), str(threads)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls here")
def test_learn_thread_scaling():
    """Best fit seconds (3 fits in each of 3 fresh processes, alternated
    with the parent's) at the ``train_e2e`` shape with the process
    allowed 1 CPU and then 2, skip-gram and CBOW, ``batch_pairs`` 1024
    and 8192, beside the same measurement of the parent commit when
    ``BENCH_PARENT_SRC`` names the ``src`` directory of a checkout of it
    (``git clone . /tmp/parent && git -C /tmp/parent checkout <commit>``).
    The last row forces one thread more than CPUs, so that what
    over-subscription costs is on record. Every row of one shape must
    produce the same vectors, the parent's included for CBOW; skip-gram's
    estimator changed with window-shared negatives, so its rows are held
    to one set of vectors per side, and ``same_as_parent`` says whether
    the two sides' vectors are equal."""
    if Word2Vec(8).kernel != "cnative":
        pytest.skip("no C compiler on this host: there is no compiled kernel to scale")
    parent_src = os.environ.get("BENCH_PARENT_SRC")
    allowed = len(os.sched_getaffinity(0))
    cases = [
        (cpus, mode, batch_pairs, 0)
        for cpus in (1, 2) if cpus <= allowed
        for mode in ("skipgram", "cbow")
        for batch_pairs in (1024, 8192)
    ]
    cases.append((min(allowed, 2), "skipgram", 1024, min(allowed, 2) + 1))
    rows, shas = [], {}
    for cpus, mode, batch_pairs, threads in cases:
        sides = {"change": _REPO / "src"}
        if parent_src and not threads:
            sides["parent"] = parent_src
        best = {}
        for rnd in range(3):  # the host's speed drifts by the minute: alternate the sides
            for side in sorted(sides, reverse=rnd % 2 == 1):
                got = _measure(sides[side], cpus, mode, batch_pairs, threads)
                per_side = side if mode == "skipgram" else "both"
                shas.setdefault((per_side, mode, batch_pairs), set()).add(got["sha"])
                if side not in best or got["fit_s"] < best[side]["fit_s"]:
                    best[side] = got
        change = best["change"]
        assert threads or change["threads"] <= cpus  # never more threads than CPUs, unasked
        row = {
            "mode": mode, "batch_pairs": batch_pairs, "cpus": cpus,
            "threads": change["threads"], "fit_s": round(change["fit_s"], 3),
            "tokens_per_s": int(change["tokens"] / change["fit_s"]),
        }
        if "parent" in best:
            row["parent_fit_s"] = round(best["parent"]["fit_s"], 3)
            row["fit_s / parent"] = round(change["fit_s"] / best["parent"]["fit_s"], 2)
            row["same_as_parent"] = "yes" if change["sha"] == best["parent"]["sha"] else "no"
        rows.append(row)
    assert all(len(same) == 1 for same in shas.values()), shas
    parent = f"parent {commit_label(Path(parent_src).parent)}" if parent_src else "parent not measured"
    record_table(
        "learn_threads",
        ["mode", "batch_pairs", "cpus", "threads", "fit_s", "tokens_per_s", "parent_fit_s", "fit_s / parent",
         "same_as_parent"],
        rows,
        title=(
            f"learn-phase thread scaling at the train_e2e shape: commit {commit_label(_REPO)}, {parent}\n"
            f"blogcatalog 0.3, 10 x 40 walks, d=128, {change['tokens']} tokens; "
            "best of 3 fits in each of 3 fresh processes a side, the sides alternated,\n"
            "CPU affinity narrowed to `cpus`; "
            "`threads` is what the kernel used (last row: one more than CPUs, forced through "
            "CTrainKernel.run(threads=))"
        ),
    )
