"""Table VII: node2vec walk generation on the billion-edge stand-ins.

The paper's scalability table: walk-generation time of every sampler on
Twitter (2.9B edges) and Web-UK (6.6B edges) across five (p, q) settings,
with '*' marking out-of-memory failures on the 96 GB server. Expected
pattern:

* alias:       OOM on both networks (per-state tables, Σ deg² entries);
* rejection / KnightKing: fit Twitter, OOM on Web-UK (O(|E|) weighted
  proposal tables);
* memory-aware: fits both but slow;
* UniNet(M-H): fits both, time stable across (p, q).

Here the networks are the R-MAT stand-ins (weighted — the proposal-table
memory matters) and the server is a :class:`MemoryBudget` calibrated the
same way the paper's hardware was: between the rejection footprint of the
two graphs, above M-H's for both.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import WalkConfig
from repro.core.pipeline import generate_walk_result
from repro.errors import SimulatedOutOfMemoryError
from repro.graph import datasets
from repro.sampling.memory_model import MemoryBudget, rejection_bytes, sampler_memory_estimate
from repro.walks.kernels import available_backends
from repro.walks.models import make_model
from repro.walks.vectorized import VectorizedWalkEngine

from _common import RESULTS_DIR, commit_label, record_table, run_once, timed

PQ_CONFIGS = [(1.0, 0.25), (0.25, 1.0), (1.0, 1.0), (1.0, 4.0), (4.0, 1.0)]
SAMPLERS = [
    ("alias", {}),
    ("rejection", {}),
    ("knightking", {}),
    ("memory-aware", {}),
    ("mh-random", {"sampler": "mh", "initializer": "random"}),
    ("mh-burnin", {"sampler": "mh", "initializer": "burn-in"}),
    ("mh-weight", {"sampler": "mh", "initializer": "high-weight"}),
]
NUM_WALKS, WALK_LENGTH = 1, 24


@pytest.fixture(scope="module")
def networks():
    twitter = datasets.load_graph("twitter", scale=0.3, seed=7, weight_mode="uniform")
    webuk = datasets.load_graph("web-uk", scale=0.3, seed=7, weight_mode="uniform")
    return {"twitter": twitter, "web-uk": webuk}


@pytest.fixture(scope="module")
def server_budget_bytes(networks):
    """One fixed 'machine size', calibrated like the paper's 96 GB server:
    rejection fits the smaller net but not the larger; M-H fits both."""
    small = rejection_bytes(networks["twitter"])
    large = rejection_bytes(networks["web-uk"])
    assert small < large
    return (small + large) // 2 + small // 4


def _run_config(graph, sampler_name, options, p, q, budget_bytes):
    model = make_model("node2vec", graph, p=p, q=q)
    table_budget = None
    if sampler_name == "memory-aware":
        # the paper grants it UniNet's memory consumption
        table_budget = sampler_memory_estimate("mh", graph, model)
    config = WalkConfig(
        num_walks=NUM_WALKS,
        walk_length=WALK_LENGTH,
        sampler=options.get("sampler", sampler_name),
        initializer=options.get("initializer", "high-weight"),
        table_budget_bytes=table_budget,
    )
    try:
        walked = generate_walk_result(
            graph, model, config, seed=8, budget=MemoryBudget(budget_bytes)
        )
    except SimulatedOutOfMemoryError:
        return None
    return walked.ti + walked.tw


@pytest.mark.parametrize("network", ["twitter", "web-uk"])
def test_table7_scalability(benchmark, networks, server_budget_bytes, network):
    graph = networks[network]

    def run():
        rows = []
        for sampler_name, options in SAMPLERS:
            row = {"sampler": sampler_name}
            for p, q in PQ_CONFIGS:
                seconds = _run_config(graph, sampler_name, options, p, q, server_budget_bytes)
                row[f"({p:g},{q:g})"] = "*" if seconds is None else round(seconds, 3)
            rows.append(row)
        return rows

    rows = run_once(benchmark, run)
    headers = ["sampler"] + [f"({p:g},{q:g})" for p, q in PQ_CONFIGS]
    record_table(
        f"table7_{network}",
        headers,
        rows,
        title=f"Table VII analog: node2vec walk time (s) on {network}-like ('*' = OOM)",
    )
    by_sampler = {row["sampler"]: row for row in rows}
    # the paper's memory pattern
    assert all(v == "*" for k, v in by_sampler["alias"].items() if k != "sampler")
    if network == "web-uk":
        assert all(v == "*" for k, v in by_sampler["rejection"].items() if k != "sampler")
    else:
        assert any(v != "*" for k, v in by_sampler["rejection"].items() if k != "sampler")
    mh_times = [v for k, v in by_sampler["mh-weight"].items() if k != "sampler"]
    assert all(isinstance(v, float) for v in mh_times)
    # M-H stability across (p, q): spread well below rejection's
    assert max(mh_times) / min(mh_times) < 2.5


# ---------------------------------------------------------------------------
# Compiled walk kernels: walks/sec, NumPy vs compiled, BENCH_walks.json
# ---------------------------------------------------------------------------
#
# The kernel throughput record behind the backend knob: every sampler with
# a compiled hot loop, on both Table VII networks, timed under the NumPy
# reference and the best available compiled backend with the *same seed* —
# the corpora are asserted bitwise-identical before any speedup is
# reported. Results go to ``benchmarks/results/BENCH_walks.json`` (one run
# record per (scale, backend); re-runs at the same scale replace their
# record, so the file accumulates the perf trajectory across machines and
# scales instead of churning).
#
# No pytest-benchmark dependency: the CI kernels-smoke job runs this test
# with plain pytest at toy scale (``BENCH_WALKS_SCALE=0.02``). The
# headline floor — compiled mh-weight >= 5x NumPy walks/sec on the largest
# network — is asserted only at record scale (>= 0.3), where kernel time
# dominates; override with ``REPRO_BENCH_MIN_SPEEDUP``. A record names the
# commit it ran on; with ``BENCH_WALKS_PARENT`` naming the BENCH_walks.json
# that a checkout of the parent commit wrote on the same host, each row
# keeps the parent's compiled seconds beside its own (run the two sides
# one after the other: the host is noisy in minute-long phases).

KERNEL_SCALE = float(os.environ.get("BENCH_WALKS_SCALE", "0.3"))
KERNEL_REPEATS = int(os.environ.get("BENCH_WALKS_REPEATS", "3"))
KERNEL_P, KERNEL_Q = 0.25, 4.0
#: samplers whose step loop has a compiled path and whose tables fit at
#: bench scale (alias is the per-state-table OOM row; memory-aware only
#: exists relative to a MemoryBudget)
KERNEL_SAMPLERS = [
    (name, options) for name, options in SAMPLERS
    if name not in ("alias", "memory-aware")
]


def _kernel_run(graph, sampler_name, options, backend):
    """Best-of-``KERNEL_REPEATS`` walk time; engine build (table prep and
    kernel compilation) stays outside the timed region, matching the
    ``compile_seconds`` bookkeeping in the engine stats."""
    best, corpus, stats = math.inf, None, None
    for __ in range(KERNEL_REPEATS):
        engine = VectorizedWalkEngine(
            graph,
            "node2vec",
            sampler=options.get("sampler", sampler_name),
            initializer=options.get("initializer", "high-weight"),
            seed=8,
            backend=backend,
            p=KERNEL_P,
            q=KERNEL_Q,
        )
        corpus, seconds = timed(
            engine.generate, num_walks=NUM_WALKS, walk_length=WALK_LENGTH
        )
        best = min(best, seconds)
        stats = engine.stats()
        del engine
    return corpus, best, stats


def _parent_compiled_seconds(backend):
    """``{(network, sampler): compiled_seconds}`` of this scale in the parent's record."""
    path = os.environ.get("BENCH_WALKS_PARENT")
    if not path:
        return {}
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    run = next(
        (r for r in runs if (r["scale"], r["backend"]) == (KERNEL_SCALE, backend)),
        {"entries": []},
    )
    return {(e["network"], e["sampler"]): e["compiled_seconds"] for e in run["entries"]}


def _record_bench_walks(record):
    """Merge one run record into BENCH_walks.json (the perf trajectory)."""
    path = RESULTS_DIR / "BENCH_walks.json"
    runs = []
    if path.exists():
        runs = json.loads(path.read_text()).get("runs", [])
    key = (record["scale"], record["backend"])
    runs = [r for r in runs if (r["scale"], r["backend"]) != key]
    runs.append(record)
    runs.sort(key=lambda r: (r["scale"], r["backend"]))
    RESULTS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps({"bench": "compiled_walk_kernels",
                                "schema_version": 1,
                                "runs": runs}, indent=2) + "\n")
    print(f"[written to {path}]")


def test_kernel_walk_throughput():
    compiled = sorted(
        name for name, ok in available_backends().items()
        if ok and name != "numpy"
    )
    if not compiled:
        pytest.skip("no compiled kernel backend available")
    backend = "cnative" if "cnative" in compiled else compiled[0]
    default_floor = "5.0" if KERNEL_SCALE >= 0.3 else "0.0"
    min_speedup = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", default_floor))

    graphs = {
        name: datasets.load_graph(name, scale=KERNEL_SCALE, seed=7,
                                  weight_mode="uniform")
        for name in ("twitter", "web-uk")
    }
    largest = max(graphs, key=lambda n: graphs[n].num_edge_entries)
    parent = _parent_compiled_seconds(backend)

    entries, rows = [], []
    for network, graph in graphs.items():
        num_walks_total = graph.num_nodes * NUM_WALKS
        for sampler_name, options in KERNEL_SAMPLERS:
            ref, ref_seconds, __ = _kernel_run(graph, sampler_name, options, "numpy")
            got, got_seconds, stats = _kernel_run(graph, sampler_name, options, backend)
            np.testing.assert_array_equal(ref.walks, got.walks)
            np.testing.assert_array_equal(ref.lengths, got.lengths)
            speedup = ref_seconds / got_seconds
            entries.append({
                "network": network,
                "num_nodes": int(graph.num_nodes),
                "num_edges": int(graph.num_edge_entries),
                "sampler": sampler_name,
                "numpy_seconds": round(ref_seconds, 4),
                "compiled_seconds": round(got_seconds, 4),
                "numpy_walks_per_sec": round(num_walks_total / ref_seconds, 1),
                "compiled_walks_per_sec": round(num_walks_total / got_seconds, 1),
                "speedup": round(speedup, 2),
                "compile_seconds": round(stats["compile_seconds"], 4),
                "wave_kernel": bool(stats["wave_kernel"]),
                "identical_corpus": True,
                **(
                    {"parent_compiled_seconds": parent[network, sampler_name]}
                    if (network, sampler_name) in parent else {}
                ),
            })
            rows.append({
                "network": network,
                "sampler": sampler_name,
                "numpy (s)": round(ref_seconds, 3),
                f"{backend} (s)": round(got_seconds, 3),
                "speedup": f"{speedup:.2f}x",
                "parent (s)": parent.get((network, sampler_name)),
            })

    headline = max(
        (e for e in entries
         if e["network"] == largest and e["sampler"] == "mh-weight"),
        key=lambda e: e["speedup"],
    )
    record = {
        "scale": KERNEL_SCALE,
        "backend": backend,
        "commit": commit_label(RESULTS_DIR.parent.parent),
        "num_walks": NUM_WALKS,
        "walk_length": WALK_LENGTH,
        "p": KERNEL_P,
        "q": KERNEL_Q,
        "seed": 8,
        "repeats": KERNEL_REPEATS,
        "entries": entries,
        "headline": {
            "network": headline["network"],
            "sampler": headline["sampler"],
            "speedup": headline["speedup"],
            "min_required": min_speedup,
        },
    }
    _record_bench_walks(record)
    record_table(
        "table7_kernels",
        ["network", "sampler", "numpy (s)", f"{backend} (s)", "speedup"]
        + (["parent (s)"] if parent else []),
        rows,
        title=(f"Compiled walk kernels ({backend}) vs NumPy: node2vec "
               f"(p={KERNEL_P:g}, q={KERNEL_Q:g}), bitwise-identical corpora"),
    )
    assert headline["speedup"] >= min_speedup, record["headline"]


# ---------------------------------------------------------------------------
# Threads inside the compiled M-H wave: walk_threads.txt
# ---------------------------------------------------------------------------
#: One measurement, in a process of its own so that the CPU affinity it
#: narrows, and the source tree it imports, are its alone: the walk_only
#: shape (node2vec p = 0.25, q = 4, M-H high-weight on the compiled
#: backend, Twitter stand-in at 0.5, 10 x 80 walks, a fresh engine each
#: repetition). The wave kernel takes its thread count from the affinity
#: mask, so narrowing the mask is how a run on 1 CPU and a run on 2 are
#: told apart: no option. ``threads`` (the over-subscribed row only)
#: goes through the kernel-level argument that tests use; a tree
#: without it (the parent) reports one thread.
_WALK_SCRIPT = """
import hashlib, json, os, sys, time
cpus, threads = int(sys.argv[1]), int(sys.argv[2])
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])
from repro.core.config import WalkConfig
from repro.core.pipeline import generate_walk_result
from repro.graph import datasets
from repro.walks.kernels import cnative_backend
from repro.walks.models import make_model

if threads:
    original = cnative_backend.CNativeKernels.mh_wave
    cnative_backend.CNativeKernels.mh_wave = (
        lambda self, *args: original(self, *args, threads=threads)
    )
graph = datasets.load("twitter", scale=0.5, seed=11)
config = WalkConfig(num_walks=10, walk_length=80, sampler="mh", initializer="high-weight",
                    backend="cnative")
seconds = []
for __ in range(3):
    start = time.perf_counter()
    walked = generate_walk_result(graph, make_model("node2vec", graph, p=0.25, q=4.0), config, seed=11)
    seconds.append(time.perf_counter() - start)
print(json.dumps({
    "walk_s": min(seconds), "threads": walked.stats.get("wave_threads", 1),
    "tokens": int(walked.corpus.token_count), "init_s": walked.stats["init_seconds"],
    "sha": hashlib.sha256(walked.corpus.walks.tobytes()).hexdigest(),
}))
"""
_REPO = Path(__file__).resolve().parents[1]


def _measure_walk(src, cpus, threads=0):
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", _WALK_SCRIPT, str(cpus), str(threads)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls here")
def test_walk_thread_scaling():
    """Best walk seconds (3 repetitions in each of 3 fresh processes,
    alternated with the parent's) at the ``walk_only`` shape with the
    process allowed 1 CPU and then 2, beside the same measurement of the
    parent commit when ``BENCH_PARENT_SRC`` names the ``src`` directory
    of a checkout of it. The last row forces one thread more than CPUs,
    so that what over-subscription costs is on record. Every row must
    walk the same corpus, the parent's included."""
    if not available_backends().get("cnative", False):
        pytest.skip("no C compiler on this host: there is no wave kernel to scale")
    parent_src = os.environ.get("BENCH_PARENT_SRC")
    allowed = len(os.sched_getaffinity(0))
    cases = [(cpus, 0) for cpus in (1, 2) if cpus <= allowed]
    cases.append((min(allowed, 2), min(allowed, 2) + 1))
    rows, shas = [], set()
    for cpus, threads in cases:
        sides = {"change": _REPO / "src"}
        if parent_src and not threads:
            sides["parent"] = parent_src
        best = {}
        for rnd in range(3):  # the host's speed drifts by the minute: alternate the sides
            for side in sorted(sides, reverse=rnd % 2 == 1):
                got = _measure_walk(sides[side], cpus, threads)
                shas.add(got["sha"])
                if side not in best or got["walk_s"] < best[side]["walk_s"]:
                    best[side] = got
        change = best["change"]
        assert threads or change["threads"] <= cpus  # never more threads than CPUs, unasked
        row = {
            "cpus": cpus, "threads": change["threads"], "walk_s": round(change["walk_s"], 3),
            "init_s": round(change["init_s"], 3),
            "steps_per_s": int(change["tokens"] / change["walk_s"]),
        }
        if "parent" in best:
            row["parent_walk_s"] = round(best["parent"]["walk_s"], 3)
            row["walk_s / parent"] = round(change["walk_s"] / best["parent"]["walk_s"], 2)
        rows.append(row)
    assert len(shas) == 1, shas
    parent = f"parent {commit_label(Path(parent_src).parent)}" if parent_src else "parent not measured"
    record_table(
        "walk_threads",
        ["cpus", "threads", "walk_s", "init_s", "steps_per_s", "parent_walk_s", "walk_s / parent"],
        rows,
        title=(
            f"M-H wave thread scaling at the walk_only shape: commit {commit_label(_REPO)}, {parent}\n"
            f"twitter 0.5, node2vec p=0.25 q=4, 10 x 80 walks, {change['tokens']} tokens, a fresh "
            "engine per repetition; best of 3 repetitions in each of 3 fresh processes a side, the "
            "sides alternated,\nCPU affinity narrowed to `cpus`; `threads` is what the kernel used "
            "(last row: one more than CPUs, forced through CNativeKernels.mh_wave(threads=))"
        ),
    )
