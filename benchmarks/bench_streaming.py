"""The three ways to run the one walk→learn driver: wall clock and memory.

The same workload run (a) monolithically — one shard, the whole corpus,
kept; (b) streamed — bounded shards, walk and train interleaved in one
thread; (c) streamed + overlap — the same shards behind a prefetching
iterator, so a producer thread walks while the loop trains. Two cases,
chosen to sit on the two sides of the ``overlap`` option:

* ``deepwalk + mh`` — the paper's sampler. Walking is a few percent of
  the run, so there is next to nothing to overlap: the three modes are
  expected to differ by less than the host's spread, and streaming buys
  memory (``peak_corpus_bytes``), not time.
* ``node2vec + direct`` (p 0.25, q 4) — a baseline sampler that evaluates
  every neighbour's weight per step, so Tw ≈ Tl. This is the case that
  justifies keeping ``overlap``: walking hides behind learning.

Each round is one fresh process that runs the three modes in turn,
twice over, in an order rotated by the round; rounds alternate between this tree and,
when ``BENCH_PARENT_SRC`` names the ``src`` directory of a checkout of
the parent commit, that one (the host's speed drifts by the minute, so
only alternated runs compare). Reported: median and range of the wall
clock over the rounds, the median phase split, peak corpus bytes. Every
mode of a case must train the same number of walks, and a streamed
run's peak corpus bytes must stay within a few shards.

Plain pytest, no pytest-benchmark. ``BENCH_STREAMING_SCALE`` (default
1.0) below 1 is a smoke run: smaller graphs, one round. Either way the
run overwrites the committed ``results/streaming.txt``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

from _common import commit_label, record_table

SCALE = float(os.environ.get("BENCH_STREAMING_SCALE", "1.0"))
ROUNDS = 5 if SCALE >= 1.0 else 1
MODES = ("monolithic", "streamed", "streamed+overlap")
#: shards of a quarter wave and of a whole one (``direct`` steps few
#: walkers at a time inefficiently): 16 and 10 shards a run
CASES = {
    "deepwalk + mh": dict(
        graph=("chung_lu", max(int(2000 * SCALE), 100)), model="deepwalk", params={},
        sampler="mh", num_walks=4, walk_length=max(int(40 * SCALE), 8), dimensions=32,
        shard_walks=max(int(500 * SCALE), 25),
    ),
    "node2vec + direct": dict(
        graph=("blogcatalog", max(0.3 * SCALE, 0.05)), model="node2vec",
        params={"p": 0.25, "q": 4.0}, sampler="direct", num_walks=10,
        walk_length=max(int(40 * SCALE), 8), dimensions=128, shard_walks=max(int(450 * SCALE), 25),
    ),
}
_REPO = Path(__file__).resolve().parents[1]

#: One round of one case in a process of its own, so that the source tree
#: it imports is its alone. Only names both trees have are used.
_ROUND_SCRIPT = """
import json, sys
from repro.core.config import StreamingConfig, TrainConfig, WalkConfig
from repro.core.pipeline import train_pipeline
from repro.graph import datasets, generators
from repro.walks.models import make_model

case, modes = json.loads(sys.argv[1]), json.loads(sys.argv[2])
kind, size = case["graph"]
graph = (
    generators.chung_lu_power_law(size, 8.0, seed=3) if kind == "chung_lu"
    else datasets.load_graph(kind, scale=size, seed=3)
)
streaming = {
    "monolithic": None,
    "streamed": StreamingConfig(shard_walks=case["shard_walks"]),
    "streamed+overlap": StreamingConfig(shard_walks=case["shard_walks"], overlap=True),
}

def run(mode, **shape):
    walk = WalkConfig(**{
        "num_walks": case["num_walks"], "walk_length": case["walk_length"],
        "sampler": case["sampler"], **shape,
    })
    return train_pipeline(
        graph, make_model(case["model"], graph, **case["params"]), walk,
        TrainConfig(dimensions=case["dimensions"], epochs=1), seed=7, streaming=streaming[mode],
    )

run("streamed+overlap", num_walks=1, walk_length=8)  # imports, kernel load: not timed
rows = {mode: [] for mode in modes}
for mode in modes + modes:
    result = run(mode)
    rows[mode].append({
        "init_s": result.ti, "walk_s": result.tw, "learn_s": result.tl, "wall_s": result.tt,
        "peak_corpus_bytes": int(result.peak_corpus_bytes),
        "num_walks": result.corpus_summary["num_walks"],
        "tokens": result.corpus_summary["token_count"], "embedded": len(result.embeddings),
    })
print(json.dumps(rows))
"""


def _round(src, case, rnd):
    """One process: the three modes in turn, twice over, the first mode
    rotated by round (a process is the unit the host's placement of the
    walker and kernel threads varies by, so a mode is sampled in many)."""
    modes = MODES[rnd % 3 :] + MODES[: rnd % 3]
    out = subprocess.run(
        [sys.executable, "-c", _ROUND_SCRIPT, json.dumps(case), json.dumps(modes)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True, timeout=1800,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_streaming_vs_monolithic():
    parent_src = os.environ.get("BENCH_PARENT_SRC")
    sides = {"change": _REPO / "src"}
    if parent_src:
        sides["parent"] = parent_src
    table = []
    for name, case in CASES.items():
        runs = {side: {mode: [] for mode in MODES} for side in sides}
        for rnd in range(ROUNDS):
            for side in sorted(sides, reverse=rnd % 2 == 1):
                for mode, rows in _round(sides[side], case, rnd).items():
                    runs[side][mode].extend(rows)

        def mid(side, mode, key):
            return median(run[key] for run in runs[side][mode])

        def walls(side, mode):
            seconds = sorted(run["wall_s"] for run in runs[side][mode])
            return round(median(seconds), 3), f"{seconds[0]:.3f}-{seconds[-1]:.3f}"

        for mode in MODES:
            row = {
                "case": name, "mode": mode,
                "init_s": round(mid("change", mode, "init_s"), 3),
                "walk_s": round(mid("change", mode, "walk_s"), 3),
                "learn_s": round(mid("change", mode, "learn_s"), 3),
                "peak_corpus_bytes": int(mid("change", mode, "peak_corpus_bytes")),
                "tokens": runs["change"][mode][0]["tokens"],
            }
            row["wall_s"], row["wall_range_s"] = walls("change", mode)
            if "parent" in sides:
                row["parent_wall_s"], row["parent_wall_range_s"] = walls("parent", mode)
            table.append(row)

        mono = runs["change"]["monolithic"][0]
        shard_bytes = case["shard_walks"] * (case["walk_length"] + 1) * 8
        for mode in MODES[1:]:
            for streamed in runs["change"][mode]:
                # same workload ...
                assert streamed["num_walks"] == mono["num_walks"]
                assert streamed["embedded"] == mono["embedded"]
                # ... with peak corpus residency bounded by the shard size (a few
                # shard-sized buffers), not the total corpus size
                assert streamed["peak_corpus_bytes"] <= 4 * shard_bytes
                assert streamed["peak_corpus_bytes"] < mono["peak_corpus_bytes"]

    parent = f"parent {commit_label(Path(parent_src).parent)}" if parent_src else "parent not measured"
    shapes = "; ".join(
        f"{name}: {c['graph'][0]} {c['graph'][1]:g}, {c['num_walks']}x{c['walk_length']} walks, "
        f"d={c['dimensions']}, shard={c['shard_walks']} walks"
        for name, c in CASES.items()
    )
    record_table(
        "streaming",
        ["case", "mode", "init_s", "walk_s", "learn_s", "wall_s", "wall_range_s",
         "peak_corpus_bytes", "tokens", "parent_wall_s", "parent_wall_range_s"],
        table,
        title=(
            f"one walk→learn driver, three modes: commit {commit_label(_REPO)}, {parent}\n"
            f"{shapes}\n"
            f"median (and range) of {2 * ROUNDS} runs a mode and side: {ROUNDS} rounds, one fresh "
            "process a round, the three modes in turn twice over, first mode rotated, sides alternated;\n"
            "wall_s is timings['total']: Ti+Tw+Tl monolithic, the driver's wall clock streamed "
            "(overlap shows as wall_s < walk_s + learn_s)"
        ),
    )
