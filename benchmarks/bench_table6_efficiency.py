"""Table VI: end-to-end training cost, open-source vs UniNet(Orig) vs M-H.

The paper's headline efficiency table: per model and dataset, the
initialization / walk / learning / total seconds of

* the open-sourced implementation (pure-Python dict graphs; node2vec
  precomputes alias tables for every edge),
* UniNet(Orig) — the model's original sampler (alias for node2vec,
  direct for the others) inside the UniNet engine,
* UniNet(M-H) — the paper's sampler with high-weight initialization,

plus the two speed-up columns. Expected shape: UniNet(M-H) fastest, with
the open-source column one to three orders slower (10X-900X in the
paper); UniNet(Orig) in between.

The learning phase is identical across the three configurations (same
trainer, same workload), so Tl is measured once per (model, dataset) on
the UniNet(M-H) corpus and shared across rows — the paper does the
equivalent by holding the trainer fixed.
"""


import pytest

from repro.core.config import WalkConfig
from repro.core.pipeline import generate_walk_result
from repro.embedding import Word2Vec
from repro.graph import datasets
from repro.walks.models import make_model

from baselines import run_legacy_walks
from _common import record_table, run_once, timed

NUM_WALKS, WALK_LENGTH = 4, 40

#: (model, dataset, scale, model params, UniNet(Orig) sampler)
WORKLOADS = [
    ("deepwalk", "blogcatalog", 0.3, {}, "alias-first-order"),
    ("deepwalk", "amazon", 0.25, {}, "alias-first-order"),
    ("node2vec", "blogcatalog", 0.3, {"p": 0.25, "q": 4.0}, "alias"),
    ("node2vec", "reddit", 0.25, {"p": 0.25, "q": 0.25}, "alias"),
    ("metapath2vec", "acm", 0.5, {"metapath": "APA"}, "direct"),
    ("metapath2vec", "dblp", 0.3, {"metapath": "APA"}, "direct"),
    ("edge2vec", "acm", 0.5, {"p": 0.25, "q": 0.25}, "direct"),
    ("fairwalk", "dblp", 0.3, {"p": 1.0, "q": 1.0}, "direct"),
]


def _uninet_times(graph, model_name, params, sampler):
    model = make_model(model_name, graph, **params)
    config = WalkConfig(num_walks=NUM_WALKS, walk_length=WALK_LENGTH, sampler=sampler)
    walked = generate_walk_result(graph, model, config, seed=1)
    return walked.corpus, walked.ti, walked.tw


def _learning_seconds(graph, corpus):
    __, seconds = timed(
        Word2Vec(dimensions=64, epochs=1, seed=2).fit,
        corpus, num_nodes=graph.num_nodes,
    )
    return seconds


@pytest.mark.parametrize(
    "workload", WORKLOADS, ids=lambda w: f"{w[0]}-{w[1]}"
)
def test_table6_efficiency(benchmark, workload):
    model_name, dataset, scale, params, orig_sampler = workload
    loaded = datasets.load(dataset, scale=scale, seed=3)
    graph = loaded[0] if isinstance(loaded, tuple) else loaded

    def run():
        # open-source baseline
        __, legacy_t = run_legacy_walks(
            graph, model_name, num_walks=NUM_WALKS, walk_length=WALK_LENGTH,
            seed=4, **params,
        )
        # UniNet with the model's original sampler
        __, orig_ti, orig_tw = _uninet_times(graph, model_name, params, orig_sampler)
        # UniNet with the M-H sampler
        corpus, mh_ti, mh_tw = _uninet_times(graph, model_name, params, "mh")
        tl = _learning_seconds(graph, corpus)

        def total(ti, tw):
            return ti + tw + tl

        open_tt = total(legacy_t["init"], legacy_t["walk"])
        orig_tt = total(orig_ti, orig_tw)
        mh_tt = total(mh_ti, mh_tw)
        mh_walk_phase = max(mh_ti + mh_tw, 1e-9)
        return [
            {
                "impl": "Open-sourced",
                "Ti": legacy_t["init"], "Tw": legacy_t["walk"], "Tl": tl, "Tt": open_tt,
            },
            {"impl": "UniNet(Orig)", "Ti": orig_ti, "Tw": orig_tw, "Tl": tl, "Tt": orig_tt},
            {"impl": "UniNet(M-H)", "Ti": mh_ti, "Tw": mh_tw, "Tl": tl, "Tt": mh_tt},
            {
                "impl": "speedups",
                "Ti": None, "Tw": None, "Tl": None, "Tt": None,
                "orig/mh": orig_tt / mh_tt,
                "open/mh": open_tt / mh_tt,
                # Tl is identical across rows by construction; the walk-phase
                # ratio isolates the sampler contribution (the paper's large
                # factors come from exactly this phase at billion-edge scale)
                "walk-phase open/mh": (legacy_t["init"] + legacy_t["walk"]) / mh_walk_phase,
            },
        ]

    rows = run_once(benchmark, run)
    record_table(
        f"table6_{model_name}_{dataset}",
        ["impl", "Ti", "Tw", "Tl", "Tt", "orig/mh", "open/mh", "walk-phase open/mh"],
        rows,
        title=f"Table VI analog: {model_name} on {dataset}-like",
    )
    speedups = rows[-1]
    # the paper's ordering: M-H walk phase at least as fast as both baselines
    assert speedups["open/mh"] > 1.0
    assert rows[2]["Tw"] <= rows[0]["Tw"] * 1.5
