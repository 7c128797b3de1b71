"""Fig. 6: first-order + heterogeneous models on the billion-edge stand-ins.

The paper's Fig. 6 runs deepwalk, metapath2vec, edge2vec and fairwalk on
Twitter and Web-UK with KnightKing, the three M-H initialization
strategies and the memory-aware sampler, decomposing each bar into
initialization and walking cost. Expected shape:

* burn-in initialization dominates its bar (42-47% of total in the paper);
* random/high-weight initialization cost a fraction of that;
* KnightKing is competitive on first-order models but OOMs on Web-UK;
* memory-aware runs everywhere but slower.

Heterogeneous models run on the random-type-augmented networks, the
paper's own Section V-D device.
"""

import pytest

from repro.core.config import WalkConfig
from repro.core.pipeline import generate_walk_result
from repro.errors import SimulatedOutOfMemoryError
from repro.graph import datasets
from repro.graph.hetero import assign_random_types
from repro.sampling.memory_model import MemoryBudget, rejection_bytes, sampler_memory_estimate
from repro.walks.models import make_model

from _common import record_table, run_once

MODELS = [
    ("deepwalk", {}),
    ("metapath2vec", {"metapath": [0, 1, 2, 1, 0]}),
    ("edge2vec", {"p": 0.25, "q": 0.25}),
    ("fairwalk", {"p": 1.0, "q": 1.0}),
]
SAMPLERS = [
    ("knightking", {}),
    ("mh-random", {"sampler": "mh", "initializer": "random"}),
    ("mh-burnin", {"sampler": "mh", "initializer": "burn-in"}),
    ("mh-weight", {"sampler": "mh", "initializer": "high-weight"}),
    ("memory-aware", {}),
]
NUM_WALKS, WALK_LENGTH = 1, 20


@pytest.fixture(scope="module")
def networks():
    twitter = datasets.load_graph("twitter", scale=0.2, seed=9, weight_mode="uniform")
    webuk = datasets.load_graph("web-uk", scale=0.2, seed=9, weight_mode="uniform")
    return {
        "twitter": assign_random_types(twitter, 3, seed=9),
        "web-uk": assign_random_types(webuk, 3, seed=9),
    }


@pytest.fixture(scope="module")
def server_budget_bytes(networks):
    small = rejection_bytes(networks["twitter"])
    large = rejection_bytes(networks["web-uk"])
    return (small + large) // 2 + small // 4


@pytest.mark.parametrize("network", ["twitter", "web-uk"])
def test_fig6_breakdown(benchmark, networks, server_budget_bytes, network):
    graph = networks[network]

    def run():
        rows = []
        for model_name, params in MODELS:
            model = make_model(model_name, graph, **params)
            for sampler_name, options in SAMPLERS:
                table_budget = None
                if sampler_name == "memory-aware":
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
                        graph, model, config, seed=10,
                        budget=MemoryBudget(server_budget_bytes),
                    )
                    init_s, walk_s = walked.ti, walked.tw
                    total = init_s + walk_s
                    rows.append(
                        {
                            "model": model_name,
                            "sampler": sampler_name,
                            "init_s": init_s,
                            "walk_s": walk_s,
                            "total_s": total,
                            "init_frac": init_s / total if total else 0.0,
                        }
                    )
                except SimulatedOutOfMemoryError:
                    rows.append(
                        {
                            "model": model_name,
                            "sampler": sampler_name,
                            "init_s": "*",
                            "walk_s": "*",
                            "total_s": "*",
                            "init_frac": "*",
                        }
                    )
        return rows

    rows = run_once(benchmark, run)
    record_table(
        f"fig6_{network}",
        ["model", "sampler", "init_s", "walk_s", "total_s", "init_frac"],
        rows,
        title=f"Fig. 6 analog ({network}-like): init/walk decomposition ('*' = OOM)",
    )
    # burn-in's init share dominates the other strategies (paper: 42-47%)
    for model_name, __ in MODELS:
        named = {
            r["sampler"]: r for r in rows if r["model"] == model_name and r["init_frac"] != "*"
        }
        if "mh-burnin" in named and "mh-weight" in named:
            assert named["mh-burnin"]["init_frac"] >= named["mh-weight"]["init_frac"]
    if network == "web-uk":
        kk = [r for r in rows if r["sampler"] == "knightking"]
        assert all(r["total_s"] == "*" for r in kk)
