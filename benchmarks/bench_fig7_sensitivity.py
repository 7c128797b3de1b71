"""Fig. 7: walk-time sensitivity of every sampler to p and q.

The paper fixes one hyper-parameter at 1 and sweeps the other over
[0.25 ... 10] for node2vec (LiveJournal, YouTube), edge2vec (AMiner) and
fairwalk (YouTube). Expected shape:

* M-H (random / high-weight) and alias: flat curves — per-sample cost is
  independent of the target distribution's shape;
* rejection: inflates as the distribution skews (small p or extreme q);
* KnightKing: folds the p outlier (flat in p) but not the q bulk
  (inflates as q shrinks/grows), and folding is ineffective for
  edge2vec/fairwalk;
* memory-aware: between alias and direct.
"""

import pytest

from repro.core.config import WalkConfig
from repro.core.pipeline import generate_walk_result
from repro.graph import datasets
from repro.sampling.memory_model import sampler_memory_estimate
from repro.walks.models import make_model

from _common import record_table, run_once

SWEEP = [0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
SAMPLERS = [
    ("rejection", {}),
    ("knightking", {}),
    ("memory-aware", {}),
    ("mh-random", {"sampler": "mh", "initializer": "random"}),
    ("mh-weight", {"sampler": "mh", "initializer": "high-weight"}),
    ("alias", {}),
]
NUM_WALKS, WALK_LENGTH = 1, 24

PANELS = [
    # (panel id, model, dataset, scale, varying parameter)
    ("a_node2vec_livejournal_p", "node2vec", "livejournal", 0.2, "p"),
    ("b_node2vec_livejournal_q", "node2vec", "livejournal", 0.2, "q"),
    ("c_edge2vec_aminer_p", "edge2vec", "aminer", 0.12, "p"),
    ("g_fairwalk_youtube_p", "fairwalk", "youtube", 0.25, "p"),
]


def _load(dataset, scale):
    loaded = datasets.load(dataset, scale=scale, seed=11, weight_mode="uniform")
    graph = loaded[0] if isinstance(loaded, tuple) else loaded
    if dataset in ("livejournal", "youtube"):
        from repro.graph.hetero import assign_random_types

        graph = assign_random_types(graph, 3, seed=11)
    return graph


@pytest.mark.parametrize("panel", PANELS, ids=lambda p: p[0])
def test_fig7_sensitivity(benchmark, panel):
    panel_id, model_name, dataset, scale, varying = panel
    graph = _load(dataset, scale)

    def run():
        rows = []
        for sampler_name, options in SAMPLERS:
            row = {"sampler": sampler_name}
            for value in SWEEP:
                p, q = (value, 1.0) if varying == "p" else (1.0, value)
                model = make_model(model_name, graph, p=p, q=q)
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
                walked = generate_walk_result(graph, model, config, seed=12)
                row[f"{varying}={value:g}"] = round(walked.ti + walked.tw, 3)
            rows.append(row)
        return rows

    rows = run_once(benchmark, run)
    headers = ["sampler"] + [f"{varying}={v:g}" for v in SWEEP]
    record_table(
        f"fig7_{panel_id}",
        headers,
        rows,
        title=f"Fig. 7 analog ({panel_id}): {model_name} on {dataset}-like, varying {varying}",
    )

    def spread(name):
        row = next(r for r in rows if r["sampler"] == name)
        values = [v for k, v in row.items() if k != "sampler"]
        return max(values) / max(min(values), 1e-9)

    # M-H stays flat while rejection inflates with skew
    assert spread("mh-weight") < spread("rejection") + 1.0
    if model_name == "node2vec" and varying == "p":
        # folding absorbs the single p outlier
        assert spread("knightking") <= spread("rejection") + 0.5
