"""Table I / Table IV: the five models in the unified abstraction.

Regenerates the characteristics table (state definition, #states, dynamic
edge weight, network type) from the live model registry, and
micro-benchmarks the dynamic-weight kernels that every sampler calls.
"""

import numpy as np
import pytest

from repro.graph import datasets
from repro.walks.models import MODEL_REGISTRY, make_model

from _common import record_table, run_once

_STATE_DEFS = {
    "deepwalk": ("v", "w_vu", "homogeneous"),
    "node2vec": ("(s, v)", "alpha * w_vu", "homogeneous"),
    "metapath2vec": ("(T, v)", "w_vu if phi(u)=T else 0", "heterogeneous"),
    "edge2vec": ("(s, v)", "alpha * M[phi(s,v),phi(v,u)] * w_vu", "heterogeneous"),
    "fairwalk": ("(s, v)", "alpha * w_vu / |K|", "attributed"),
}


@pytest.fixture(scope="module")
def graphs():
    homo = datasets.load_graph("youtube", scale=0.2, seed=0)
    hetero = datasets.load_graph("aminer", scale=0.05, seed=0)
    return homo, hetero


def test_table1_model_characteristics(benchmark, graphs):
    homo, hetero = graphs

    def build():
        rows = []
        for name in MODEL_REGISTRY:
            graph = hetero if name in ("metapath2vec", "edge2vec", "fairwalk") else homo
            kwargs = {"metapath": "APA"} if name == "metapath2vec" else {}
            model = make_model(name, graph, **kwargs)
            rows.append(
                {
                    "model": name,
                    "state x": _STATE_DEFS[name][0],
                    "dynamic weight": _STATE_DEFS[name][1],
                    "#states": model.state_space_size(graph),
                    "order": model.order,
                    "network": _STATE_DEFS[name][2],
                }
            )
        return rows

    rows = run_once(benchmark, build)
    record_table(
        "table1_models",
        ["model", "state x", "dynamic weight", "#states", "order", "network"],
        rows,
        title="Table I/IV analog: random walk models in the unified abstraction",
    )


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_weight_kernel_throughput(benchmark, graphs, name):
    """Per-call cost of the batched CALCULATEWEIGHT kernel (1e5 edges)."""
    homo, hetero = graphs
    graph = hetero if name in ("metapath2vec", "edge2vec", "fairwalk") else homo
    kwargs = {"metapath": "APA"} if name == "metapath2vec" else {}
    model = make_model(name, graph, **kwargs)
    rng = np.random.default_rng(1)
    m = graph.num_edge_entries
    offs = rng.integers(0, m, 100_000)
    cur = graph.edge_sources()[offs]
    prev_off = rng.integers(0, m, 100_000)
    prev = graph.targets[prev_off]
    benchmark(model.batch_dynamic_weight, prev, prev_off, cur, 1, offs)
