"""Defining a brand-new random-walk model with the unified abstraction.

The paper's Section IV-B promise: a custom model needs only its dynamic
edge weight — here one method, ``batch_dynamic_weight``, evaluated for a
whole wave of walker states ``(prev, prev_off, cur, step)`` at once —
and every edge sampler, the lock-step engine and the trainer then work
unchanged. (``batch_state_index``, ``kernel_spec`` and
``enumerate_state_contexts`` are optional extras.) This example
implements two models not in the paper:

* TemperatureWalk — a softmax-tempered weight walk where ``tau`` sweeps
  between uniform exploration and greedy heavy-edge following;
* SecondOrderAvoidReturn — a minimal second-order model that simply
  suppresses immediate backtracking (node2vec with only the p-term).

Both are registered with :func:`repro.register_model`, so they work *by
name* everywhere a built-in model does — ``UniNet(model=...)``,
declarative :class:`~repro.RunSpec` sweeps, and the CLI — with no edits
to the package.

Run:  python examples/custom_model.py
"""

import numpy as np

from repro import GraphSpec, RunSpec, UniNet, WalkConfig, datasets, register_model, run_many
from repro.harness.tables import print_table
from repro.walks.models.base import RandomWalkModel


@register_model(
    "temperature-walk",
    aliases=("tempwalk",),
    param_spec={"tau": {"type": "float", "default": 1.0, "help": "softmax temperature"}},
)
class TemperatureWalk(RandomWalkModel):
    """First-order walk over ``w ** (1/tau)`` (tau=1 is deepwalk)."""

    name = "temperature-walk"
    order = 1

    def __init__(self, graph, tau: float = 1.0):
        super().__init__(graph)
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = float(tau)

    def batch_dynamic_weight(self, prev, prev_off, cur, step, edge_offsets):
        w = np.asarray(self.graph.edge_weight_at(edge_offsets), dtype=np.float64)
        return w ** (1.0 / self.tau)


@register_model(
    "avoid-return",
    param_spec={"return_penalty": {"type": "float", "default": 0.05,
                                   "help": "damping on the backtracking edge"}},
)
class SecondOrderAvoidReturn(RandomWalkModel):
    """Walks that damp the edge straight back to the previous node."""

    name = "avoid-return"
    order = 2

    def __init__(self, graph, return_penalty: float = 0.05):
        super().__init__(graph)
        self.return_penalty = float(return_penalty)

    def batch_dynamic_weight(self, prev, prev_off, cur, step, edge_offsets):
        w = np.asarray(self.graph.edge_weight_at(edge_offsets), dtype=np.float64)
        is_return = self.graph.targets[edge_offsets] == prev
        return np.where(is_return, w * self.return_penalty, w)

    def alpha_bound(self, graph):
        return 1.0  # dynamic weight never exceeds the static weight


def immediate_return_rate(corpus):
    """Fraction of steps that bounce straight back (x -> y -> x)."""
    returns = 0
    chances = 0
    for walk in corpus.iter_walks():
        if walk.size < 3:
            continue
        returns += int((walk[2:] == walk[:-2]).sum())
        chances += walk.size - 2
    return returns / max(chances, 1)


def main():
    graph = datasets.load_graph("amazon", scale=0.3, seed=3, weight_mode="exponential")
    print(f"graph: {graph}")

    # --- temperature sweep: registered models work by name ---------------
    rows = []
    for tau in (0.25, 1.0, 4.0):
        net = UniNet(graph, model="temperature-walk", tau=tau, seed=3)
        corpus = net.generate_walks(num_walks=2, walk_length=30)
        visited = corpus.node_frequencies(graph.num_nodes)
        rows.append(
            {
                "tau": tau,
                "distinct_nodes_visited": int((visited > 0).sum()),
                "max_node_visits": int(visited.max()),
            }
        )
    print_table(
        ["tau", "distinct_nodes_visited", "max_node_visits"],
        rows,
        title="TemperatureWalk: tau trades exploration for heavy-edge greed",
    )

    # --- custom model x every sampler, as one declarative sweep ----------
    base = RunSpec(
        graph=GraphSpec(dataset="amazon", scale=0.3, seed=3, weight_mode="exponential"),
        model="avoid-return",
        model_params={"return_penalty": 0.05},
        walk=WalkConfig(num_walks=2, walk_length=30),
        train=None,
        seed=4,
    )
    reports = run_many(base, grid={"sampler": ["mh", "direct", "rejection"]},
                       keep_corpus=True)
    rows = [
        {
            "sampler": report.spec.walk.sampler,
            "immediate_return_rate": immediate_return_rate(report.corpus),
        }
        for report in reports
    ]
    baseline = UniNet(graph, model="deepwalk", seed=4).generate_walks(2, 30)
    rows.append({"sampler": "deepwalk (no penalty)",
                 "immediate_return_rate": immediate_return_rate(baseline)})
    print_table(
        ["sampler", "immediate_return_rate"],
        rows,
        title="SecondOrderAvoidReturn: one model, every sampler, same law",
    )


if __name__ == "__main__":
    main()
