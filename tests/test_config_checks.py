"""Every knob is checked once, where its value first exists.

A setting that cannot run is refused by its config dataclass: as a
field, as a RunSpec key, as an engine keyword (the keywords are sugar
for the fields), the same on every backend and on the sharded engine,
and before a sampler structure, a shard plan or a walk exists. Each case
here once ran further: into NumPy, into a silent empty walk, through the
whole walk phase, or through the whole training run.
"""

import numpy as np
import pytest

import repro.core.pipeline as pipeline
from repro import UniNet, run
from repro.core.config import StreamingConfig, TrainConfig, WalkConfig
from repro.core.runner import apply_override
from repro.core.spec import EvalSpec, GraphSpec, RunSpec, UpdatesSpec
from repro.embedding import KeyedVectors
from repro.errors import ConfigError, ModelError, SpecError, TrainingError, WalkError
from repro.sampling.memory_model import MemoryBudget
from repro.serving import QueryServer, ServerConfig
from repro.serving.config import ServingSpec
from repro.sharding import ShardedWalkEngine
from repro.walks import VectorizedWalkEngine
from repro.walks.kernels import available_backends

BACKENDS = sorted(name for name, ok in available_backends().items() if ok)
BASE = {"graph": {"dataset": "amazon", "scale": 0.05, "seed": 1}}

#: (field, value): what each did at the parent is in the module docstring
BAD_WALK = [
    ("init_sample_cap", 0),  # NumPy: argmax of an empty sequence; cnative: walked
    ("init_sample_cap", -3),  # "negative dimensions are not allowed"
    ("init_sample_cap", 1.5),  # TypeError
    ("max_reject_rounds", 0),  # every rejection walk ended after step 0
    ("burn_in_iterations", -1),  # silently the random initializer
    ("table_budget_bytes", -1),
]


@pytest.mark.parametrize("field, value", BAD_WALK)
class TestWalkKnobs:
    def test_refused_as_a_field_and_as_a_spec_key(self, field, value):
        with pytest.raises(WalkError, match=field):
            WalkConfig(**{field: value})
        with pytest.raises(WalkError, match=field):
            RunSpec.from_dict({**BASE, "walk": {field: value}})
        with pytest.raises(WalkError, match=field):
            RunSpec.from_dict(apply_override(dict(BASE), f"walk.{field}", value))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("sampler", ("mh", "rejection"))
    def test_refused_as_an_engine_keyword_before_a_structure_is_built(
        self, field, value, backend, sampler, small_power_law_graph
    ):
        # the first structure built would overdraw a one-byte budget
        with pytest.raises(WalkError, match=field):
            VectorizedWalkEngine(
                small_power_law_graph, "node2vec", sampler=sampler, backend=backend,
                budget=MemoryBudget(1), **{field: value},
            )

    def test_refused_by_the_other_engines_and_the_facade(
        self, field, value, small_power_law_graph, monkeypatch
    ):
        def no_plan(*args):
            raise AssertionError("a shard plan was built")

        monkeypatch.setattr("repro.sharding.engine.build_shard_plan", no_plan)
        for build in (ShardedWalkEngine, UniNet):
            with pytest.raises(WalkError, match=field):
                build(small_power_law_graph, "deepwalk", **{field: value})


class TestWalkConfig:
    def test_a_budgeted_sampler_without_its_budget_is_refused_at_the_spec(self):
        with pytest.raises(WalkError, match="table_budget_bytes"):
            RunSpec.from_dict({**BASE, "walk": {"sampler": "memory-aware"}})
        walk = {"sampler": "memory-aware", "table_budget_bytes": 4096}
        assert RunSpec.from_dict({**BASE, "walk": walk}).walk.table_budget_bytes == 4096

    def test_unset_caps_pass_and_initializer_instances_are_refused(self):
        assert WalkConfig(init_sample_cap=None, burn_in_iterations=0).init_sample_cap is None
        with pytest.raises(WalkError, match="initializer must be a registered name"):
            WalkConfig(initializer=object())
        with pytest.raises(WalkError, match="initializer"):
            RunSpec.from_dict({**BASE, "walk": {"initializer": 3}})

    def test_a_keyword_that_is_neither_a_field_nor_a_model_parameter(self, tiny_weighted_graph):
        for build in (VectorizedWalkEngine, ShardedWalkEngine, UniNet):
            with pytest.raises(ModelError) as refused:
                build(tiny_weighted_graph, "node2vec", intializer="random")
            # both sets it could have been: the model's and the config's
            assert "intializer" in str(refused.value)
            assert "['p', 'q']" in str(refused.value) and "'initializer'" in str(refused.value)
        # the two transport values no caller could reach are no keywords either
        for gone in ("heartbeat_timeout", "max_frame_bytes"):
            with pytest.raises(ModelError, match=gone):
                ShardedWalkEngine(tiny_weighted_graph, "deepwalk", transport="socket", **{gone: 1})

    def test_the_walk_shape_is_the_configs_unless_given(self, tiny_weighted_graph):
        config = WalkConfig(num_walks=2, walk_length=4)
        engine = VectorizedWalkEngine(tiny_weighted_graph, "deepwalk", config=config, seed=3)
        corpus = engine.generate()
        assert corpus.num_walks == 2 * tiny_weighted_graph.num_nodes
        assert corpus.lengths.max() == 4
        assert engine.generate(1, walk_length=None).num_walks == tiny_weighted_graph.num_nodes
        with pytest.raises(WalkError, match="walk_length"):
            engine.generate(1, 0)


#: integer knobs given a float: unchecked, each ran into a TypeError deep
#: in the engine, the driver, the trainer, the evaluation or the serving
#: builder, or was truncated by ``int()`` (the server's knobs)
FRACTIONAL_COUNTS = [
    (WalkConfig, "num_walks", 1.5), (WalkConfig, "walk_length", 3.5),
    (WalkConfig, "max_reject_rounds", 2.5), (WalkConfig, "burn_in_iterations", 1.5),
    (StreamingConfig, "shard_walks", 1.5),
    (TrainConfig, "dimensions", 8.5), (TrainConfig, "window", 2.5),
    (TrainConfig, "negative", 2.5), (TrainConfig, "epochs", 1.5),
    (EvalSpec, "trials", 1.5),
    (UpdatesSpec, "num_walks", 1.5), (UpdatesSpec, "walk_length", 2.5),
    (ServingSpec, "topn", 2.5), (ServingSpec, "probe_queries", 1.5),
    (ServingSpec, "cache_size", 1.5),
    (ServerConfig, "max_batch", 2.7), (ServerConfig, "queue_size", 3.9),
]  # fmt: skip
#: class -> (its error, its error inside a RunSpec, the spec block that holds it)
SECTIONS = {
    WalkConfig: (WalkError, WalkError, "walk"),
    StreamingConfig: (WalkError, WalkError, "streaming"),
    TrainConfig: (TrainingError, TrainingError, "train"),
    EvalSpec: (SpecError, SpecError, "evaluation"),
    UpdatesSpec: (SpecError, SpecError, "updates"),
    ServingSpec: (SpecError, SpecError, "serving"),
    ServerConfig: (ConfigError, SpecError, "serving.server"),
}


@pytest.mark.parametrize("cls, field, value", FRACTIONAL_COUNTS)
def test_a_fractional_count_is_refused_at_construction(cls, field, value):
    error, in_spec, block = SECTIONS[cls]
    needs = {"steps": [{"add": [[0, 1]]}]} if cls is UpdatesSpec else {}
    with pytest.raises(error, match=f"{field} must be an integer"):
        cls(**needs, **{field: value})
    data = apply_override(dict(BASE), f"{block}.{field}", value)
    data[block.split(".")[0]].update(needs)
    named = f"{block}.{field}" if in_spec is SpecError else field
    with pytest.raises(in_spec, match=f"{named} must be an integer"):
        RunSpec.from_dict(data)
    if cls is ServerConfig:  # the server's own keywords are the same fields
        store = KeyedVectors(np.arange(4), np.eye(4, dtype=np.float32)).to_store()
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            QueryServer(store, **{field: value})


#: (class, field, value) out of its range: a train fraction once failed in
#: ``classification_sweep`` after the whole train, a scale silently loaded
#: the dataset's 16-node minimum
OUT_OF_RANGE = [
    (EvalSpec, "train_fractions", (0.5, 1.5)), (EvalSpec, "train_fractions", (0.0,)),
    (GraphSpec, "scale", -1.0), (GraphSpec, "scale", 0.0), (GraphSpec, "scale", float("nan")),
    (GraphSpec, "scale", float("inf")),
]  # fmt: skip


@pytest.mark.parametrize("cls, field, value", OUT_OF_RANGE)
def test_a_value_out_of_range_is_refused_before_the_graph_is_loaded(cls, field, value):
    block = {EvalSpec: "evaluation", GraphSpec: "graph"}[cls]
    needs = {"dataset": "amazon"} if cls is GraphSpec else {}
    with pytest.raises(SpecError, match=f"{block}.{field} must"):
        cls(**needs, **{field: value})
    data = {**BASE, block: {**BASE.get(block, {}), field: value}}
    graph_cache = {}
    with pytest.raises(SpecError, match=f"{block}.{field} must"):
        run(data, graph_cache=graph_cache)
    assert graph_cache == {}


#: train settings no trainer accepts; each once passed every check of the spec
BAD_TRAIN = [
    ("mode", "cbo"), ("dimensions", 0), ("window", 0), ("negative", 0), ("epochs", 0),
    ("alpha", -1), ("extra", {"batch_pairz": 64}), ("extra", {"batch_pairs": 0}),
    ("extra", {"max_row_step": -1}), ("extra", {"block_walks": 0}),
    ("min_alpha", -1), ("min_alpha", float("nan")),  # decayed the rate through zero
    ("subsample", -0.1), ("alpha", float("inf")),
    ("min_count", -3), ("min_count", 1.5),  # failed at build_vocab, after the walk
]  # fmt: skip
ROUTES = {
    "monolithic": {},
    "streamed-degree-vocab": {"streaming": {"vocab": "degree"}},
    "streamed-exact-vocab": {"streaming": {"vocab": "exact"}},
}


@pytest.mark.parametrize("key, value", BAD_TRAIN)
class TestAnUntrainableRunIsRefusedBeforeItWalks:
    def test_at_the_config(self, key, value):
        name = next(iter(value)) if key == "extra" else key
        with pytest.raises(TrainingError, match=name):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("route", ROUTES)
    def test_on_every_route_of_run(self, key, value, route, monkeypatch):
        built = []
        monkeypatch.setattr(pipeline, "VectorizedWalkEngine", lambda *a, **kw: built.append(a))
        with pytest.raises(TrainingError):
            run({**BASE, "walk": {"num_walks": 1, "walk_length": 5}, "train": {key: value}, **ROUTES[route]})
        assert not built

    def test_at_the_facade(self, key, value, tiny_weighted_graph, monkeypatch):
        built = []
        monkeypatch.setattr(pipeline, "VectorizedWalkEngine", lambda *a, **kw: built.append(a))
        with pytest.raises(TrainingError):
            UniNet(tiny_weighted_graph).train(1, 5, **{key: value})
        assert not built


def test_extra_names_the_trainer_only_keywords():
    with pytest.raises(TrainingError, match=r"\['batch_pairs', 'block_walks', 'max_row_step'\]"):
        TrainConfig(extra={"seed": 3})
    assert TrainConfig(extra={"batch_pairs": 64}).word2vec_kwargs()["batch_pairs"] == 64
