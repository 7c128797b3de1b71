"""Every knob is checked once, where its value first exists.

A setting that cannot run is refused by its config dataclass: as a
field, as a RunSpec key, as an engine keyword (the keywords are sugar
for the fields), the same on every backend and on the sharded engine,
and before a sampler structure, a shard plan or a walk exists. Each case
here once ran further: into NumPy, into a silent empty walk, through the
whole walk phase, or through the whole training run.
"""

import copy
import inspect
import math
from dataclasses import fields, replace
from numbers import Real

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.pipeline as pipeline
from repro import UniNet, run
from repro.config import is_number
from repro.core.config import StreamingConfig, TrainConfig, WalkConfig
from repro.core.runner import apply_override
from repro.core.spec import EvalSpec, GraphSpec, RunSpec, UpdatesSpec
from repro.embedding import KeyedVectors
from repro.errors import (
    ConfigError,
    EvaluationError,
    GraphError,
    ModelError,
    ReproError,
    ServingError,
    SpecError,
    TrainingError,
    VocabularyError,
    WalkError,
)
from repro.sampling.memory_model import MemoryBudget
from repro.serving import QueryServer, ServerConfig
from repro.evaluation.linkpred import split_edges
from repro.evaluation.logistic import LogisticRegressionOVR
from repro.graph import datasets, generators
from repro.serving.codec import Codec, Float32Codec, PQCodec, make_codec
from repro.serving.config import ServingSpec
from repro.serving.index import BruteForceIndex, IVFIndex, make_index
from repro.sharding import ShardedWalkEngine
from repro.sharding.config import ShardingConfig
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


#: (index or codec, parameters) no index or codec takes; each once built a
#: spec and failed after the walk and the fit, or was truncated by ``int()``
BAD_SERVING = [
    ("ivf", {"nprobe": 0}), ("ivf", {"nprobe": 1.5}), ("ivf", {"nlist": 0}),
    ("ivf", {"assign_chunk": 0}), ("ivf", {"train_sample": 0}), ("ivf", {"seed": "x"}),
    ("ivf", {"bogus": 1}), ("bruteforce", {"query_chunk": 2.5}), ("bruteforce", {"row_chunk": 0}),
    ("bruteforce", {"nprobe": 2}), ("pq", {"m": 0}), ("pq", {"k": 257}), ("pq", {"iters": 0}),
    ("pq", {"seed": -1}), ("pq", {"bogus": 1}), ("float32", {"m": 4}),
]  # fmt: skip
OWNERS = {"ivf": IVFIndex, "bruteforce": BruteForceIndex, "pq": PQCodec, "float32": Float32Codec}


@pytest.mark.parametrize("owner, params", BAD_SERVING)
class TestServingParametersAreRefusedWhenTheSpecIsBuilt:
    @staticmethod
    def kind(owner):
        return "codec" if issubclass(OWNERS[owner], Codec) else "index"

    def test_by_the_index_or_codec_itself(self, owner, params):
        name = next(iter(params))
        with pytest.raises(ServingError, match=name):
            OWNERS[owner].check_params(params)
        if name not in inspect.signature(OWNERS[owner]).parameters:
            return  # an unknown keyword: Python's TypeError on a direct call
        store = KeyedVectors(np.arange(8), np.eye(8, dtype=np.float32)).to_store()
        with pytest.raises(ServingError, match=name):  # the constructor runs the same check
            make_index(owner, store, **params) if self.kind(owner) == "index" else make_codec(owner, **params)

    def test_by_a_spec_before_the_graph_is_loaded(self, owner, params):
        kind = self.kind(owner)
        data = {**BASE, "serving": {kind: owner, f"{kind}_params": params}}
        with pytest.raises(SpecError, match=f"serving.{kind}_params: .*{next(iter(params))}"):
            RunSpec.from_dict(data)
        graph_cache = {}
        with pytest.raises(SpecError, match=f"serving.{kind}_params"):
            run(data, graph_cache=graph_cache)
        assert graph_cache == {}

    def test_by_the_facade_before_the_store_is_encoded(self, owner, params, tiny_weighted_graph, monkeypatch):
        kv = KeyedVectors(np.arange(5), np.eye(5, dtype=np.float32))
        encoded = []
        monkeypatch.setattr(KeyedVectors, "to_store", lambda *args, **kw: encoded.append(args))
        if self.kind(owner) == "index":
            settings = {"index": owner, **params}
        else:
            settings = {"codec": owner, "codec_params": params}
        with pytest.raises(SpecError, match=next(iter(params))):
            UniNet(tiny_weighted_graph).serve(kv, **settings)
        assert not encoded


#: the library's graph, evaluation and sharding entry points hold their real
#: settings to the same check; each value was accepted, or failed in NumPy
LIBRARY_REALS = {
    "scale=-1": (lambda: datasets.load("amazon", scale=-1.0), GraphError, "scale"),  # 16 nodes
    "scale=nan": (lambda: datasets.load("amazon", scale=math.nan), GraphError, "scale"),
    "avg_degree=nan": (lambda: generators.erdos_renyi(50, math.nan), GraphError, "avg_degree"),
    "avg_degree=-3": (lambda: generators.erdos_renyi(50, -3.0), GraphError, "avg_degree"),
    "exponent=nan": (
        lambda: generators.chung_lu_power_law(50, 4.0, exponent=math.nan), GraphError, "exponent"
    ),
    "rmat a=nan": (lambda: generators.rmat(4, a=math.nan), GraphError, "rmat a"),
    "l2=nan": (lambda: LogisticRegressionOVR(l2=math.nan), EvaluationError, "l2"),
    "max_iter=1.5": (lambda: LogisticRegressionOVR(max_iter=1.5), EvaluationError, "max_iter"),
    "test_fraction=nan": (
        lambda: split_edges(generators.cycle_graph(8), test_fraction=math.nan),
        EvaluationError, "test_fraction",
    ),
    "shards=2.0": (lambda: ShardingConfig(shards=2.0), WalkError, "shards"),
    "connect_timeout=nan": (lambda: ShardingConfig(connect_timeout=math.nan), WalkError, "connect_timeout"),
    "max_wait_us=nan": (lambda: ServerConfig(max_wait_us=math.nan), ConfigError, "max_wait_us"),
}


@pytest.mark.parametrize("build, error, named", LIBRARY_REALS.values(), ids=list(LIBRARY_REALS))
def test_a_library_entry_point_refuses_what_a_spec_refuses(build, error, named):
    with pytest.raises(error, match=f"{named} must be"):
        build()


# ---------------------------------------------------------------------------
# the property: a spec that builds is a spec that runs
# ---------------------------------------------------------------------------
#: a valid run on the smallest labeled stand-in, 1 x 5 walks at d = 8, with
#: every block but ``streaming`` (a drawn streaming field switches it on)
RUNNABLE = {
    "graph": {"dataset": "blogcatalog", "scale": 0.02, "seed": 1},
    "model": "node2vec", "model_params": {"p": 0.5, "q": 2.0},
    "walk": {"num_walks": 1, "walk_length": 5},
    "train": {"dimensions": 8},
    "evaluation": {"train_fractions": [0.5], "trials": 1},
    "updates": {"steps": [{"add": [[0, 1]]}]},
    "serving": {"probe_queries": 8, "server": {"max_batch": 8}},
}  # fmt: skip
RUNNABLE_SPEC = RunSpec.from_dict(RUNNABLE)
#: the serving parameters' owners: a path step naming one sets the serving
#: block's index or codec to it and steps into its parameters
SERVING_OWNERS = {
    "bruteforce": ("index", "index_params", BruteForceIndex),
    "ivf": ("index", "index_params", IVFIndex),
    "pq": ("codec", "codec_params", PQCodec),
}
#: every setting the property replaces, as a path into the spec mapping
SETTINGS = [
    ("seed",), ("model_params", "p"), ("model_params", "q"),
    *[("train", "extra", name) for name in ("batch_pairs", "max_row_step", "block_walks")],
    *[(block, f.name) for block, cls in (
        ("walk", WalkConfig), ("train", TrainConfig), ("streaming", StreamingConfig),
        ("graph", GraphSpec), ("evaluation", EvalSpec), ("updates", UpdatesSpec),
        ("serving", ServingSpec),
    ) for f in fields(cls)],
    *[("serving", "server", f.name) for f in fields(ServerConfig)],
    *[("serving", owner, name) for owner, (__, __, cls) in SERVING_OWNERS.items()
      for name in inspect.signature(cls).parameters if name != "store"],
]  # fmt: skip
#: boundary values; no count above a few hundred, which would only cost memory
VALUES = [0, -1, 1, 2, 0.5, 1.5, math.nan, math.inf, -math.inf, True, None, "x"]
#: the run-time errors that depend on the data, not on a setting alone: an
#: empty vocabulary after ``min_count``, no pair left after ``subsample``, an
#: edge-list file this host lacks
DATA_ERRORS = {
    ("train", "min_count"): VocabularyError,
    ("train", "subsample"): TrainingError,
    ("graph", "edge_list"): GraphError,
}


def with_settings(changes) -> dict:
    """:data:`RUNNABLE` with each drawn setting replaced."""
    data = copy.deepcopy(RUNNABLE)
    for path, value in changes:
        block = data
        for step in path[:-1]:
            if step in SERVING_OWNERS:  # the index or codec that takes the parameter
                block[SERVING_OWNERS[step][0]] = step
                step = SERVING_OWNERS[step][1]
            if not isinstance(block.get(step), dict):
                block[step] = {}
            block = block[step]
        block[path[-1]] = value
    return data


def setting_at(spec, path):
    """The value a built spec holds at ``path`` (``None``: a block it left out)."""
    node = spec
    for step in path:
        step = SERVING_OWNERS[step][1] if step in SERVING_OWNERS else step
        node = node.get(step) if isinstance(node, dict) else getattr(node, step, None)
    return node


@settings(max_examples=500, deadline=None)
@given(changes=st.lists(
    st.tuples(st.sampled_from(SETTINGS), st.sampled_from(VALUES)),
    min_size=1, max_size=2, unique_by=lambda change: change[0],
))  # fmt: skip
# each once built a spec that failed after the walk and the fit, or ran
# with a value other than the one given
@example(changes=[(("serving", "bruteforce", "bogus"), 1)])  # a bare TypeError
@example(changes=[(("serving", "ivf", "assign_chunk"), 0)])  # a bare ValueError
@example(changes=[(("serving", "ivf", "train_sample"), 0)])  # a bare ValueError
@example(changes=[(("serving", "ivf", "nprobe"), 0)])  # ServingError after training
@example(changes=[(("serving", "pq", "m"), 0)])  # ServingError after training
@example(changes=[(("serving", "ivf", "nprobe"), 1.5)])  # scanned 1 cell
@example(changes=[(("serving", "bruteforce", "query_chunk"), 2.5)])  # chunks of 2
@example(changes=[(("seed",), 1.5)])  # seed 1
@example(changes=[(("serving", "server", "max_wait_us"), math.nan)])  # a NaN wait
@example(changes=[(("serving", "server", "max_wait_us"), "x")])  # a bare ValueError
@example(changes=[(("train", "min_alpha"), "x")])  # a bare TypeError
@example(changes=[(("train", "subsample"), "x")])  # a bare TypeError
@example(changes=[(("seed",), "x")])  # a bare ValueError
@example(changes=[(("graph", "seed"), "x")])  # a bare TypeError at the load
@example(changes=[(("walk", "walk_length"), 1)])  # no pair, after the walk
@example(changes=[(("walk", "sampler"), 0)])  # SamplerError at the engine
@example(changes=[(("graph", "weight_mode"), "x")])  # GraphError at the load
@example(changes=[(("serving", "server", "queue_size"), 1)])  # OverloadError from the probe
@example(changes=[(("updates", "walk_length"), True)])  # a bare TypeError in the re-walk
@example(changes=[(("graph", "dataset"), None), (("graph", "edge_list"), 2)])  # read stderr
def test_a_spec_that_builds_runs_as_given(changes):
    """One or two settings of a runnable spec replaced by a boundary value:
    the spec is refused with a ``ReproError`` when it is built, or it runs
    to finite embeddings, or it fails on its data (:data:`DATA_ERRORS`)."""
    data = with_settings(changes)
    try:
        spec = RunSpec.from_dict(data)
    except ReproError:
        return
    try:
        report = run(spec)
    except tuple(DATA_ERRORS[path] for path, __ in changes if path in DATA_ERRORS):
        return
    assert np.isfinite(report.embeddings.vectors).all()
    # where the runnable spec holds a number, a number (or None, unset) was
    # given, and a fractional one ran as given, not truncated: in the spec,
    # and on the index or codec its serving block builds
    service = replace(spec.serving, server=None).build(report.embeddings)
    for path, value in changes:
        if setting_at(data, path) is not value:  # the other draw replaced it
            continue
        if is_number(setting_at(RUNNABLE_SPEC, path), Real):
            assert value is None or is_number(value, Real) and math.isfinite(value), (path, value)
        if not (isinstance(value, float) and math.isfinite(value) and not value.is_integer()):
            continue
        held = setting_at(spec, path)
        if path[1:2] and path[1] in SERVING_OWNERS:
            held = getattr(service.store.codec if path[1] == "pq" else service.index, path[2], value)
        assert held == value, (path, value, held)
