"""Sharded walk subsystem: partitioning, parity, containment.

Covers the three layers of the sharding subsystem:

* partitioner — owner/plan invariants of the degree-balanced plan and
  plan validation;
* engine — the acceptance matrix: corpora bitwise identical to
  :class:`VectorizedWalkEngine` for the one sharded walk (M-H with the
  ``high-weight`` initializer) over every first-order model, 1/2/4
  shards and both transports; every second-order model, other sampler
  and other initializer refused before a plan or a worker exists;
  migration-counter sanity;
* containment — ``ShardingConfig`` checks, and no module outside
  ``repro/sharding/`` imports it or exports from it (the pipeline,
  ``UniNet``, ``RunSpec``, the CLI and the read path use the monolithic
  engine and the bruteforce / IVF indexes only).
"""

import ast
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.core.pipeline as pipeline
import repro.sharding
from repro import UniNet
from repro.core.config import WalkConfig
from repro.errors import ShardError, WalkError
from repro.graph.builder import from_edge_arrays
from repro.registry import INITIALIZER_REGISTRY, MODEL_REGISTRY, SAMPLER_REGISTRY
from repro.serving.index import INDEX_REGISTRY
from repro.sharding import ShardedWalkEngine, ShardingConfig, build_shard_plan, degree_balanced
from repro.sharding.transport import SocketTransport
from repro.walks.kernels import available_backends
from repro.walks.vectorized import VectorizedWalkEngine

#: every registered first-order model -> (graph fixture, model parameters)
MODELS = {
    "deepwalk": ("small_power_law_graph", {}),
    "metapath2vec": ("academic_net", {"metapath": "APVPA"}),
}
#: the second-order models, which the sharded engine refuses
SECOND_ORDER = {
    "node2vec": ("small_power_law_graph", {"p": 0.5, "q": 2.0}),
    "fairwalk": ("typed_graph", {"p": 0.5, "q": 2.0}),
    "edge2vec": ("typed_graph", {"p": 0.5, "q": 2.0}),
}
#: the walks the sharded engine refuses: (model, graph fixture, keywords, error match)
REFUSED = [
    *(pytest.param("deepwalk", "small_power_law_graph", {field: name}, "'mh'.*'high-weight'", id=name)
      for field, registry, keep in (("sampler", SAMPLER_REGISTRY, "mh"),
                                    ("initializer", INITIALIZER_REGISTRY, "high-weight"))
      for name in registry.names() if name != keep),
    *(pytest.param(model, fixture, params, "first-order", id=model)
      for model, (fixture, params) in SECOND_ORDER.items()),
]
BACKENDS = sorted(name for name, ok in available_backends().items() if ok)
COMPILED_BACKENDS = [name for name in BACKENDS if name != "numpy"]


@pytest.fixture
def academic_net(academic):
    return academic[0]


def _mono(graph, model, sampler="mh", *, seed, num_walks=2, walk_length=12, **kw):
    engine = VectorizedWalkEngine(graph, model, sampler=sampler, seed=seed, **kw)
    return engine.generate(num_walks, walk_length), engine


def _sharded(graph, model, sampler="mh", *, seed, num_walks=2, walk_length=12, **kw):
    engine = ShardedWalkEngine(graph, model, sampler=sampler, seed=seed, **kw)
    return engine.generate(num_walks, walk_length), engine


def assert_corpus_equal(a, b):
    assert np.array_equal(a.walks, b.walks)
    assert np.array_equal(a.lengths, b.lengths)


# ---------------------------------------------------------------------------
# partitioner / plan
# ---------------------------------------------------------------------------


class TestShardPlan:
    def test_plan_invariants(self, small_power_law_graph):
        g = small_power_law_graph
        plan = build_shard_plan(g, 3)
        assert plan.num_shards == 3
        assert plan.owner.shape == (g.num_nodes,)
        assert plan.owner.min() >= 0 and plan.owner.max() < 3
        # every node owned exactly once; counts partition nodes and edges
        assert int(plan.node_counts.sum()) == g.num_nodes
        assert int(plan.edge_counts.sum()) == g.num_edge_entries
        sources = g.edge_sources()
        assert plan.boundary_edges == int(
            (plan.owner[sources] != plan.owner[g.targets]).sum()
        )
        assert plan.node_imbalance >= 1.0
        assert plan.edge_imbalance >= 1.0
        for shard in plan.shards:
            # node_map ascending and g2l round-trips
            assert np.all(np.diff(shard.node_map) > 0)
            assert np.array_equal(
                shard.global_to_local[shard.node_map],
                np.arange(shard.node_map.size),
            )
            # owned rows are complete: local degree == global degree
            owned_global = shard.node_map[plan.owner[shard.node_map] == shard.shard_id]
            owned_local = shard.global_to_local[owned_global]
            deg_global = g.offsets[owned_global + 1] - g.offsets[owned_global]
            deg_local = (
                shard.graph.offsets[owned_local + 1] - shard.graph.offsets[owned_local]
            )
            assert np.array_equal(deg_global, deg_local)

    @pytest.mark.parametrize("shards", (1, 2, 3, 5, 8))
    def test_degree_balanced_is_greedy_lpt(self, small_power_law_graph, shards):
        """Heaviest node first onto the lightest shard: the loads (degree
        + 1 per node) end within one node's load of each other."""
        g = small_power_law_graph
        owner = degree_balanced(g, shards)
        load = np.bincount(owner, weights=g.degrees() + 1, minlength=shards)
        assert load.max() - load.min() <= g.degrees().max() + 1
        assert np.array_equal(owner, build_shard_plan(g, shards).owner)

    def test_plan_validation(self, tiny_weighted_graph):
        with pytest.raises(ShardError):
            build_shard_plan(tiny_weighted_graph, 0)
        with pytest.raises(ShardError, match="transport"):
            ShardedWalkEngine(tiny_weighted_graph, "deepwalk", transport="no-such-transport")
        with pytest.raises(ShardError, match="partitioner"):
            ShardedWalkEngine(tiny_weighted_graph, "deepwalk", partitioner="hash")


# ---------------------------------------------------------------------------
# engine parity — the acceptance matrix
# ---------------------------------------------------------------------------


class TestEngineParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("transport", ("inline", "socket"))
    @pytest.mark.parametrize("shards", (1, 2, 4))
    @pytest.mark.parametrize("model", MODELS)
    def test_every_first_order_model_shardcount_transport(
        self, request, model, shards, transport, backend
    ):
        """The one sharded walk, M-H with ``high-weight``, equals the
        monolith, with the workers' steppers on either kernel backend."""
        fixture, params = MODELS[model]
        graph = request.getfixturevalue(fixture)
        kw = {"seed": 31, "num_walks": 1, "walk_length": 8, "backend": backend, **params}
        mono, me = _mono(graph, model, **kw)
        shrd, se = _sharded(graph, model, num_shards=shards, transport=transport, **kw)
        se.close()
        assert_corpus_equal(mono, shrd)
        ms, ss = me.stats(), se.stats()
        for key in ("samples", "proposals", "accepts", "initializations"):
            assert ms[key] == ss[key], key

    def test_hetero_model_parity(self, academic):
        graph, __ = academic
        mono, __m = _mono(
            graph, "metapath2vec", "mh", seed=9, walk_length=9, metapath="APVPA"
        )
        shrd, __s = _sharded(
            graph,
            "metapath2vec",
            "mh",
            seed=9,
            walk_length=9,
            num_shards=3,
            partitioner="degree_balanced",
            metapath="APVPA",
        )
        assert_corpus_equal(mono, shrd)

    def test_generate_stream_parity(self, small_power_law_graph):
        """One wave loop: the inherited shard stream matches chunk for chunk."""
        me = VectorizedWalkEngine(small_power_law_graph, "deepwalk", seed=3)
        se = ShardedWalkEngine(small_power_law_graph, "deepwalk", num_shards=3, seed=3)
        chunks = zip(me.generate_stream(2, 10, shard_walks=64), se.generate_stream(2, 10, shard_walks=64))
        for mono, shrd in chunks:
            assert_corpus_equal(mono, shrd)

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    def test_compiled_backend_parity(self, small_power_law_graph, backend):
        """``backend=`` reaches the workers' steppers; the corpus does not move."""
        mono, __ = _mono(small_power_law_graph, "deepwalk", seed=61)
        shrd, engine = _sharded(
            small_power_law_graph, "deepwalk", seed=61, num_shards=3, backend=backend,
        )
        assert_corpus_equal(mono, shrd)
        stats = engine.stats()
        assert stats["backend"] == stats["requested_backend"] == backend
        assert {w.stepper.kernels.name for w in engine.transport.workers} == {backend}

    def test_generic_model_falls_back_to_numpy_on_workers(self, academic):
        """Same capability check as the monolithic engine, on every worker."""
        if not COMPILED_BACKENDS:
            pytest.skip("no compiled kernel backend available")
        graph, __ = academic
        backend = COMPILED_BACKENDS[0]
        kw = {"seed": 9, "walk_length": 9, "metapath": "APVPA"}
        mono, me = _mono(graph, "metapath2vec", backend=backend, **kw)
        shrd, se = _sharded(graph, "metapath2vec", backend=backend, num_shards=2, **kw)
        assert_corpus_equal(mono, shrd)
        assert se.stats()["backend"] == me.stats()["backend"] == "numpy"
        assert se.stats()["requested_backend"] == backend
        assert {w.stepper.kernels.name for w in se.transport.workers} == {"numpy"}

    def test_start_nodes_subset_parity(self, small_power_law_graph):
        starts = np.array([0, 7, 13, 250], dtype=np.int64)
        me = VectorizedWalkEngine(small_power_law_graph, "deepwalk", seed=3)
        se = ShardedWalkEngine(small_power_law_graph, "deepwalk", num_shards=2, seed=3)
        assert_corpus_equal(
            me.generate(3, 10, start_nodes=starts), se.generate(3, 10, start_nodes=starts)
        )


class TestEngineStats:
    def test_migration_counters(self, small_power_law_graph):
        __, engine = _sharded(small_power_law_graph, "deepwalk", seed=1, num_shards=2)
        stats = engine.stats()
        assert stats["num_shards"] == 2
        assert stats["partitioner"] == "degree_balanced"
        assert stats["boundary_edges"] > 0
        assert stats["walker_steps"] > 0
        assert stats["migrated_walkers"] > 0
        assert stats["migration_batches"] >= stats["migration_rounds"] > 0
        assert 0.0 < stats["migration_rate"] <= 1.0
        assert stats["node_imbalance"] >= 1.0
        assert engine.memory_bytes() > 0

    @pytest.mark.parametrize("transport", ("inline", "socket"))
    def test_a_migrating_walker_is_its_id_and_its_node(self, small_power_law_graph, transport):
        """Every migration batch is ``(walker ids, current nodes)``, and it
        goes to the shard that owns those nodes."""
        with ShardedWalkEngine(
            small_power_law_graph, "deepwalk", num_shards=3, transport=transport, seed=6
        ) as engine:
            relayed = []
            call_many = engine.transport.call_many

            def spy(calls):
                calls = list(calls)
                relayed.extend(call for call in calls if call[1] == "absorb")
                return call_many(calls)

            engine.transport.call_many = spy
            engine.generate(1, 8)
            assert relayed
            for dest, __, batch in relayed:
                ids, cur = batch
                assert ids.dtype == cur.dtype == np.int64 and ids.size == cur.size > 0
                assert (engine.plan.owner[cur] == dest).all()
            assert sum(batch[0].size for __, ___, batch in relayed) == engine.stats()["migrated_walkers"]

    def test_single_shard_never_migrates(self, small_power_law_graph):
        __, engine = _sharded(small_power_law_graph, "deepwalk", seed=1, num_shards=1)
        stats = engine.stats()
        assert stats["migrated_walkers"] == 0
        assert stats["migration_rate"] == 0.0
        assert stats["boundary_edges"] == 0

    @pytest.mark.parametrize("transport", ("inline", "socket"))
    def test_a_with_block_leaves_no_worker_behind(self, small_unweighted_graph, transport):
        """Leaving the block closes every worker the engine started: no
        process and no shared-memory segment outlives it."""

        def segments():
            return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()

        children_before = {p.pid for p in multiprocessing.active_children()}
        segments_before = segments()
        for __ in range(2):
            with ShardedWalkEngine(
                small_unweighted_graph, "deepwalk", num_shards=2, transport=transport, seed=7
            ) as engine:
                engine.generate(1, 5)
                assert engine.stats()["transport"] == transport
        assert {p.pid for p in multiprocessing.active_children()} <= children_before
        assert segments() <= segments_before

    def test_unsupported_options_raise(self, tiny_weighted_graph):
        from repro.walks.models import make_model

        bound = make_model("deepwalk", tiny_weighted_graph)
        with pytest.raises(ShardError, match="registry name"):
            ShardedWalkEngine(tiny_weighted_graph, bound)
        with pytest.raises(ShardError, match="budget"):
            ShardedWalkEngine(tiny_weighted_graph, "deepwalk", table_budget_bytes=1024)
        with pytest.raises(ShardError, match="chain_store"):
            ShardedWalkEngine(tiny_weighted_graph, "deepwalk", chain_store=object())
        with pytest.raises(ShardError, match="sampler"):
            ShardedWalkEngine(
                tiny_weighted_graph, "deepwalk", sampler="memory-aware", table_budget_bytes=1024
            )
        with pytest.raises(WalkError, match="table_budget_bytes"):  # no engine takes this config
            ShardedWalkEngine(tiny_weighted_graph, "deepwalk", sampler="memory-aware")
        with pytest.raises(WalkError, match="initializer"):  # no engine takes this config
            ShardedWalkEngine(tiny_weighted_graph, "deepwalk", initializer=object())


class TestOneShardedWalk:
    """Any walk but a first-order model's M-H with ``high-weight`` is
    refused, and refused early."""

    @pytest.mark.parametrize("model, fixture, walk, match", REFUSED)
    def test_refused_before_a_plan_or_a_worker(
        self, request, model, fixture, walk, match, monkeypatch
    ):
        built = []
        monkeypatch.setattr(
            "repro.sharding.engine.build_shard_plan", lambda *a: built.append("plan")
        )
        monkeypatch.setattr(SocketTransport, "_spawn_loopback", lambda self: built.append("worker"))
        children = {p.pid for p in multiprocessing.active_children()}
        budget = {"table_budget_bytes": 4096} if walk.get("sampler") == "memory-aware" else {}
        with pytest.raises(ShardError, match=match):
            ShardedWalkEngine(
                request.getfixturevalue(fixture), model, transport="socket", **walk, **budget
            )
        assert built == []
        assert {p.pid for p in multiprocessing.active_children()} == children

    def test_every_model_is_covered(self):
        assert set(MODELS) | set(SECOND_ORDER) == set(MODEL_REGISTRY.names())


# ---------------------------------------------------------------------------
# differential: monolithic vs sharded on generated, awkward graphs
# ---------------------------------------------------------------------------


@st.composite
def awkward_graphs(draw):
    """Small graphs built to hit the corners of the shard plan.

    Node 0 is a hub adjacent to every node (directed: an out-edge to
    every node, itself included; undirected: to every node that is not
    isolated), the last ``dead`` nodes have zero out-degree, a drawn
    subset of nodes carries self-loops, and a few random edges fill in
    the rest.
    """
    n = draw(st.integers(5, 11))
    dead = draw(st.integers(1, 2))
    directed = draw(st.booleans())
    live = n - dead
    pairs = st.tuples(st.integers(0, live - 1), st.integers(0, live - 1))
    edges = set(draw(st.lists(pairs, max_size=2 * n)))
    edges |= {(0, v) for v in range(n if directed else live)}
    edges |= {(v, v) for v in draw(st.sets(st.integers(0, live - 1), max_size=3))}
    if not directed:
        edges.discard((0, 0))  # the undirected hub is adjacent to the *other* nodes
    src, dst = (np.array(col, dtype=np.int64) for col in zip(*sorted(edges)))
    weights = None
    if draw(st.booleans()):
        weights = draw(st.integers(0, 10_000)) % (np.arange(src.size) + 2) + 1.0
    return from_edge_arrays(
        src, dst, weights, num_nodes=n, directed=directed,
        duplicate_policy="first", allow_self_loops=True,
    )


@settings(max_examples=20, deadline=None)
@given(graph=awkward_graphs(), seed=st.integers(0, 10_000))
def test_property_sharded_equals_monolithic(graph, seed):
    """Bitwise-equal corpora; one more shard than nodes, so at least one
    shard owns nothing."""
    assert (np.diff(graph.offsets) == 0).any()  # zero-degree nodes are present
    mono, __ = _mono(graph, "deepwalk", seed=seed, walk_length=6)
    shrd, engine = _sharded(
        graph, "deepwalk", seed=seed, walk_length=6, num_shards=graph.num_nodes + 1
    )
    assert (engine.plan.node_counts == 0).any()
    assert_corpus_equal(mono, shrd)


# ---------------------------------------------------------------------------
# structure guard: the step math lives in walks/vectorized.py, once
# ---------------------------------------------------------------------------

_STEP_MATH = {
    "batch_dynamic_weight", "race_keys", "segment_race_argmin", "segment_argmax", "for_graph",
}
_STRUCTURES = {"AliasTables", "ChainStore"}


@pytest.mark.parametrize("module", ("worker.py", "engine.py"))
def test_no_step_math_outside_the_steppers(module):
    """Workers and driver call stepper halves; they re-implement none.

    No weight evaluation, no race/argmax primitive, no kernel-state
    assembly, no ``self.kernels.<op>`` call and no sampler structure is
    constructed in ``sharding/worker.py`` or ``sharding/engine.py`` —
    the copy this PR deleted cannot grow back unnoticed.
    """
    source = Path(repro.sharding.__file__).with_name(module).read_text()
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        through_kernels = (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "kernels"
        )
        if name in _STEP_MATH or name in _STRUCTURES or through_kernels:
            offenders.append(f"{module}:{node.lineno}: {ast.unparse(func)}")
    assert offenders == []


# ---------------------------------------------------------------------------
# containment: the config, and no entry point above the package
# ---------------------------------------------------------------------------


class TestShardingConfig:
    def test_validation(self):
        assert ShardingConfig().partitioner == "degree_balanced"
        with pytest.raises(WalkError):
            ShardingConfig(shards=0)
        for gone in ("hash", "degree-balanced"):
            with pytest.raises(WalkError, match="partitioner"):
                ShardingConfig(partitioner=gone)
        with pytest.raises(WalkError):
            ShardingConfig(transport="carrier-pigeon")
        with pytest.raises(TypeError, match="hosts"):
            ShardingConfig(transport="socket", hosts=["a:1", "b:2"])
        cfg = ShardingConfig(transport="socket", call_timeout=None)
        assert cfg.call_timeout is None
        with pytest.raises(WalkError, match="connect_timeout"):
            ShardingConfig(transport="socket", connect_timeout=0)
        with pytest.raises(WalkError, match="call_timeout"):
            ShardingConfig(transport="socket", call_timeout=-1)


def _imported_modules(tree):
    """Every module an import statement anywhere in ``tree`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module
            if node.module == "repro":
                yield from ((node.lineno, f"repro.{alias.name}") for alias in node.names)


def test_nothing_outside_the_package_reaches_it():
    """Outside ``repro/sharding/`` no module imports any of it (in a
    function body either), no lazy ``repro`` export names one of its
    modules (those are strings the import scan cannot see), and no
    index reads by its shard plans."""
    src = Path(repro.sharding.__file__).parent.parent
    offenders = [
        f"{path.relative_to(src).as_posix()}:{line}: {name}"
        for path in sorted(src.rglob("*.py"))
        if path.parent.name != "sharding"
        for line, name in _imported_modules(ast.parse(path.read_text()))
        if name == "repro.sharding" or name.startswith("repro.sharding.")
    ]
    offenders += [
        f"repro._LAZY_ATTRS[{name!r}]: {module}"
        for name, (module, __) in repro._LAZY_ATTRS.items()
        if module == "repro.sharding" or module.startswith("repro.sharding.")
    ]
    assert offenders == []
    assert "sharded" not in INDEX_REGISTRY


def test_the_package_exports_nothing_of_it():
    for removed in ("ShardPlan", "build_shard_plan", "register_partitioner",
                    "ShardedWalkEngine", "ShardingConfig"):
        assert removed not in repro.__all__
        with pytest.raises(AttributeError):
            getattr(repro, removed)


#: the walk and train entry points that took ``sharding=``, each called with it
ENTRY_POINTS = {
    "train_pipeline": lambda graph, sharding: pipeline.train_pipeline(
        graph, "deepwalk", WalkConfig(num_walks=1, walk_length=5), sharding=sharding
    ),
    "generate_walk_result": lambda graph, sharding: pipeline.generate_walk_result(
        graph, "deepwalk", WalkConfig(num_walks=1, walk_length=5), sharding=sharding
    ),
    "UniNet.generate_walks": lambda graph, sharding: UniNet(graph).generate_walks(
        1, 5, sharding=sharding
    ),
    "UniNet.train": lambda graph, sharding: UniNet(graph).train(1, 5, sharding=sharding),
    "UniNet.train_from_configs": lambda graph, sharding: UniNet(graph).train_from_configs(
        WalkConfig(num_walks=1, walk_length=5), None, sharding=sharding
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_no_entry_point_takes_a_sharding_keyword(entry, small_unweighted_graph, monkeypatch):
    built = []
    monkeypatch.setattr(pipeline, "VectorizedWalkEngine", lambda *a, **kw: built.append(a))
    with pytest.raises(TypeError, match="sharding"):
        ENTRY_POINTS[entry](small_unweighted_graph, {"shards": 2})
    assert not built


# ---------------------------------------------------------------------------
# socket transport — spawned loopback workers
# ---------------------------------------------------------------------------


class TestSocketTransport:
    """Spawned loopback workers: wire accounting, SETUP, op errors."""

    def test_transport_stats_surface(self, small_power_law_graph):
        __, engine = _sharded(
            small_power_law_graph, "deepwalk", seed=2, num_walks=1,
            walk_length=8, num_shards=2, transport="socket",
        )
        try:
            stats = engine.stats()
            assert stats["transport"] == "socket"
            ts = stats["transport_stats"]
            assert ts["bytes_sent"] > 0
            assert ts["bytes_recv"] > 0
            # walkers crossed shards, so migration payloads hit the wire
            assert 0 < ts["migration_payload_bytes"] <= ts["bytes_sent"]
            assert ts["op_latency"]["advance"]["calls"] > 0
            assert ts["op_latency"]["advance"]["seconds"] >= 0.0
            # liveness probe answers and reports a latency per shard
            latencies = engine.transport.ping()
            assert len(latencies) == 2 and all(lat > 0 for lat in latencies)
        finally:
            engine.close()
        # inline engines advertise their transport too, without wire stats
        __, inline_engine = _sharded(
            small_power_law_graph, "deepwalk", seed=2, num_walks=1,
            walk_length=8, num_shards=2,
        )
        stats = inline_engine.stats()
        assert stats["transport"] == "inline"
        assert "transport_stats" not in stats

    def test_workers_are_built_from_the_drivers_walk_config(self, small_power_law_graph):
        """The SETUP message carries the engine's config; nothing re-defaults it."""
        config = WalkConfig(
            num_walks=3, walk_length=9, init_sample_cap=4, burn_in_iterations=7,
            max_reject_rounds=77,
        )
        with ShardedWalkEngine(
            small_power_law_graph, "deepwalk", config=config, transport="socket", seed=4
        ) as engine:
            assert engine.config == config and engine.num_shards == 2
            for shard in range(engine.num_shards):
                assert WalkConfig(**engine.transport.call(shard, "walk_config")) == config
            # the non-default cap reaches the workers' initializers
            mono = VectorizedWalkEngine(small_power_law_graph, "deepwalk", config=config, seed=4)
            assert_corpus_equal(mono.generate(), engine.generate())

    def test_remote_op_error_keeps_transport_usable(self, small_power_law_graph):
        """A typed worker-side failure is not a connection failure."""
        __, engine = _sharded(
            small_power_law_graph, "deepwalk", seed=2, num_walks=1,
            walk_length=8, num_shards=2, transport="socket",
        )
        try:
            with pytest.raises(ShardError, match="no_such_op"):
                engine.transport.call(0, "no_such_op")
            # the connection stayed in sync: further ops still answer
            assert engine.transport.call(0, "memory_bytes") >= 0
        finally:
            engine.close()
