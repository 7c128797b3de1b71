"""Tests for the declarative RunSpec / repro.run() experiment API."""

import json
import re

import numpy as np
import pytest

from repro import EvalSpec, GraphSpec, RunSpec, TrainConfig, WalkConfig, run, run_many
from repro.core.runner import apply_override, expand_grid
from repro.errors import ModelError, SpecError
from repro.registry import MODEL_REGISTRY, register_sampler, unregister_sampler
from repro.sampling.base import NO_EDGE
from repro.walks.models.base import RandomWalkModel
from repro.walks.vectorized import StepperBase


def tiny_spec(**overrides):
    defaults = dict(
        graph=GraphSpec(dataset="amazon", scale=0.05, seed=1),
        model="node2vec",
        model_params={"p": 0.5, "q": 2.0},
        walk=WalkConfig(num_walks=1, walk_length=6),
        train=None,
        seed=7,
        name="tiny",
    )
    defaults.update(overrides)
    return RunSpec(**defaults)


class TestRunSpecSerialisation:
    def test_dict_round_trip(self):
        spec = tiny_spec(
            train=TrainConfig(dimensions=16, epochs=2),
            evaluation=EvalSpec(train_fractions=(0.5,), trials=1),
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = tiny_spec(train=TrainConfig(dimensions=8))
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        assert RunSpec.load(path) == spec
        # the file is plain JSON a human can edit
        data = json.loads(path.read_text())
        assert data["model"] == "node2vec"

    def test_top_level_walk_sugar(self):
        spec = RunSpec.from_dict(
            {"graph": {"dataset": "amazon"}, "sampler": "direct", "num_walks": 3}
        )
        assert spec.walk.sampler == "direct"
        assert spec.walk.num_walks == 3

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown RunSpec key"):
            RunSpec.from_dict({"graph": {"dataset": "amazon"}, "modle": "deepwalk"})
        with pytest.raises(SpecError, match="unknown walk config key"):
            RunSpec.from_dict({"graph": {"dataset": "amazon"}, "walk": {"walkers": 3}})

    def test_block_walks_is_a_train_key_only(self):
        """The trainer's block size has one spelling, ``train.extra``."""
        with pytest.raises(SpecError, match=r"unknown streaming config key.*block_walks"):
            RunSpec.from_dict(
                {"graph": {"dataset": "amazon"}, "streaming": {"block_walks": 8192}}
            )
        spec = RunSpec.from_dict(
            {"graph": {"dataset": "amazon"}, "train": {"extra": {"block_walks": 8192}}}
        )
        assert spec.train.word2vec_kwargs()["block_walks"] == 8192


class TestRunSpecValidation:
    def test_unknown_model_param(self):
        with pytest.raises(SpecError, match="unknown parameter"):
            tiny_spec(model="deepwalk")  # deepwalk declares no p/q

    def test_unknown_model_suggests(self):
        with pytest.raises(ModelError, match="did you mean"):
            tiny_spec(model="node2vce", model_params={})

    def test_graph_source_exclusive(self):
        with pytest.raises(SpecError, match="exactly one"):
            tiny_spec(graph=GraphSpec())
        with pytest.raises(SpecError, match="exactly one"):
            tiny_spec(graph=GraphSpec(dataset="amazon", edge_list="x.txt"))

    def test_unknown_dataset(self):
        with pytest.raises(SpecError, match="unknown dataset"):
            tiny_spec(graph=GraphSpec(dataset="nope"))

    def test_evaluation_requires_train(self):
        with pytest.raises(SpecError, match="requires a train config"):
            tiny_spec(evaluation=EvalSpec())

    def test_unknown_evaluation_task(self):
        with pytest.raises(SpecError, match="unknown evaluation task"):
            tiny_spec(
                train=TrainConfig(dimensions=8), evaluation=EvalSpec(task="regression")
            )

    @pytest.mark.parametrize(
        "knob, value", [("max_batch", 0), ("max_wait_us", -1), ("queue_size", 0)]
    )
    def test_invalid_server_knob_is_refused_before_the_graph_is_loaded(self, knob, value):
        data = tiny_spec(train=TrainConfig(dimensions=8)).to_dict()
        data["serving"] = {"server": {knob: value}}
        with pytest.raises(SpecError, match=f"serving.server.{knob}"):
            RunSpec.from_dict(data)
        graph_cache = {}
        with pytest.raises(SpecError, match=f"serving.server.{knob}"):
            run(data, graph_cache=graph_cache)
        assert graph_cache == {}  # refused at validation: nothing was loaded, walked or trained

    @pytest.mark.parametrize("model", ("node2vec", "edge2vec", "fairwalk"))
    @pytest.mark.parametrize("param", ("p", "q"))
    @pytest.mark.parametrize("value", (float("nan"), float("inf"), -float("inf"), 0.0, -1.0, "x"))
    def test_a_bias_the_model_refuses_is_refused_before_the_graph_is_loaded(
        self, model, param, value
    ):
        data = tiny_spec(model=model).to_dict()
        data["model_params"][param] = value
        with pytest.raises(ModelError, match=rf"{model} {param} must be a finite real in \(0, inf\)"):
            RunSpec.from_dict(data)
        graph_cache = {}
        with pytest.raises(ModelError, match=rf"{model} {param} must be a finite real in \(0, inf\)"):
            run(data, graph_cache=graph_cache)
        assert graph_cache == {}

    def test_the_spec_and_the_model_hold_a_bias_to_one_rule(self, typed_graph):
        """What ``RunSpec`` accepts the model builds, and what it refuses
        the model refuses with the same message."""
        from repro.walks.models import make_model

        for value in (0.25, 4, float("nan"), 0.0, -2.0):
            try:
                tiny_spec(model_params={"p": value})
            except ModelError as refused:
                with pytest.raises(ModelError, match=re.escape(str(refused))):
                    make_model("node2vec", typed_graph, p=value)
            else:
                assert make_model("node2vec", typed_graph, p=value).p == value


class TestRun:
    def test_walk_only_run(self):
        report = run(tiny_spec())
        assert report.corpus_summary["num_walks"] > 0
        assert report.corpus_summary["token_count"] > 0
        assert report.embeddings is None
        assert report.tl == 0.0
        assert 0 < report.sampler_stats["acceptance_ratio"] <= 1.0
        json.dumps(report.to_dict())  # report is JSON-serialisable

    def test_mh_row_reports_accepts_over_proposals(self):
        report = run(tiny_spec(model_params={"p": 0.25, "q": 4.0}))
        stats = report.sampler_stats
        assert report.summary_row()["acceptance"] == stats["accepts"] / stats["proposals"] < 1.0

    def test_run_accepts_plain_dict(self):
        report = run(tiny_spec().to_dict())
        assert report.spec.model == "node2vec"

    def test_run_rejects_non_mapping(self):
        with pytest.raises(SpecError, match="RunSpec or a spec mapping"):
            run([tiny_spec().to_dict()])

    def test_full_run_with_evaluation(self):
        spec = RunSpec(
            graph=GraphSpec(dataset="reddit", scale=0.1, seed=2),
            model="deepwalk",
            walk=WalkConfig(num_walks=2, walk_length=10),
            train=TrainConfig(dimensions=16, epochs=1),
            evaluation=EvalSpec(train_fractions=(0.5,), trials=1),
        )
        report = run(spec)
        assert report.embeddings is not None
        assert report.tl > 0
        sweep = report.metrics["classification"]
        assert sweep[0]["train_fraction"] == 0.5
        assert 0.0 <= sweep[0]["micro_f1_mean"] <= 1.0
        row = report.summary_row()
        assert row["model"] == "deepwalk"
        assert "classification.micro_f1_mean" not in row  # metrics are per-entry dicts

    def test_evaluation_needs_labels(self):
        spec = tiny_spec(  # amazon has no labels
            model="deepwalk", model_params={},
            train=TrainConfig(dimensions=8),
            evaluation=EvalSpec(train_fractions=(0.5,), trials=1),
        )
        with pytest.raises(SpecError, match="labeled"):
            run(spec)

    def test_edge_list_graph_source(self, tmp_path, small_unweighted_graph):
        from repro.graph.io import save_edge_list

        path = tmp_path / "g.txt"
        save_edge_list(small_unweighted_graph, path)
        report = run(tiny_spec(
            graph=GraphSpec(edge_list=str(path)), model="deepwalk", model_params={},
        ))
        assert report.corpus_summary["num_walks"] == small_unweighted_graph.num_nodes

    def test_seeded_runs_reproduce(self):
        a = run(tiny_spec(), keep_corpus=True)
        b = run(tiny_spec(), keep_corpus=True)
        assert np.array_equal(a.corpus.walks, b.corpus.walks)

    def test_one_seed_convention_with_the_facade(self):
        """``run(spec)`` is ``UniNet(seed=spec.seed).train(...)`` bit for bit."""
        from repro import UniNet

        spec = tiny_spec(train=TrainConfig(dimensions=8), seed=5)
        report = run(spec, keep_corpus=True)
        graph, __ = spec.graph.load()
        net = UniNet(graph, spec.model, seed=5, **spec.model_params)
        expected = net.train(num_walks=1, walk_length=6, dimensions=8)
        assert np.array_equal(report.corpus.walks, expected.corpus.walks)
        assert np.array_equal(report.embeddings.vectors, expected.embeddings.vectors)
        # walk-only runs draw the same seed as the facade's walk-only call
        walked = run(tiny_spec(seed=5), keep_corpus=True)
        corpus = UniNet(graph, spec.model, seed=5, **spec.model_params).generate_walks(1, 6)
        assert np.array_equal(walked.corpus.walks, corpus.walks)

    def test_updates_block_does_not_move_the_initial_corpus(self):
        spec = tiny_spec(train=TrainConfig(dimensions=8), seed=5)
        plain = run(spec, keep_corpus=True)
        data = {**spec.to_dict(), "updates": {"steps": [{"add": [[0, 9]]}]}}
        replayed = run(data, keep_corpus=True)
        assert np.array_equal(plain.corpus.walks, replayed.corpus.walks)
        assert np.array_equal(plain.corpus.lengths, replayed.corpus.lengths)
        assert len(replayed.metrics["updates"]) == 1


class TestRunMany:
    def test_grid_expansion_names_and_fields(self):
        specs = expand_grid(
            tiny_spec(), {"sampler": ["mh", "direct"], "model_params.p": [0.25, 4.0]}
        )
        assert len(specs) == 4
        assert specs[0].walk.sampler == "mh" and specs[0].model_params["p"] == 0.25
        assert specs[3].walk.sampler == "direct" and specs[3].model_params["p"] == 4.0
        assert "sampler=direct" in specs[3].name and "p=4.0" in specs[3].name

    def test_model_sweep_filters_params(self):
        # deepwalk declares no p/q: the sweep must drop them, not crash
        reports = run_many(tiny_spec(), grid={"model": ["deepwalk", "node2vec"]})
        assert [r.spec.model for r in reports] == ["deepwalk", "node2vec"]
        assert reports[0].spec.model_params == {}
        assert reports[1].spec.model_params == {"p": 0.5, "q": 2.0}

    def test_explicit_spec_list(self):
        reports = run_many([tiny_spec(name="a"), tiny_spec(name="b")])
        assert [r.spec.name for r in reports] == ["a", "b"]

    def test_sweep_loads_shared_graph_once(self, monkeypatch):
        loads = []
        original = GraphSpec.load

        def counting_load(self):
            loads.append(self.dataset)
            return original(self)

        monkeypatch.setattr(GraphSpec, "load", counting_load)
        run_many(tiny_spec(), grid={"sampler": ["mh", "direct", "rejection"]})
        assert len(loads) == 1

    def test_apply_override_creates_missing_sections(self):
        data = tiny_spec().to_dict()  # train is None
        apply_override(data, "train.dimensions", 8)
        assert data["train"] == {"dimensions": 8}
        apply_override(data, "initializer", "random")
        assert data["walk"]["initializer"] == "random"

    def test_override_beats_top_level_sugar(self):
        # a spec dict written with the documented top-level sugar must not
        # shadow an explicit override of the same setting
        data = {"graph": {"dataset": "amazon", "scale": 0.05}, "sampler": "mh",
                "num_walks": 1, "walk_length": 6, "train": None}
        apply_override(data, "sampler", "direct")
        assert RunSpec.from_dict(data).walk.sampler == "direct"
        apply_override(data, "walk.num_walks", 2)
        assert RunSpec.from_dict(data).walk.num_walks == 2

    def test_expand_variations(self):
        from repro.core.runner import expand_variations

        specs = expand_variations(
            tiny_spec(),
            [{"sampler": "direct"}, {"model": "deepwalk"}],
            names=["d", "dw"],
        )
        assert specs[0].walk.sampler == "direct" and specs[0].name == "d"
        # model override filters undeclared base params here too
        assert specs[1].model == "deepwalk" and specs[1].model_params == {}


class FixedFanoutWalk(RandomWalkModel):
    """Custom first-order model defined entirely outside the package."""

    name = "fixed-fanout-test"
    order = 1

    def batch_dynamic_weight(self, prev, prev_off, cur, step, edge_offsets):
        return np.ones(np.asarray(edge_offsets).size, dtype=np.float64)


class UniformStepper(StepperBase):
    """Custom vectorized sampler defined entirely outside the package."""

    name = "uniform-test"

    def __init__(self, graph, model, ctx):
        super().__init__(graph, model)

    def step(self, prev, prev_off, cur, step, rng):
        lo, deg = self._rows(cur)
        cand = lo + (rng.random(cur.size) * np.maximum(deg, 1)).astype(np.int64)
        out = np.where(deg > 0, cand, NO_EDGE)
        self.proposals += cur.size
        self.samples += int((out != NO_EDGE).sum())
        return out


@pytest.fixture
def custom_components():
    """Register a custom model + sampler; always clean up afterwards."""
    MODEL_REGISTRY.register("fixed-fanout-test", FixedFanoutWalk, param_spec={})
    register_sampler("uniform-test", UniformStepper, aliases=("unif-test",))
    try:
        yield
    finally:
        MODEL_REGISTRY.unregister("fixed-fanout-test")
        unregister_sampler("uniform-test")


class TestThirdPartyExtension:
    def test_custom_model_and_sampler_end_to_end(self, custom_components):
        spec = RunSpec(
            graph=GraphSpec(dataset="amazon", scale=0.05, seed=3),
            model="fixed-fanout-test",
            walk=WalkConfig(num_walks=1, walk_length=6, sampler="uniform-test"),
            train=None,
            seed=9,
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec
        report = run(spec)
        assert report.corpus_summary["token_count"] > 0
        assert report.sampler_stats["samples"] > 0

    def test_custom_components_train_pipeline(self, custom_components):
        spec = RunSpec(
            graph=GraphSpec(dataset="amazon", scale=0.05, seed=3),
            model="fixed-fanout-test",
            walk=WalkConfig(num_walks=1, walk_length=6, sampler="unif-test"),
            train=TrainConfig(dimensions=8, epochs=1),
            seed=9,
        )
        report = run(spec)
        assert report.embeddings is not None
        assert report.embeddings.dimensions == 8

    def test_custom_sampler_alias_canonicalised(self, custom_components):
        assert WalkConfig(sampler="unif-test").sampler == "uniform-test"

    def test_alias_collision_leaves_nothing_registered(self, custom_components):
        from repro.errors import WalkError
        from repro.registry import SAMPLER_REGISTRY

        # 'direct' is taken: the whole registration must fail without
        # leaving 'rollback-test' behind
        with pytest.raises(WalkError):
            register_sampler("rollback-test", UniformStepper, aliases=("direct",))
        assert "rollback-test" not in SAMPLER_REGISTRY

    def test_duplicate_model_name_rejected(self, custom_components):
        with pytest.raises(ModelError, match="already registered"):
            MODEL_REGISTRY.register("fixed-fanout-test", FixedFanoutWalk)
        with pytest.raises(ModelError, match="already registered"):
            MODEL_REGISTRY.register("deepwalk", FixedFanoutWalk)


class TestCliRun:
    def test_run_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        tiny_spec().save(spec_path)
        out_path = tmp_path / "report.json"
        rc = main([
            "run", "--spec", str(spec_path),
            "--set", "sampler=direct", "--set", "walk.num_walks=2",
            "--output", str(out_path),
        ])
        assert rc == 0
        assert "sampler" in capsys.readouterr().out
        report = json.loads(out_path.read_text())
        assert report["spec"]["walk"]["sampler"] == "direct"
        assert report["spec"]["walk"]["num_walks"] == 2
        assert report["corpus_summary"]["token_count"] > 0

    def test_run_subcommand_reports_spec_errors(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"graph": {"dataset": "nope"}}')
        rc = main(["run", "--spec", str(spec_path)])
        assert rc == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_run_subcommand_rejects_non_object_spec(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text('[1, 2, 3]')
        rc = main(["run", "--spec", str(spec_path)])
        assert rc == 2
        assert "JSON object" in capsys.readouterr().err

    def test_run_subcommand_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["run", "--spec", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "cannot read spec file" in capsys.readouterr().err
