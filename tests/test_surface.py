"""Derivation guards: a knob is declared once, on its config dataclass.

Everything else — RunSpec (de)serialisation, ``--set`` / grid overrides,
engine keywords, the CLI flags of the spec-building verbs — must be
*derived* from the dataclass field, so adding a field needs no second
edit, and nothing below the dataclass writes its default again. ``tests/data/cli_surface.json`` pins the CLI surface as recorded
from the parser before the flags were derived (option string ->
``[default, nargs, choices]`` per verb, dumped with :func:`cli_surface`).
"""

import argparse
import ast
import dataclasses
import functools
import json
from pathlib import Path

import pytest

from repro import run
from repro.cli import _FLAGS, _VERB_DEFAULTS, _VERB_SECTIONS, _verb_spec, build_parser
from repro.core.config import StreamingConfig, TrainConfig, WalkConfig
from repro.core.runner import apply_override, expand_grid
from repro.core.spec import SUGAR, EvalSpec, GraphSpec, RunSpec, ServingSpec, spec_field
from repro.errors import ShardError, SpecError
from repro.registry import SamplerContext
from repro.serving import ServerConfig
from repro.sharding import ShardedWalkEngine, ShardingConfig
from repro.walks.kernels import available_backends
from repro.walks.vectorized import VectorizedWalkEngine

SECTIONS = {
    "walk": WalkConfig,
    "train": TrainConfig,
    "streaming": StreamingConfig,
    "graph": GraphSpec,
    "evaluation": EvalSpec,
    "serving": ServingSpec,
    "serving.server": ServerConfig,
}
#: a valid non-default value where "default + 1" is not one
ALTERNATIVES = {
    "sampler": "direct", "initializer": "random", "backend": "cnative",
    "transport": "socket", "vocab": "exact",
    "mode": "cbow", "task": "clustering", "dataset": "blogcatalog",
    "edge_list": "edges.txt", "weight_mode": "uniform",
    "extra": {"batch_pairs": 64}, "train_fractions": [0.3, 0.6],
    "index": "ivf", "index_params": {"nprobe": 2}, "codec": "int8", "codec_params": {"m": 4},
    "server": ServerConfig(max_batch=8),
}  # fmt: skip
#: the setting a value needs beside it: an index's or a codec's own parameters
COMPANIONS = {"index_params": ("index", "ivf"), "codec_params": ("codec", "pq")}


def non_default(field):
    if field.name in ALTERNATIVES:
        return ALTERNATIVES[field.name]
    if isinstance(field.default, bool):
        return not field.default
    return 3 if field.default is None else field.default + 1


def section_fields():
    return [
        pytest.param(section, field, id=f"{section}.{field.name}")
        for section, cls in SECTIONS.items()
        for field in dataclasses.fields(cls)
    ]


class TestEveryFieldIsReachable:
    @pytest.mark.parametrize("section, field", section_fields())
    def test_override_reaches_it_and_the_spec_round_trips(self, section, field):
        value = non_default(field)
        # a graph has one source: an edge list replaces the dataset
        source = {} if field.name == "edge_list" else {"dataset": "amazon"}
        data = apply_override({"graph": source}, f"{section}.{field.name}", value)
        if field.name in COMPANIONS:
            apply_override(data, f"{section}.{COMPANIONS[field.name][0]}", COMPANIONS[field.name][1])
        spec = RunSpec.from_dict(data)
        got = getattr(functools.reduce(getattr, section.split("."), spec), field.name)
        assert got == (tuple(value) if isinstance(value, list) else value)
        assert got != field.default
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec
        # the same path names the same field to whoever derives from it
        assert spec_field(f"{section}.{field.name}")[0].name == field.name

    def test_a_removed_field_is_an_unknown_key(self):
        with pytest.raises(SpecError, match="negative_sharing"):
            RunSpec.from_dict({"graph": {"dataset": "amazon"}, "train": {"negative_sharing": True}})
        for removed in ({"sharding": {"shards": 2}}, {"shards": 2}, {"partitioner": "hash"}):
            with pytest.raises(SpecError, match=next(iter(removed))):
                RunSpec.from_dict({"graph": {"dataset": "amazon"}, **removed})


class _NoTransport:
    """Stands in for a transport: every op answers 0, nothing is spawned."""

    name = "stub"

    def call_many(self, calls):
        return [0 for __ in calls]


def engine_fields():
    """Every engine config field that has a non-default value (a field
    with one choice, ``ShardingConfig.partitioner``, has none)."""
    return [
        pytest.param(cls, field, id=f"{cls.__name__}.{field.name}")
        for cls in (WalkConfig, ShardingConfig)
        for field in dataclasses.fields(cls)
        if len(field.metadata.get("choices", ())) != 1
    ]


class TestEnginesAreBuiltFromTheirConfig:
    @pytest.mark.parametrize("cls, field", engine_fields())
    def test_the_config_object_and_the_keywords_build_the_same_engine(
        self, cls, field, tiny_weighted_graph, monkeypatch
    ):
        """Every field reaches ``engine.config`` / ``engine.sharding``, by
        either spelling, and those objects are what the transport gets."""
        if field.name == "backend" and not available_backends()["cnative"]:
            pytest.skip("no C compiler")
        handed = []
        monkeypatch.setattr(
            "repro.sharding.engine.make_transport",
            lambda sharding, plan, model, params, walk: handed.append((sharding, walk)) or _NoTransport(),
        )
        values = {field.name: non_default(field)}
        config = cls(**values)
        assert getattr(config, field.name) != field.default
        role = "config" if cls is WalkConfig else "sharding"
        keywords = {{"shards": "num_shards"}.get(name, name): value for name, value in values.items()}
        for engine_cls in (VectorizedWalkEngine, ShardedWalkEngine)[cls is ShardingConfig :]:
            outcomes = []
            for spelling in ({role: config}, keywords):
                try:
                    engine = engine_cls(tiny_weighted_graph, "deepwalk", **spelling)
                except ShardError as err:
                    outcomes.append(str(err))
                    continue
                outcomes.append(getattr(engine, role))
                if engine_cls is ShardedWalkEngine:
                    assert handed[-1] == (engine.sharding, engine.config)
            assert outcomes[0] == outcomes[1]
            # the sharded engine runs M-H / high-weight, without a budget
            refusal = {"table_budget_bytes": "budget", "sampler": "'mh'", "initializer": "'high-weight'"}
            if engine_cls is ShardedWalkEngine and field.name in refusal:
                assert refusal[field.name] in outcomes[0]
            else:
                assert outcomes[0] == config

    def test_the_context_declares_no_walk_knob_of_its_own(self):
        """``ctx.init_sample_cap`` is the config's; the context adds live objects only."""
        own = {f.name for f in dataclasses.fields(SamplerContext)} - {"config"}
        walk = {f.name for f in dataclasses.fields(WalkConfig)}
        assert not own & walk
        ctx = SamplerContext(WalkConfig(init_sample_cap=3, max_reject_rounds=9))
        assert (ctx.init_sample_cap, ctx.max_reject_rounds, ctx.budget) == (3, 9, None)
        with pytest.raises(AttributeError):
            ctx.no_such_knob


SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: every knob with a value for a default (``None`` and a bool are "unset" / a
#: switch, not a value to repeat) and the one module that may write it: all
#: fields of the three run configs and of the sharded engine's, and the
#: serving knobs
DECLARED = {
    f.name: (f.default, module)
    for cls, module in (
        (WalkConfig, "config.py"),
        (TrainConfig, "config.py"),
        (StreamingConfig, "config.py"),
        (ShardingConfig, "sharding/config.py"),
    )
    for f in dataclasses.fields(cls)
    if not isinstance(f.default, (bool, type(None), type(dataclasses.MISSING)))
} | {
    name: (getattr(cls, name), "serving/config.py")
    for cls, names in {
        ServingSpec: ("index", "cache_size"),
        ServerConfig: ("max_batch", "max_wait_us", "queue_size"),
    }.items()
    for name in names
}


class TestOneServingDeclaration:
    @staticmethod
    def modules():
        for path in sorted(SRC.rglob("*.py")):
            yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())

    @staticmethod
    def named_values(node):
        """``(name, value node)`` wherever a node can give a named knob a value:
        a parameter default, an annotated assignment (a dataclass field,
        plain or through ``field(default=...)``), a keyword argument and
        the fall-back of a ``.get(name, value)``."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            positional = node.args.posonlyargs + node.args.args
            pairs = list(zip(positional[::-1], node.args.defaults[::-1]))
            pairs += zip(node.args.kwonlyargs, node.args.kw_defaults)
            return [(arg.arg, default) for arg, default in pairs]
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            value = node.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
                value = next((kw.value for kw in value.keywords if kw.arg == "default"), None)
            return [(node.target.id, value)]
        if isinstance(node, ast.Call):  # argparse ``default=``, constructor calls
            pairs = [(kw.arg, kw.value) for kw in node.keywords]
            if getattr(node.func, "attr", None) == "get" and len(node.args) == 2:
                key = node.args[0]
                pairs.append((key.value if isinstance(key, ast.Constant) else None, node.args[1]))
            return pairs
        return []

    def test_each_default_is_a_literal_once_on_its_dataclass_field(self):
        """A signature names ``ServingSpec.cache_size`` or ``WalkConfig.initializer``;
        it does not say 4096 or "high-weight" again."""
        written = [
            (name, module)
            for module, tree in self.modules()
            for node in ast.walk(tree)
            for name, value in self.named_values(node)
            if name in DECLARED
            and isinstance(value, ast.Constant)
            and type(value.value) is type(DECLARED[name][0])
            and value.value == DECLARED[name][0]
        ]
        assert sorted(written) == sorted((name, module) for name, (__, module) in DECLARED.items())

    def test_the_builder_holds_the_only_front_end_constructor_calls(self):
        calls = {}
        for module, tree in self.modules():
            for node in ast.walk(tree):
                func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in ("QueryService", "QueryServer"):
                    calls.setdefault(module, set()).add(name)
        # outside serving/ nobody assembles the read path by hand; inside
        # it, the builder and the snapshot manager's per-version service
        assert calls == {
            "serving/config.py": {"QueryService", "QueryServer"},
            "serving/snapshot.py": {"QueryService"},
        }


class TestOneSugarTable:
    @pytest.mark.parametrize("key", sorted(SUGAR))
    def test_spec_files_overrides_and_grids_accept_every_key(self, key):
        field, __ = spec_field(key)
        value = non_default(field)
        section, name = SUGAR[key].split(".")
        base = {"graph": {"dataset": "amazon"}}
        from_file = RunSpec.from_dict({**base, key: value})
        overridden = RunSpec.from_dict(apply_override(dict(base), key, value))
        (swept,) = expand_grid(base, {key: [value]})
        for spec in (from_file, overridden, swept):
            assert getattr(getattr(spec, section), name) == value
        # top-level sugar wins over the same setting inside its section
        shadowed = RunSpec.from_dict({**base, section: {name: field.default}, key: value})
        assert getattr(getattr(shadowed, section), name) == value

    @pytest.mark.parametrize("key, value", [("shards", 2), ("partitioner", "hash"), ("sharding.shards", 2)])
    def test_spec_files_overrides_and_grids_refuse_a_removed_key(self, key, value):
        """The sharding block and its sugar are gone: each spelling is an unknown key."""
        base = {"graph": {"dataset": "amazon"}}
        top = key.split(".")[0]
        with pytest.raises(SpecError, match=top):
            RunSpec.from_dict(apply_override(dict(base), key, value))
        with pytest.raises(SpecError, match=top):
            expand_grid(base, {key: [value]})
        with pytest.raises(SpecError, match=top):
            run({**base, **apply_override({}, key, value)})


def cli_surface(parser) -> dict:
    """``{verb: {option string: [default, nargs, choices]}}`` of a parser."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {}
    for verb, verb_parser in sub.choices.items():
        surface[verb] = flags = {}
        for action in verb_parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            choices = None if action.choices is None else list(action.choices)
            for option in action.option_strings or [action.dest]:
                flags[option] = [action.default, action.nargs, choices]
    return json.loads(json.dumps(surface))  # tuples -> lists, like the file


def parse(*argv):
    return build_parser().parse_args(argv)


class TestCliSurface:
    def test_surface_is_the_recorded_one(self):
        recorded = json.loads((Path(__file__).parent / "data" / "cli_surface.json").read_text())
        assert cli_surface(build_parser()) == recorded

    @pytest.mark.parametrize(
        "argv",
        [
            ("walk", "--dataset", "amazon", "--shards", "2"),
            ("walk", "--dataset", "amazon", "--partitioner", "hash"),
            ("walk", "--dataset", "amazon", "--shard-transport", "socket"),
            ("walk", "--dataset", "amazon", "--shard-hosts", "a:1"),
            ("shard-worker", "--port", "0"),
        ],
        ids=("--shards", "--partitioner", "--shard-transport", "--shard-hosts", "shard-worker"),
    )
    def test_a_removed_flag_or_verb_is_a_usage_error(self, argv, capsys):
        removed = next(arg for arg in argv if "shard" in arg or arg == "--partitioner")
        with pytest.raises(SystemExit) as exited:
            parse(*argv)
        assert exited.value.code == 2
        assert removed in capsys.readouterr().err

    def test_defaults_are_the_dataclass_defaults_unless_listed(self):
        surface = cli_surface(build_parser())
        checked = 0
        for verb in _VERB_SECTIONS:
            listed = {**_VERB_DEFAULTS["*"], **_VERB_DEFAULTS.get(verb, {})}
            for flag, (paths, __) in _FLAGS.items():
                default, nargs, __ = surface[verb].get(flag, (None, 0, None))
                # a switch (nargs 0) has no default: left out, it says nothing
                if flag not in surface[verb] or nargs == 0 or flag in listed:
                    continue
                field_default = spec_field(paths.split()[0])[0].default
                assert default == json.loads(json.dumps(field_default)), (verb, flag)
                checked += 1
        assert checked >= 49  # one per flag and verb: --max-corpus-bytes is gone

    def test_flags_left_alone_say_nothing(self):
        spec = _verb_spec(parse("train", "--dataset", "amazon"))
        assert spec == {"graph": {"dataset": "amazon", "scale": 0.5}, "model_params": {}}
        spec = _verb_spec(parse("classify", "--dataset", "reddit"))
        assert spec["train"] == {"dimensions": 64, "epochs": 2}

    def test_any_block_flag_switches_its_block_on(self):
        base = ("train", "--dataset", "amazon")
        assert _verb_spec(parse(*base, "--stream"))["streaming"] == {}
        assert _verb_spec(parse(*base, "--stream-vocab", "exact"))["streaming"] == {"vocab": "exact"}
        assert _verb_spec(parse(*base, "--seed", "3"))["seed"] == 3
        assert _verb_spec(parse(*base, "--seed", "3"))["graph"]["seed"] == 3

    def test_no_switches_store_false(self):
        args = parse("update", "--dataset", "amazon", "--deltas", "d.jsonl", "--no-retrain")
        assert _verb_spec(args)["updates"] == {"retrain": False}
