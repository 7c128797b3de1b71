"""Command-line interface: ``python -m repro <command>``.

Covers the common end-to-end flows without writing code:

* ``stats``  — print Table-V-style statistics for a dataset or edge list;
* ``walk``   — generate a walk corpus and save it (.npz);
* ``train``  — full pipeline (walks + word2vec), saving KeyedVectors;
* ``classify`` — node-classification sweep on a labeled synthetic dataset;
* ``run``    — execute a declarative :class:`~repro.core.spec.RunSpec`
  JSON file (with ``--set`` overrides) and report timings/metrics;
* ``export-store`` — convert saved KeyedVectors (.npz) into a
  memory-mapped :class:`~repro.serving.store.EmbeddingStore` file;
* ``query``  — batched top-k similarity queries against a store through
  a registered index (bruteforce/ivf);
* ``update`` — train, then replay an edge-delta stream (JSONL/npz) with
  incremental sampler revalidation and re-embedding per step.

``walk``, ``train``, ``classify`` and ``update`` are ``run`` with a spec
built from flags: :data:`_FLAGS` maps each flag to the
:class:`~repro.core.spec.RunSpec` key it sets, its argparse type,
default, ``choices`` and ``nargs`` are read from the dataclass field at
that key, and the verb hands the spec to :func:`repro.core.runner.run`.
``serve``, ``query`` and ``export-store`` run no spec but take their
``serving.*`` flags from the same table, and the first two hand them to
:meth:`~repro.serving.config.ServingSpec.build`.
A new config field is reachable through ``run --set`` at once and gets a
dedicated flag with one :data:`_FLAGS` line. Model flags (``--p``,
``--q``, ``--metapath``, ...) are generated the same way from each
registered model's ``param_spec``, so models registered by plugins get
CLI support for free.

Examples::

    python -m repro stats --dataset blogcatalog --scale 0.5
    python -m repro train --dataset youtube --model node2vec --p 0.25 --q 4 \
        --output vectors.npz
    python -m repro train --dataset youtube --stream --output vectors.npz
    python -m repro train --dataset youtube --shard-walks 4096 --overlap \
        --output vectors.npz
    python -m repro classify --dataset blogcatalog --model deepwalk
    python -m repro run --spec spec.json --set sampler=rejection \
        --set streaming.shard_walks=4096
    python -m repro export-store --vectors vectors.npz --output vectors.embstore
    python -m repro export-store --vectors vectors.npz --codec pq --pq-m 32 \
        --output vectors.pq.embstore
    python -m repro query --store vectors.embstore --keys 0 1 2 --topn 5 \
        --index ivf --nprobe 16
    python -m repro update --dataset amazon --scale 0.1 --deltas edits.jsonl \
        --num-walks 4 --walk-length 20 --output vectors.npz
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import typing
from pathlib import Path

from repro.core.spec import RunSpec, ServingSpec, spec_field
from repro.errors import ReproError
from repro.graph import datasets
from repro.graph.stats import graph_statistics
from repro.harness.tables import format_table
from repro.registry import MODEL_REGISTRY
from repro.serving.codec import PQCodec

_PARAM_TYPES = {"float": float, "int": int, "str": str}


def _cli_param_specs():
    """CLI-exposable model parameters from the registry: name -> spec.

    Parameters shared between models (node2vec/edge2vec/fairwalk all
    declare ``p``/``q``) become one flag. Flags carry no default — each
    model's own declared default applies when the flag is omitted — so
    only a *type* conflict between two models' declarations matters,
    and it is warned about (first registration wins the flag type).
    """
    merged = {}
    for model_name in MODEL_REGISTRY:
        param_spec = MODEL_REGISTRY.entry(model_name).capabilities.get("param_spec", {})
        for pname, pspec in param_spec.items():
            if not pspec.get("cli", True):
                continue
            seen = merged.get(pname)
            if seen is None:
                merged[pname] = pspec
            elif seen.get("type", "str") != pspec.get("type", "str"):
                print(
                    f"warning: model {model_name!r} declares --{pname} as "
                    f"{pspec.get('type', 'str')} but the flag is already "
                    f"{seen.get('type', 'str')}; keeping the latter",
                    file=sys.stderr,
                )
    return merged


#: flag -> (dotted RunSpec path(s) it sets, help). The flag's type, default,
#: ``choices`` and ``nargs`` come from the dataclass field at its (first)
#: path, and the verbs that take it from that path's section
#: (:data:`_VERB_SECTIONS`); a ``--no-...`` switch stores ``False``, and a
#: flag naming a whole block (``--stream``) turns it on with its defaults.
_FLAGS = {
    "--dataset": ("graph.dataset", f"synthetic dataset: {sorted(datasets.DATASETS)}"),
    "--edge-list": ("graph.edge_list", "path to a 'src dst [weight]' file"),
    "--scale": ("graph.scale", "synthetic dataset scale"),
    "--weighted": ("graph.weighted", "edge list has weights"),
    "--seed": ("graph.seed seed", "seed of the synthetic dataset and of the run"),
    "--model": ("model", f"random walk model: {MODEL_REGISTRY.names()}"),
    "--sampler": ("walk.sampler", "edge sampler"),
    "--initializer": ("walk.initializer", "M-H init strategy"),
    "--num-walks": ("walk.num_walks", "walks per start node"),
    "--walk-length": ("walk.walk_length", "nodes per walk"),
    "--kernel-backend": ("walk.backend", "walk kernels: numpy or cnative (C, needs a compiler)"),
    "--dimensions": ("train.dimensions", "embedding dimensions"),
    "--epochs": ("train.epochs", "training epochs"),
    "--stream": ("streaming", "stream walk shards into the trainer (bounded corpus memory)"),
    "--shard-walks": ("streaming.shard_walks", "walks per shard (implies --stream; default: one wave)"),
    "--overlap": ("streaming.overlap", "walk in a producer thread while training (implies --stream)"),
    "--stream-vocab": (
        "streaming.vocab",
        "vocabulary counts: degree-proportional estimate (one pass) or exact counting "
        "pass (walks generated twice; implies --stream)",
    ),
    "--fractions": ("evaluation.train_fractions", "labeled fractions to train on"),
    "--trials": ("evaluation.trials", "random splits per fraction"),
    "--no-retrain": ("updates.retrain", "apply deltas only; skip the incremental re-embedding"),
    "--update-num-walks": ("updates.num_walks", "walks per affected node per refresh (default: --num-walks)"),
    "--update-walk-length": ("updates.walk_length", "walk length per refresh (default: --walk-length)"),
    "--codec": ("serving.codec", "store compression: float32 (exact), int8 (4x), pq (~16x at d=128)"),
    "--topn": ("serving.topn", "neighbours per query"),
    "--index": ("serving.index", "ANN index: bruteforce (exact) or ivf (approximate)"),
    "--cache-size": ("serving.cache_size", "LRU result-cache entries"),
    "--max-batch": ("serving.server.max_batch", "most requests coalesced into one index scan"),
    "--max-wait-us": (
        "serving.server.max_wait_us",
        "longest a round keeps coalescing while requests keep arriving (a cap, not a wait)",
    ),
    "--queue-size": (
        "serving.server.queue_size",
        "pending-request bound; beyond it requests are load-shed ('overloaded')",
    ),
}
_WALK_SECTIONS = ("graph", "model", "walk")
#: The spec-building verbs and the RunSpec sections each one has flags for.
_VERB_SECTIONS = {
    "stats": ("graph",),
    "walk": _WALK_SECTIONS,
    "train": (*_WALK_SECTIONS, "train", "streaming"),
    "classify": (*_WALK_SECTIONS, "train", "evaluation"),
    "update": (*_WALK_SECTIONS, "train", "updates"),
}
#: The verbs that open or write a store take the ``serving.*`` flags
#: that apply to them, not the whole section.
_STORE_VERB_FLAGS = {
    "export-store": ("--codec",),
    "query": ("--topn", "--index"),
    "serve": ("--index", "--cache-size", "--max-batch", "--max-wait-us", "--queue-size"),
}
#: Flag defaults that intentionally differ from the dataclass field's
#: ("*": every verb).
_VERB_DEFAULTS = {
    "*": {"--scale": 0.5},
    "classify": {"--dimensions": 64, "--epochs": 2},
    "update": {"--dimensions": 64},
}


def _verb_flags(verb: str) -> list[str]:
    """The :data:`_FLAGS` entries ``verb`` takes."""
    if verb in _STORE_VERB_FLAGS:
        return list(_STORE_VERB_FLAGS[verb])
    return [flag for flag, (paths, __) in _FLAGS.items() if paths.split(".")[0] in _VERB_SECTIONS[verb]]


def _flag_kwargs(verb: str, flag: str) -> dict:
    """argparse keywords of a :data:`_FLAGS` entry, read off its dataclass field."""
    paths, help_text = _FLAGS[flag]
    field, hint = spec_field(paths.split()[0])
    if hint is bool or dataclasses.is_dataclass(hint):
        return {"action": "store_true", "help": help_text}
    kwargs = {"type": hint, "help": help_text}
    if typing.get_origin(hint) is tuple:
        kwargs.update(type=typing.get_args(hint)[0], nargs="+")
    if "choices" in field.metadata:
        kwargs["choices"] = list(field.metadata["choices"])
    overrides = {**_VERB_DEFAULTS["*"], **_VERB_DEFAULTS.get(verb, {})}
    return {**kwargs, "default": overrides.get(flag, field.default)}


def _add_spec_flags(parser, verb: str) -> None:
    """Add ``verb``'s :data:`_FLAGS` entries, and the model flags with ``--model``."""
    flags = _verb_flags(verb)
    # a graph source is required of the verbs that take one
    source = parser.add_mutually_exclusive_group(required=True) if "--dataset" in flags else None
    for flag in flags:
        target = source if flag in ("--dataset", "--edge-list") else parser
        target.add_argument(flag, **_flag_kwargs(verb, flag))
    if "model" not in _VERB_SECTIONS.get(verb, ()):
        return
    for pname, pspec in sorted(_cli_param_specs().items()):
        parser.add_argument(
            f"--{pname}",
            type=_PARAM_TYPES.get(pspec.get("type", "str"), str),
            default=None,  # omitted flag -> the chosen model's own default
            help=pspec.get("help", f"model parameter {pname}")
            + f" (default: {pspec.get('default')})",
        )


def _verb_spec(args, base: dict | None = None) -> dict:
    """The spec dict a verb's parsed flags describe, on top of ``base``.

    A flag that was not given (``None``, an unset switch) or was left at
    a default it shares with its dataclass field says nothing, so it
    also switches no optional block (``streaming``) on.
    """
    from repro.core.runner import apply_override

    data = dict(base or {})
    for flag in _verb_flags(args.command):
        paths = _FLAGS[flag][0].split()
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None or value is False:
            continue
        if value is True:
            block = dataclasses.is_dataclass(spec_field(paths[0])[1])
            value = {} if block else not flag.startswith("--no-")
        elif value == _flag_kwargs(args.command, flag)["default"] == spec_field(paths[0])[0].default:
            continue
        for path in paths:
            apply_override(data, path, value)
    if hasattr(args, "model"):
        data["model_params"] = _model_params(args)
    return data


def _model_params(args):
    """Parameters for the chosen model, derived from its ``param_spec``.

    A flag the user did not pass falls back to the *chosen model's* own
    declared default (not another model's), or is omitted entirely so
    the constructor default applies.
    """
    param_spec = MODEL_REGISTRY.entry(args.model).capabilities.get("param_spec", {})
    params = {}
    for pname, pspec in param_spec.items():
        attr = pname.replace("-", "_")
        if not pspec.get("cli", True) or not hasattr(args, attr):
            continue
        value = getattr(args, attr)
        if value is None:
            value = pspec.get("default")
        if value is not None:
            params[pname] = value
    return params


def _cmd_stats(args) -> int:
    try:
        graph, labels = RunSpec.from_dict(_verb_spec(args)).graph.load()
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    stats = graph_statistics(graph)
    rows = [{"statistic": key, "value": value} for key, value in stats.items()]
    if labels is not None:
        rows.append({"statistic": "num_labeled", "value": labels.num_labeled})
        rows.append({"statistic": "num_classes", "value": labels.num_classes})
    print(format_table(["statistic", "value"], rows, title="graph statistics"))
    return 0


def _run_verb(args, base: dict | None = None, **run_kwargs):
    """``run()`` the spec the verb's flags describe; the report, or
    ``None`` once a :class:`~repro.errors.ReproError` has been printed."""
    from repro.core.runner import run

    try:
        return run(_verb_spec(args, base), **run_kwargs)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return None


def _cmd_walk(args) -> int:
    report = _run_verb(args, {"train": None}, keep_corpus=True)
    if report is None:
        return 2
    report.corpus.save_npz(args.output)
    print(f"wrote {report.corpus} to {args.output}")
    return 0


def _cmd_train(args) -> int:
    report = _run_verb(args)
    if report is None:
        return 2
    report.embeddings.save_npz(args.output)
    mode = "monolithic" if report.spec.streaming is None else "streamed"
    print(
        f"trained {len(report.embeddings)} x {args.dimensions} embeddings "
        f"({mode}: init={report.ti:.2f}s walk={report.tw:.2f}s "
        f"learn={report.tl:.2f}s total={report.tt:.2f}s, "
        f"peak corpus {report.corpus_summary['peak_corpus_bytes']} B); "
        f"wrote {args.output}"
    )
    return 0


def _cmd_classify(args) -> int:
    # the sweep's splits share the run's seed
    report = _run_verb(args, {"evaluation": {"seed": args.seed}})
    if report is None:
        return 2
    print(
        format_table(
            ["train_fraction", "micro_f1_mean", "macro_f1_mean"],
            report.metrics["classification"],
            title=f"{args.model} on {args.dataset}: classification sweep",
        )
    )
    return 0


def _cmd_export_store(args) -> int:
    from repro.embedding import KeyedVectors

    try:
        kv = KeyedVectors.load_npz(args.vectors)
    except (OSError, KeyError, ReproError) as err:
        print(f"error: cannot load vectors from {args.vectors}: {err}", file=sys.stderr)
        return 2
    try:
        from repro.serving.codec import CODEC_REGISTRY

        codec = CODEC_REGISTRY.canonical(args.codec)
        codec_params = {}
        if codec == "pq":
            codec_params = {"m": args.pq_m, "k": args.pq_k, "seed": args.codec_seed}
        # generic escape hatch so third-party codecs get their
        # constructor parameters from the CLI too
        codec_params.update(_parse_override(item) for item in args.codec_param)
        spec = ServingSpec(codec=codec, codec_params=codec_params)  # checks them
        store = kv.to_store(args.output, codec=spec.codec, **spec.codec_params)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    float_bytes = 4 * len(store) * store.dimensions
    ratio = float_bytes / max(store.codes.nbytes, 1)
    print(
        f"exported {len(store)} x {store.dimensions} embeddings "
        f"({store.nbytes:,} data bytes, codec {store.codec.name}, "
        f"{ratio:.1f}x vs float32) to {args.output}"
    )
    return 0


def _add_store_flags(parser, verb: str) -> None:
    """``--store``, the verb's ``serving.*`` flags and the ivf constructor parameters."""
    parser.add_argument("--store", required=True, help="EmbeddingStore file (from export-store)")
    _add_spec_flags(parser, verb)
    parser.add_argument("--nlist", type=int, default=None, help="ivf: number of cells")
    parser.add_argument("--nprobe", type=int, default=None, help="ivf: cells scanned per query")


def _open_and_build(args, **address):
    """``(store, what ServingSpec.build makes of the flags over it)`` for a
    store verb; ``None`` once a :class:`~repro.errors.ReproError` has been printed."""
    from repro.serving import EmbeddingStore

    given = {"nlist": args.nlist, "nprobe": args.nprobe}
    index_params = {name: value for name, value in given.items() if value is not None}
    server = {} if args.command == "serve" else None  # a server block with the defaults
    base = {"serving": {"index_params": index_params, "server": server}}
    try:
        store = EmbeddingStore.open(args.store)
        return store, ServingSpec(**_verb_spec(args, base)["serving"]).build(store, **address)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return None


def _cmd_query(args) -> int:
    opened = _open_and_build(args)
    if opened is None:
        return 2
    store, service = opened
    try:
        keys = args.keys if args.keys else [int(k) for k in store.keys[: args.batch]]
        results = service.most_similar_batch(keys, topn=args.topn)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    rows = [
        {"query": int(key), "rank": rank + 1, "neighbor": nkey, "cosine": round(score, 4)}
        for key, result in zip(keys, results)
        for rank, (nkey, score) in enumerate(result)
    ]
    stats = service.stats()
    print(
        format_table(
            ["query", "rank", "neighbor", "cosine"],
            rows,
            title=f"top-{args.topn} via {stats['index']} over {args.store}",
        )
    )
    print(
        f"[{stats['queries']} queries in {stats['seconds']:.4f}s = "
        f"{stats['qps']:.0f} qps; store {stats['store_count']} x "
        f"{stats['store_dimensions']} (codec {stats['codec']})]"
    )
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    opened = _open_and_build(args, host=args.host, port=args.port)
    if opened is None:
        return 2
    store, server = opened

    async def run_server() -> dict:
        host, port = await server.start_tcp()
        print(
            f"serving {len(store)} x {store.dimensions} embeddings "
            f"(codec {store.codec.name}, index {args.index}) on {host}:{port}",
            flush=True,
        )
        return await server.serve_forever(max_requests=args.max_requests)

    try:
        stats = asyncio.run(run_server())
    except KeyboardInterrupt:
        stats = server.stats()
    print(
        f"[served {stats['answered']} requests ({stats['shed']} shed) in "
        f"{stats['batches']} batches (mean {stats['mean_batch']:.1f} req/batch); "
        f"p50 {stats['p50_ms']:.2f}ms p99 {stats['p99_ms']:.2f}ms "
        f"{stats['qps']:.0f} qps]"
    )
    return 0


def _cmd_update(args) -> int:
    from repro.graph.delta import load_deltas

    try:
        deltas = load_deltas(args.deltas, symmetric=args.symmetric)
    except (OSError, ReproError) as err:
        print(f"error: cannot load deltas from {args.deltas}: {err}", file=sys.stderr)
        return 2
    if not deltas:
        print(f"error: {args.deltas} contains no delta records", file=sys.stderr)
        return 2
    # load_deltas already expanded --symmetric rows to both directions
    steps = [delta.to_dict() for delta in deltas]
    report = _run_verb(args, {"updates": {"steps": steps, "symmetric": False}})
    if report is None:
        return 2
    print(f"initial train: {len(report.embeddings)} x {args.dimensions} embeddings in {report.tt:.2f}s")
    rows = report.metrics["updates"]
    print(format_table(list(rows[0]), rows, title=f"replayed {len(rows)} delta(s)"))
    if args.no_retrain:
        print("graph updated; embeddings left stale (--no-retrain)")
    else:
        report.embeddings.save_npz(args.output)
        print(f"wrote {len(report.embeddings)} refreshed embeddings to {args.output}")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import AnalysisError, load_baseline, run_lint, save_baseline

    root = Path.cwd()
    baseline_path = Path(args.baseline) if args.baseline else None
    baseline = None
    try:
        if baseline_path is not None and not args.update_baseline:
            baseline = load_baseline(baseline_path)
        report = run_lint(
            args.paths, root=root,
            select=args.select, ignore=args.ignore, baseline=baseline,
        )
    except AnalysisError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.update_baseline:
        if baseline_path is None:
            print("error: --update-baseline needs --baseline PATH", file=sys.stderr)
            return 2
        save_baseline(baseline_path, report.findings)
        print(f"baseline written to {baseline_path} ({len(report.findings)} finding(s))")
        return 0
    failed = report.failed(baseline_mode=baseline is not None)
    if args.format == "json":
        print(json.dumps({
            "version": 1,
            "files": report.files,
            "rules": report.rules,
            "findings": [f.to_json() for f in report.findings],
            "baselined": len(report.baselined),
            "unused_baseline": [
                {"code": code, "path": rel, "message": message, "count": count}
                for (code, rel, message), count in sorted(report.unused_baseline.items())
            ],
            "parse_errors": [
                {"path": path, "message": message}
                for path, message in report.parse_errors
            ],
            "exit": 1 if failed else 0,
        }, indent=2))
        return 1 if failed else 0
    for path, message in report.parse_errors:
        print(f"{path}:1:1: PARSE error: cannot parse file: {message}")
    for finding in report.findings:
        print(finding.render())
    for (code, rel, message), count in sorted(report.unused_baseline.items()):
        print(f"{rel}: {code} baseline entry unused ({count} more than fired): {message}")
    if report.unused_baseline:
        print(
            f"unused entries in baseline {baseline_path}: {len(report.unused_baseline)}; "
            "rewrite it with --update-baseline"
        )
    new = " new" if baseline is not None else ""
    print(
        f"checked {report.files} file(s) with {len(report.rules)} rule(s): "
        f"{len(report.findings)}{new} finding(s) "
        f"({len(report.errors)} error(s), {len(report.warnings)} warning(s))"
        + (f", {len(report.baselined)} baselined" if baseline is not None else "")
    )
    return 1 if failed else 0


def _parse_override(item: str):
    """Parse a ``--set key=value`` item; values are JSON when possible."""
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise SystemExit(f"--set expects KEY=VALUE, got {item!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _cmd_run(args) -> int:
    from repro.core.runner import apply_override, run

    try:
        data = json.loads(Path(args.spec).read_text())
    except OSError as err:
        print(f"error: cannot read spec file: {err}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"error: {args.spec} is not valid JSON: {err}", file=sys.stderr)
        return 2
    if not isinstance(data, dict):
        print(
            f"error: {args.spec} must contain a JSON object (a RunSpec), "
            f"not {type(data).__name__}",
            file=sys.stderr,
        )
        return 2
    for item in args.set:
        key, value = _parse_override(item)
        apply_override(data, key, value)
    try:
        report = run(data)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    rows = [{"field": key, "value": value} for key, value in report.summary_row().items()]
    print(format_table(["field", "value"], rows, title=f"run: {report.spec.label()}"))
    for task, result in report.metrics.items():
        if isinstance(result, list) and result and isinstance(result[0], dict):
            print()
            print(format_table(list(result[0]), result, title=task))
    if args.output:
        Path(args.output).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"[report written to {args.output}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="print graph statistics")
    _add_spec_flags(stats, "stats")
    stats.set_defaults(func=_cmd_stats)

    walk = sub.add_parser("walk", help="generate and save a walk corpus")
    _add_spec_flags(walk, "walk")
    walk.add_argument("--output", default="walks.npz")
    walk.set_defaults(func=_cmd_walk)

    train = sub.add_parser("train", help="train embeddings end to end")
    _add_spec_flags(train, "train")
    train.add_argument("--output", default="vectors.npz")
    train.set_defaults(func=_cmd_train)

    classify = sub.add_parser("classify", help="train + node classification sweep")
    _add_spec_flags(classify, "classify")
    classify.set_defaults(func=_cmd_classify)

    run_cmd = sub.add_parser("run", help="execute a declarative RunSpec JSON file")
    run_cmd.add_argument("--spec", required=True, help="path to a RunSpec JSON file")
    run_cmd.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override spec fields by dotted path (e.g. sampler=direct, "
        "model_params.p=0.25, train.dimensions=64); repeatable",
    )
    run_cmd.add_argument("--output", help="also write the full RunReport JSON here")
    run_cmd.set_defaults(func=_cmd_run)

    export = sub.add_parser(
        "export-store",
        help="convert saved KeyedVectors (.npz) into a servable mmap store",
    )
    export.add_argument("--vectors", required=True, help="KeyedVectors .npz (from train)")
    export.add_argument("--output", required=True, help="store file to write")
    _add_spec_flags(export, "export-store")
    pq = inspect.signature(PQCodec).parameters  # the flags' defaults are the constructor's
    export.add_argument(
        "--pq-m", type=int, default=pq["m"].default, metavar="M",
        help="pq: subspaces / bytes per vector (lowered to a divisor of dim)",
    )
    export.add_argument(
        "--pq-k", type=int, default=pq["k"].default, metavar="K",
        help="pq: centroids per subspace codebook (<= 256)",
    )
    export.add_argument(
        "--codec-seed", type=int, default=pq["seed"].default, help="pq: codebook training seed"
    )
    export.add_argument(
        "--codec-param", action="append", default=[], metavar="KEY=VALUE",
        help="extra codec constructor parameter (JSON values; repeatable) — "
        "how third-party codecs registered with register_codec get their "
        "settings",
    )
    export.set_defaults(func=_cmd_export_store)

    query = sub.add_parser(
        "query", help="batched top-k similarity queries against an embedding store"
    )
    _add_store_flags(query, "query")
    query.add_argument(
        "--keys", type=int, nargs="+",
        help="node ids to query (default: the first --batch keys in the store)",
    )
    query.add_argument("--batch", type=int, default=8, help="default query-batch size")
    query.set_defaults(func=_cmd_query)

    serve = sub.add_parser(
        "serve",
        help="run the micro-batching TCP query server over an embedding store",
    )
    _add_store_flags(serve, "serve")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7531, help="TCP port (0 picks a free one)")
    serve.add_argument(
        "--max-requests", type=int, default=None,
        help="exit after answering this many requests (smoke tests / CI)",
    )
    serve.set_defaults(func=_cmd_serve)

    update = sub.add_parser(
        "update",
        help="train, then replay an edge-delta stream with incremental re-embedding",
    )
    _add_spec_flags(update, "update")
    update.add_argument(
        "--deltas", required=True,
        help="delta schedule: JSONL, one GraphDelta record per line (as save_deltas writes)",
    )
    update.add_argument(
        "--symmetric", action="store_true",
        help="expand each delta edge row to both directed entries",
    )
    update.add_argument("--output", default="vectors.npz")
    update.set_defaults(func=_cmd_update)

    lint = sub.add_parser(
        "lint",
        help="run the repo's AST-based invariant checker (rules RPR001-RPR006)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    lint.add_argument(
        "--select", action="append", default=[], metavar="RULE",
        help="run only these rules (by code RPR00x or name; repeatable)",
    )
    lint.add_argument(
        "--ignore", action="append", default=[], metavar="RULE",
        help="skip these rules (by code or name; repeatable)",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline JSON of accepted findings; with it, ANY non-baselined "
        "finding (warnings included) fails the lint, and so does an entry "
        "no finding uses",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline PATH from the current findings and exit 0",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (json emits one machine-readable document)",
    )
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
