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

Model flags (``--p``, ``--q``, ``--metapath``, ...) are generated from
each registered model's ``param_spec``, so models registered by plugins
get CLI support for free.

Examples::

    python -m repro stats --dataset blogcatalog --scale 0.5
    python -m repro train --dataset youtube --model node2vec --p 0.25 --q 4 \
        --output vectors.npz
    python -m repro train --dataset youtube --stream --shard-walks 4096 \
        --overlap --output vectors.npz
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
import json
import sys
from pathlib import Path

from repro.graph import datasets
from repro.graph.io import load_edge_list
from repro.graph.stats import graph_statistics
from repro.harness.tables import format_table
from repro.registry import MODEL_REGISTRY

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


def _add_graph_args(parser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", help=f"synthetic dataset: {sorted(datasets.DATASETS)}")
    source.add_argument("--edge-list", help="path to a 'src dst [weight]' file")
    parser.add_argument("--scale", type=float, default=0.5, help="synthetic dataset scale")
    parser.add_argument("--weighted", action="store_true", help="edge list has weights")
    parser.add_argument("--seed", type=int, default=0)


def _add_walk_args(parser):
    parser.add_argument(
        "--model", default="deepwalk",
        help=f"random walk model: {MODEL_REGISTRY.names()}",
    )
    parser.add_argument("--sampler", default="mh", help="edge sampler")
    parser.add_argument("--initializer", default="high-weight", help="M-H init strategy")
    parser.add_argument("--num-walks", type=int, default=10)
    parser.add_argument("--walk-length", type=int, default=80)
    parser.add_argument(
        "--kernel-backend", default="numpy", metavar="NAME",
        help="walk step kernels: numpy (portable), numba (JIT) or "
        "cnative (C, needs a compiler)",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="generate walks on the sharded engine with N graph partitions "
        "(bitwise-identical corpus; default: monolithic engine)",
    )
    parser.add_argument(
        "--partitioner", default="hash",
        help="graph partitioner for --shards: hash (stateless) or "
        "degree_balanced (greedy LPT on out-degree)",
    )
    parser.add_argument(
        "--shard-transport", choices=["inline", "process", "socket"], default="inline",
        help="shard workers in-process (inline), one OS process per shard "
        "with the local CSR in shared memory (process), or TCP-connected "
        "repro shard-worker processes (socket; loopback workers are "
        "spawned unless --shard-hosts names standing ones)",
    )
    parser.add_argument(
        "--shard-hosts", nargs="+", default=None, metavar="HOST:PORT",
        help="socket transport: one repro shard-worker address per shard "
        "(implies --shard-transport socket; --shards defaults to the "
        "number of addresses)",
    )
    for pname, pspec in sorted(_cli_param_specs().items()):
        parser.add_argument(
            f"--{pname}",
            type=_PARAM_TYPES.get(pspec.get("type", "str"), str),
            default=None,  # omitted flag -> the chosen model's own default
            help=pspec.get("help", f"model parameter {pname}")
            + f" (default: {pspec.get('default')})",
        )


def _load_graph(args):
    if args.dataset:
        loaded = datasets.load(args.dataset, scale=args.scale, seed=args.seed)
        if isinstance(loaded, tuple):
            return loaded
        return loaded, None
    return load_edge_list(args.edge_list, weighted=args.weighted), None


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
    graph, labels = _load_graph(args)
    stats = graph_statistics(graph)
    rows = [{"statistic": key, "value": value} for key, value in stats.items()]
    if labels is not None:
        rows.append({"statistic": "num_labeled", "value": labels.num_labeled})
        rows.append({"statistic": "num_classes", "value": labels.num_classes})
    print(format_table(["statistic", "value"], rows, title="graph statistics"))
    return 0


def _sharding_config(args):
    """Build a ShardingConfig from the ``--shards`` family of flags."""
    hosts = getattr(args, "shard_hosts", None)
    if args.shards is None and hosts is None:
        return None
    from repro.core.config import ShardingConfig

    transport = args.shard_transport
    if hosts is not None:
        transport = "socket"
    return ShardingConfig(
        shards=args.shards if args.shards is not None else len(hosts),
        partitioner=args.partitioner,
        transport=transport,
        hosts=tuple(hosts) if hosts is not None else None,
    )


def _cmd_walk(args) -> int:
    from repro import UniNet

    graph, __ = _load_graph(args)
    net = UniNet(
        graph, model=args.model, sampler=args.sampler, initializer=args.initializer,
        backend=args.kernel_backend, seed=args.seed, **_model_params(args),
    )
    corpus = net.generate_walks(
        args.num_walks, args.walk_length, sharding=_sharding_config(args)
    )
    corpus.save_npz(args.output)
    if args.shards is not None:
        stats = net.last_stats
        print(
            f"[{args.shards} shard(s) via {stats['partitioner']}: "
            f"{stats['boundary_edges']} boundary edges, migration rate "
            f"{stats['migration_rate']:.3f}, node imbalance "
            f"{stats['node_imbalance']:.2f}]"
        )
    print(f"wrote {corpus} to {args.output}")
    return 0


def _streaming_config(args):
    """Build a StreamingConfig from the ``train`` streaming flags.

    ``--stream`` enables the defaults; any sizing/overlap flag implies
    streaming on its own, so ``--shard-walks 4096`` alone works.
    """
    wants = (
        args.stream
        or args.shard_walks is not None
        or args.max_corpus_bytes is not None
        or args.overlap
        or args.stream_vocab != "degree"
    )
    if not wants:
        return None
    from repro.core.config import StreamingConfig

    return StreamingConfig(
        shard_walks=args.shard_walks,
        max_corpus_bytes=args.max_corpus_bytes,
        overlap=args.overlap,
        vocab=args.stream_vocab,
    )


def _cmd_train(args) -> int:
    from repro import UniNet

    graph, __ = _load_graph(args)
    net = UniNet(
        graph, model=args.model, sampler=args.sampler, initializer=args.initializer,
        backend=args.kernel_backend, seed=args.seed, **_model_params(args),
    )
    result = net.train(
        num_walks=args.num_walks,
        walk_length=args.walk_length,
        dimensions=args.dimensions,
        epochs=args.epochs,
        streaming=_streaming_config(args),
        sharding=_sharding_config(args),
    )
    result.embeddings.save_npz(args.output)
    if args.shards is not None:
        stats = result.sampler_stats
        print(
            f"[{args.shards} shard(s) via {stats['partitioner']}: "
            f"{stats['boundary_edges']} boundary edges, migration rate "
            f"{stats['migration_rate']:.3f}, node imbalance "
            f"{stats['node_imbalance']:.2f}]"
        )
    mode = "streamed" if result.streaming else "monolithic"
    print(
        f"trained {len(result.embeddings)} x {args.dimensions} embeddings "
        f"({mode}: init={result.ti:.2f}s walk={result.tw:.2f}s "
        f"learn={result.tl:.2f}s total={result.tt:.2f}s, "
        f"peak corpus {result.peak_corpus_bytes} B); wrote {args.output}"
    )
    return 0


def _cmd_classify(args) -> int:
    from repro import UniNet
    from repro.evaluation import classification_sweep

    graph, labels = _load_graph(args)
    if labels is None:
        print("classify needs a labeled dataset", file=sys.stderr)
        return 2
    net = UniNet(
        graph, model=args.model, sampler=args.sampler, initializer=args.initializer,
        backend=args.kernel_backend, seed=args.seed, **_model_params(args),
    )
    result = net.train(
        num_walks=args.num_walks,
        walk_length=args.walk_length,
        dimensions=args.dimensions,
        epochs=args.epochs,
    )
    sweep = classification_sweep(
        result.embeddings, labels,
        train_fractions=tuple(args.fractions), trials=args.trials, seed=args.seed,
    )
    print(
        format_table(
            ["train_fraction", "micro_f1_mean", "macro_f1_mean"],
            sweep,
            title=f"{args.model} on {args.dataset}: classification sweep",
        )
    )
    return 0


def _cmd_export_store(args) -> int:
    from repro.embedding import KeyedVectors
    from repro.errors import ReproError

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
        for item in args.codec_param:
            key, value = _parse_override(item)
            codec_params[key] = value
        store = kv.to_store(args.output, codec=codec, **codec_params)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except TypeError as err:
        print(f"error: codec {args.codec!r} rejected its parameters: {err}", file=sys.stderr)
        return 2
    float_bytes = 4 * len(store) * store.dimensions
    ratio = float_bytes / max(store.codes.nbytes, 1)
    print(
        f"exported {len(store)} x {store.dimensions} embeddings "
        f"({store.nbytes:,} data bytes, codec {store.codec.name}, "
        f"{ratio:.1f}x vs float32) to {args.output}"
    )
    return 0


def _cmd_query(args) -> int:
    from repro.errors import ServingError
    from repro.serving import EmbeddingStore, QueryService

    try:
        store = EmbeddingStore.open(args.store)
    except ServingError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    index_params = {}
    if args.nlist is not None:
        index_params["nlist"] = args.nlist
    if args.nprobe is not None:
        index_params["nprobe"] = args.nprobe
    try:
        service = QueryService(store, index=args.index, **index_params)
        keys = args.keys if args.keys else [int(k) for k in store.keys[: args.batch]]
        results = service.most_similar_batch(keys, topn=args.topn)
    except (ServingError, TypeError) as err:
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

    from repro.errors import ReproError, ServingError
    from repro.serving import EmbeddingStore, QueryServer

    try:
        store = EmbeddingStore.open(args.store)
    except ServingError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    index_params = {}
    if args.nlist is not None:
        index_params["nlist"] = args.nlist
    if args.nprobe is not None:
        index_params["nprobe"] = args.nprobe
    try:
        server = QueryServer(
            store,
            index=args.index,
            cache_size=args.cache_size,
            max_batch=args.max_batch,
            max_wait_us=args.max_wait_us,
            queue_size=args.queue_size,
            host=args.host,
            port=args.port,
            **index_params,
        )
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    async def run_server() -> dict:
        await server.start_tcp()
        host, port = server.address
        print(
            f"serving {len(store)} x {store.dimensions} embeddings "
            f"(codec {store.codec.name}, index {args.index}) on {host}:{port}",
            flush=True,
        )
        if args.max_requests is None:
            await asyncio.Event().wait()
        else:
            while server.counters["answered"] < args.max_requests:
                await asyncio.sleep(0.005)
        stats = server.stats()
        await server.stop()
        return stats

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


def _cmd_shard_worker(args) -> int:
    from repro.errors import ReproError
    from repro.sharding.socket_worker import serve_shard

    def report(address):
        # the launcher (a CI script, an operator's shell) scrapes this
        # line for the bound port when --port 0 picked an ephemeral one
        print(f"shard-worker listening on {address[0]}:{address[1]}", flush=True)

    try:
        serve_shard(args.host, args.port, sessions=args.sessions, on_ready=report)
    except KeyboardInterrupt:
        pass
    except (OSError, ReproError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print("[shard-worker drained]")
    return 0


def _cmd_update(args) -> int:
    from repro import UniNet
    from repro.errors import ReproError
    from repro.graph.delta import load_deltas

    try:
        deltas = load_deltas(args.deltas, symmetric=args.symmetric)
    except (OSError, ReproError) as err:
        print(f"error: cannot load deltas from {args.deltas}: {err}", file=sys.stderr)
        return 2
    if not deltas:
        print(f"error: {args.deltas} contains no delta records", file=sys.stderr)
        return 2
    graph, __ = _load_graph(args)
    net = UniNet(
        graph, model=args.model, sampler=args.sampler, initializer=args.initializer,
        backend=args.kernel_backend, seed=args.seed, **_model_params(args),
    )
    result = net.train(
        num_walks=args.num_walks,
        walk_length=args.walk_length,
        dimensions=args.dimensions,
        epochs=args.epochs,
    )
    print(
        f"initial train: {len(result.embeddings)} x {args.dimensions} embeddings "
        f"in {result.tt:.2f}s on {graph!r}"
    )
    rows = []
    try:
        for i, delta in enumerate(deltas):
            ur = net.update(delta, refresh=args.refresh)
            row = {
                "step": i,
                "added": delta.add_src.size,
                "removed": delta.remove_src.size,
                "reweighted": delta.reweight_src.size,
                "update_ms": round(1000 * ur.seconds, 3),
                "invalidated": ur.sampler_refresh.get("invalidated_states", 0),
            }
            if not args.no_retrain:
                rr = net.refresh_embeddings(
                    num_walks=args.update_num_walks, walk_length=args.update_walk_length
                )
                row["rewalked"] = rr.corpus_summary.get("num_walks", 0)
                row["refresh_ms"] = round(1000 * rr.tt, 1)
            rows.append(row)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(format_table(list(rows[0]), rows, title=f"replayed {len(deltas)} delta(s)"))
    if not args.no_retrain:
        net.last_embeddings.save_npz(args.output)
        print(
            f"wrote {len(net.last_embeddings)} refreshed embeddings over "
            f"{net.graph!r} to {args.output}"
        )
    else:
        print(f"graph updated to {net.graph!r}; embeddings left stale (--no-retrain)")
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
    from repro.errors import ReproError

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
    _add_graph_args(stats)
    stats.set_defaults(func=_cmd_stats)

    walk = sub.add_parser("walk", help="generate and save a walk corpus")
    _add_graph_args(walk)
    _add_walk_args(walk)
    walk.add_argument("--output", default="walks.npz")
    walk.set_defaults(func=_cmd_walk)

    train = sub.add_parser("train", help="train embeddings end to end")
    _add_graph_args(train)
    _add_walk_args(train)
    train.add_argument("--dimensions", type=int, default=128)
    train.add_argument("--epochs", type=int, default=1)
    train.add_argument("--output", default="vectors.npz")
    stream = train.add_argument_group("streaming (bounded-memory walk→train)")
    stream.add_argument(
        "--stream", action="store_true",
        help="stream walk shards into the trainer instead of materializing "
        "the whole corpus",
    )
    stream.add_argument(
        "--shard-walks", type=int, default=None, metavar="N",
        help="walks per shard (implies --stream; default: one wave per shard)",
    )
    stream.add_argument(
        "--max-corpus-bytes", type=int, default=None, metavar="BYTES",
        help="size shards by a byte budget instead of a walk count "
        "(implies --stream)",
    )
    stream.add_argument(
        "--overlap", action="store_true",
        help="overlap walk generation and training via a producer thread "
        "(implies --stream)",
    )
    stream.add_argument(
        "--stream-vocab", choices=["degree", "exact"], default="degree",
        help="vocabulary counts: degree-proportional estimate (one pass) or "
        "exact counting pass (walks generated twice)",
    )
    train.set_defaults(func=_cmd_train)

    classify = sub.add_parser("classify", help="train + node classification sweep")
    _add_graph_args(classify)
    _add_walk_args(classify)
    classify.add_argument("--dimensions", type=int, default=64)
    classify.add_argument("--epochs", type=int, default=2)
    classify.add_argument("--fractions", type=float, nargs="+", default=[0.1, 0.5, 0.9])
    classify.add_argument("--trials", type=int, default=3)
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
    export.add_argument(
        "--codec", default="float32",
        help="store compression: float32 (exact), int8 (4x), pq (~16x at d=128)",
    )
    export.add_argument(
        "--pq-m", type=int, default=16, metavar="M",
        help="pq: subspaces / bytes per vector (lowered to a divisor of dim)",
    )
    export.add_argument(
        "--pq-k", type=int, default=256, metavar="K",
        help="pq: centroids per subspace codebook (<= 256)",
    )
    export.add_argument("--codec-seed", type=int, default=0, help="pq: codebook training seed")
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
    query.add_argument("--store", required=True, help="EmbeddingStore file (from export-store)")
    query.add_argument(
        "--keys", type=int, nargs="+",
        help="node ids to query (default: the first --batch keys in the store)",
    )
    query.add_argument("--batch", type=int, default=8, help="default query-batch size")
    query.add_argument("--topn", type=int, default=10)
    query.add_argument(
        "--index", default="bruteforce",
        help="ANN index: bruteforce (exact) or ivf (approximate)",
    )
    query.add_argument("--nlist", type=int, default=None, help="ivf: number of cells")
    query.add_argument("--nprobe", type=int, default=None, help="ivf: cells scanned per query")
    query.set_defaults(func=_cmd_query)

    serve = sub.add_parser(
        "serve",
        help="run the micro-batching TCP query server over an embedding store",
    )
    serve.add_argument("--store", required=True, help="EmbeddingStore file (from export-store)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7531, help="TCP port (0 picks a free one)")
    serve.add_argument(
        "--index", default="bruteforce",
        help="ANN index: bruteforce (exact) or ivf (approximate)",
    )
    serve.add_argument("--nlist", type=int, default=None, help="ivf: number of cells")
    serve.add_argument("--nprobe", type=int, default=None, help="ivf: cells scanned per query")
    serve.add_argument("--cache-size", type=int, default=4096, help="LRU result-cache entries")
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="most requests coalesced into one index scan",
    )
    serve.add_argument(
        "--max-wait-us", type=float, default=200.0,
        help="microseconds the dispatcher waits for more requests after the first",
    )
    serve.add_argument(
        "--queue-size", type=int, default=1024,
        help="pending-request bound; beyond it requests are load-shed ('overloaded')",
    )
    serve.add_argument(
        "--max-requests", type=int, default=None,
        help="exit after answering this many requests (smoke tests / CI)",
    )
    serve.set_defaults(func=_cmd_serve)

    shard_worker = sub.add_parser(
        "shard-worker",
        help="serve one walk shard over TCP for a socket-transport driver "
        "on another machine",
    )
    shard_worker.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (0.0.0.0 to accept remote drivers)",
    )
    shard_worker.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 picks a free one; the bound address is printed)",
    )
    shard_worker.add_argument(
        "--sessions", type=int, default=1,
        help="driver sessions to serve before exiting (each session is one "
        "engine lifetime; raise it for a standing worker)",
    )
    shard_worker.set_defaults(func=_cmd_shard_worker)

    update = sub.add_parser(
        "update",
        help="train, then replay an edge-delta stream with incremental re-embedding",
    )
    _add_graph_args(update)
    _add_walk_args(update)
    update.add_argument("--dimensions", type=int, default=64)
    update.add_argument("--epochs", type=int, default=1)
    update.add_argument(
        "--deltas", required=True,
        help="delta schedule: .jsonl (one record per line) or .npz (one delta)",
    )
    update.add_argument(
        "--symmetric", action="store_true",
        help="expand each delta edge row to both directed entries",
    )
    update.add_argument(
        "--refresh", choices=["affected", "full", "none"], default="affected",
        help="sampler revalidation policy per step",
    )
    update.add_argument(
        "--no-retrain", action="store_true",
        help="apply deltas only; skip the incremental re-embedding passes",
    )
    update.add_argument(
        "--update-num-walks", type=int, default=None, metavar="N",
        help="walks per affected start node in each refresh (default: --num-walks)",
    )
    update.add_argument(
        "--update-walk-length", type=int, default=None, metavar="L",
        help="walk length in each refresh (default: --walk-length)",
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
        "finding (warnings included) fails the lint",
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
