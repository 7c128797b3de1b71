"""One command for the whole pipeline's benchmark.

    python3 benchmarks/e2e/e2e_run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--runs K] [--out FILE] [--smoke]

Runs each requested workload in fresh subprocesses (clean peak RSS, BLAS
threads pinned and recorded), prints every metric by name with its
unit, checks that the outputs are correct, writes one JSON result per
run under ``benchmarks/e2e/out/`` and prints the last run's result as
the last line of standard output in the shape ``BENCHMARK.json``'s
contract asks for: with ``--trace 0`` every end-to-end metric, with
``--trace 1`` every per-layer metric. Exits non-zero when a check fails.

Per run, set-up is sampled ``SETUP_SAMPLES`` times — each in its own
subprocess, because imports and lazy initialisation only cost the first
time in a process — and ``setup_s`` is the median; the last of those
subprocesses goes on to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import subprocess
import sys
import time

from e2e_common import (
    HERE, LAYERS, OUT_DIR, SRC, Tracer, child_env, load_spec, median, metadata, peak_rss_mb,
)

SETUP_SAMPLES = 3
#: the contract allows a run 180 s; a child is killed before that
CHILD_TIMEOUT_S = 170.0

MODULES = {
    "train_e2e": "e2e_train",
    "walk_only": "e2e_walk",
    "shard_walk": "e2e_shard",
    "serve_openloop": "e2e_serve",
}


# ---------------------------------------------------------------------------
# child: one process = one set-up, optionally followed by the measurement
# ---------------------------------------------------------------------------
def child_main(args) -> int:
    mod = importlib.import_module(MODULES[args.workload])
    tracer = Tracer(args.workload, enabled=bool(args.trace))
    size = mod.SIZES["smoke" if args.smoke else "full"]
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    with tracer.span("setup", "core"):
        ctx = mod.setup(args.seed, size, tracer)
    # from the parent's spawn call to the first timed operation
    payload = {"setup_s": time.time() - args.spawned_at}
    try:
        if args.child == "measure":
            # a traced run measures untraced first (the base of
            # trace.overhead_frac), then traced, half the budget each
            budget = args.seconds / 2 if args.trace else args.seconds
            payload.update(mod.measure(ctx, budget))
            if args.trace:
                traced = mod.trace(ctx, budget, tracer, payload)
                self_s = tracer.self_seconds()
                traced["metrics"].update({f"self_s.{layer}": self_s[layer] for layer in LAYERS})
                payload["per_layer"] = traced["metrics"]
                payload["checks"].update({f"traced.{k}": v for k, v in traced["checks"].items()})
                payload["detail"]["traced"] = traced.get("detail", {})
                trace_path = OUT_DIR / f"trace-{run_tag(args, args.seed)}.jsonl"
                tracer.write(trace_path)
                payload["trace_file"] = str(trace_path.relative_to(HERE))
            payload["peak_rss_mb"] = peak_rss_mb()
            payload["meta"] = metadata(args.seed, ctx["backend"])
    finally:
        teardown = getattr(mod, "teardown", None)
        if teardown is not None:
            teardown(ctx)
    print(json.dumps(payload, default=float))
    return 0


# ---------------------------------------------------------------------------
# parent
# ---------------------------------------------------------------------------
def run_tag(args, seed: int) -> str:
    return f"{args.workload}-seed{seed}" + ("-smoke" if args.smoke else "")


def spawn_child(mode: str, args, seed: int) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workload", args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--spawned-at", repr(time.time()),
    ]
    if args.smoke:
        command.append("--smoke")
    # its own process group, so a timeout also reaps shard workers
    proc = subprocess.Popen(
        command, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, __ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{args.workload}: child exceeded {CHILD_TIMEOUT_S:g}s")
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload}: child exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(args, spec: dict, seed: int) -> dict:
    samples = 1 if args.smoke else SETUP_SAMPLES
    setups = [spawn_child("setup", args, seed)["setup_s"] for __ in range(samples - 1)]
    payload = spawn_child("measure", args, seed)
    setups.append(payload["setup_s"])
    values = dict(payload["values"], setup_s=median(setups), peak_rss_mb=payload["peak_rss_mb"])

    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in values]
    if missing:
        raise SystemExit(f"{args.workload}: end-to-end metrics not measured: {missing}")
    result = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "meta": payload["meta"],
        "correct": all(payload["checks"].values()),
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "checks": payload["checks"],
        "end_to_end": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
        },
        "setup_samples_s": setups,
        "detail": payload["detail"],
    }
    if args.trace:
        known = {m["name"] for m in spec["per_layer"]}
        unknown = sorted(set(payload["per_layer"]) - known)
        if unknown:
            raise SystemExit(f"{args.workload}: per-layer metrics not in BENCHMARK.json: {unknown}")
        # a layer this workload never enters did no work: 0, by name
        result["per_layer"] = {
            m["name"]: {"value": payload["per_layer"].get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        result["trace_file"] = payload["trace_file"]
    return result


def contract_line(result: dict) -> str:
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    })


def report(result: dict) -> None:
    meta = result["meta"]
    print(
        f"== {result['workload']} seed={result['seed']} seconds={result['seconds']:g} "
        f"trace={result['trace']} backend={meta['walk_backend']} nproc={meta['nproc']} "
        f"blas_threads={meta['blas_threads']} commit={meta['commit'][:12]}"
    )
    for group in ("end_to_end", "per_layer"):
        for name, metric in result.get(group, {}).items():
            print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    failed = [name for name, ok in result["checks"].items() if not ok]
    print(
        f"  checks: {len(result['checks']) - len(failed)}/{len(result['checks'])} passed"
        + (f"; FAILED: {', '.join(failed)}" if failed else "")
        + f"; attempted={result['attempted']} failed={result['failed']}"
    )


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(MODULES), help="default: all four, in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, with seeds SEED, SEED+1, ...")
    parser.add_argument("--out", help="also write every result of this invocation to one file")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes and one set-up sample: schema and checks only")
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.stdout.reconfigure(line_buffering=True)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(spec["run_seconds"])
    OUT_DIR.mkdir(exist_ok=True)
    results = []
    for workload in [args.workload] if args.workload else tuple(MODULES):
        args.workload = workload
        for run in range(args.runs):
            result = run_once(args, spec, args.seed + run)
            (OUT_DIR / f"{run_tag(args, result['seed'])}-trace{args.trace}.json").write_text(
                json.dumps(result, indent=1) + "\n"
            )
            report(result)
            results.append(result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": results}, fh, indent=1)
    print(contract_line(results[-1]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
