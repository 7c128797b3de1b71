"""Compare two sets of benchmark runs under ``BENCHMARK.json``'s bounds.

    python3 benchmarks/e2e/e2e_compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two run sets of
one commit), ``B`` the candidate. Each file is what ``e2e_run.py --out``
wrote (or a single result from ``benchmarks/e2e/out/``). One row is
printed per (workload, end-to-end metric): both medians, both spreads
((Q3 - Q1) / median over the set's runs) and how much worse B is than A
as a share of A's median. A pairing is

* ``REGRESSION`` when B is worse than A by more than the metric's bound,
* ``unresolved`` when either set's spread exceeds the bound (the runs
  cannot tell a change of that size from noise — not "unchanged"),
* ``ok`` otherwise.

Per-layer counts that must repeat bit for bit for a seed are compared
too when both sets hold traced runs. Exits 1 on a regression or an
exact-count mismatch, 2 when the sets must not be compared at all
(different walk backends or sizes).
"""

from __future__ import annotations

import json
import statistics
import sys

from e2e_common import load_spec, quartile_spread

#: per-layer metrics that are pure functions of the seed
EXACT = (
    "graph.edge_entries", "walks.steps", "walks.corpus_bytes", "sampling.initializations",
    "sampling.proposals_per_sample", "embedding.batches", "embedding.final_loss",
    "sharding.migration_rounds", "sharding.migrated_walkers", "sharding.migration_rate",
    "sharding.wire_bytes_per_round",
)


def load_runs(path: str) -> list[dict]:
    with open(path) as fh:
        data = json.load(fh)
    return data["runs"] if "runs" in data else [data]


def by_workload(runs: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


def configuration(runs) -> set:
    """(walk backend, sizes, run length) of a set; comparable sets share one."""
    return {(run["meta"]["walk_backend"], run["smoke"], run["seconds"]) for run in runs}


def spread(values) -> float | None:
    return quartile_spread(values) if len(values) >= 2 else None


def compare_metric(metric: dict, a_values, b_values) -> dict:
    a_mid, b_mid = statistics.median(a_values), statistics.median(b_values)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (b_mid - a_mid) / abs(a_mid)
    spreads = [spread(a_values), spread(b_values)]
    if worse_by > metric["bound"]:
        verdict = "REGRESSION"
    elif any(s is not None and s > metric["bound"] for s in spreads):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"a": a_mid, "b": b_mid, "spreads": spreads, "worse_by": worse_by, "verdict": verdict}


def exact_mismatches(a_runs, b_runs) -> list[str]:
    out = []
    b_by_seed = {run["seed"]: run for run in b_runs if "per_layer" in run}
    for a in a_runs:
        b = b_by_seed.get(a["seed"])
        if "per_layer" not in a or b is None:
            continue
        for name in EXACT:
            va, vb = a["per_layer"][name]["value"], b["per_layer"][name]["value"]
            if va != vb:
                out.append(f"{a['workload']} seed {a['seed']}: {name} {va!r} != {vb!r}")
    return out


def fmt_spread(value) -> str:
    return "   n/a" if value is None else f"{100 * value:5.1f}%"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = load_spec()
    a_sets, b_sets = by_workload(load_runs(argv[0])), by_workload(load_runs(argv[1]))
    status = 0
    print(
        f"{'workload':15s} {'metric':12s} {'better':6s} {'bound':>5s} "
        f"{'n':>5s} {'A median':>12s} {'A spread':>8s} {'B median':>12s} {'B spread':>8s} "
        f"{'B worse by (of A)':>17s}  verdict"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = a_sets.get(workload), b_sets.get(workload)
        if not a_runs or not b_runs:
            continue
        a_config, b_config = configuration(a_runs), configuration(b_runs)
        if a_config != b_config or len(a_config) != 1:
            print(
                f"{workload}: refusing to compare (backend, smoke, seconds) "
                f"{sorted(a_config)} with {sorted(b_config)}", file=sys.stderr,
            )
            return 2
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = compare_metric(
                metric,
                [run["end_to_end"][name]["value"] for run in a_runs],
                [run["end_to_end"][name]["value"] for run in b_runs],
            )
            if row["verdict"] == "REGRESSION":
                status = 1
            print(
                f"{workload:15s} {name:12s} {metric['better']:6s} {100 * metric['bound']:4.0f}% "
                f"{len(a_runs):2d}/{len(b_runs):<2d} {row['a']:12.6g} {fmt_spread(row['spreads'][0]):>8s} "
                f"{row['b']:12.6g} {fmt_spread(row['spreads'][1]):>8s} "
                f"{100 * row['worse_by']:+16.2f}%  {row['verdict']} {metric['unit']}"
            )
        failed = [r for r in a_runs + b_runs if not r["correct"]]
        if failed:
            status = 1
            print(f"{workload}: {len(failed)} run(s) failed a correctness check")
        for line in exact_mismatches(a_runs, b_runs):
            status = 1
            print(f"exact count differs — {line}")
    return status


if __name__ == "__main__":
    sys.exit(main())
