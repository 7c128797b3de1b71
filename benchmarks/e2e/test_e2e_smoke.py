"""Smoke test of the end-to-end benchmark harness (collected by tier-1).

Runs all four workloads at ``--smoke`` sizes and asserts the result
schema, the metric names and units against ``BENCHMARK.json``, and that
every correctness check passes. Never a timing threshold: what the
numbers are is the benchmark's business, not the test suite's.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "e2e_run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(group: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[group]}


def _contract_line(stdout: str) -> dict:
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert line["failed"] == 0
    return line


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "runs.json"
    proc = subprocess.run(
        RUN + ["--smoke", "--seconds", "1", "--trace", "1", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc, out, json.loads(out.read_text())["runs"]


def test_spec_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + list(_units("end_to_end")) + list(_units("per_layer"))
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


def test_traced_smoke_runs_every_workload(traced):
    proc, __, runs = traced
    assert [run["workload"] for run in runs] == WORKLOADS
    line = _contract_line(proc.stdout)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _units("per_layer")
    for run in runs:
        assert run["correct"] and run["failed"] == 0, run["checks"]
        assert all(run["checks"].values()), run["checks"]
        assert any(name.startswith("traced.") for name in run["checks"])
        for group in ("end_to_end", "per_layer"):
            assert {k: v["unit"] for k, v in run[group].items()} == _units(group)
            assert all(isinstance(v["value"], (int, float)) for v in run[group].values())
        assert all(v["value"] > 0 for v in run["end_to_end"].values())
        assert {"commit", "walk_backend", "nproc", "blas_threads", "python", "numpy", "seed"} <= set(
            run["meta"]
        )
        spans = [json.loads(s) for s in (HERE / run["trace_file"]).read_text().splitlines()]
        assert spans and all(
            {"name", "layer", "workload", "rep", "start", "end", "parent"} <= set(s) for s in spans
        )
        assert all(s["end"] >= s["start"] for s in spans)


def test_each_workload_reports_its_own_layers(traced):
    by_name = {run["workload"]: run["per_layer"] for run in traced[2]}
    assert by_name["train_e2e"]["embedding.fit_s"]["value"] > 0
    assert by_name["walk_only"]["walks.numpy_steps_per_s"]["value"] > 0
    assert by_name["shard_walk"]["sharding.migration_rounds"]["value"] > 0
    assert by_name["serve_openloop"]["serving.versions_published"]["value"] > 0
    # a layer a workload never enters did no work there
    assert by_name["walk_only"]["embedding.fit_s"]["value"] == 0
    assert by_name["serve_openloop"]["walks.steps"]["value"] == 0
    phases = next(r for r in traced[2] if r["workload"] == "serve_openloop")["detail"]["phases"]
    assert all({"sent", "succeeded", "failed", "gen_late_p99_ms"} <= set(p) for p in phases.values())


def test_untraced_run_prints_the_end_to_end_metrics():
    proc = subprocess.run(
        RUN + ["--smoke", "--seconds", "1", "--workload", "walk_only", "--seed", "4", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = _contract_line(proc.stdout)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _units("end_to_end")


def test_compare_accepts_a_set_against_itself(traced):
    out = str(traced[1])
    proc = subprocess.run(
        [sys.executable, str(HERE / "e2e_compare.py"), out, out],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.split()[:1] and line.split()[0] in WORKLOADS]
    assert len(rows) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert "REGRESSION" not in proc.stdout


def test_fails_without_a_result_where_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/e2e_run.py", "--workload", "walk_only", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
