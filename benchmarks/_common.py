"""Shared support for the benchmark suite.

Every benchmark module regenerates one of the paper's tables or figures.
The rendered table is printed (visible with ``pytest -s``) *and* written
to ``benchmarks/results/<name>.txt`` so ``EXPERIMENTS.md`` can reference
the latest run without scraping pytest output.

Scale note: the paper's evaluation machine was a 24-core server walking
billion-edge graphs for hours; this suite runs the same *experiments* on
the synthetic stand-ins at scales that finish in minutes. Shapes (who
wins, acceptance ratios, OOM patterns, crossovers) are the reproduction
target, not absolute seconds.
"""

from __future__ import annotations

import subprocess
import time
from pathlib import Path

from repro.harness.tables import format_table

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def timed(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)``; returns ``(result, wall_seconds)``.

    The one timing idiom shared by the whole suite, replacing per-module
    ``perf_counter`` pairs.
    """
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def commit_label(tree) -> str:
    """Short commit of the checkout at ``tree`` (``-dirty`` when its
    ``src`` differs from it): what a committed record names in its header."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(tree), *args], capture_output=True, text=True, timeout=10
        ).stdout.strip()
    return (git("rev-parse", "--short", "HEAD") or "unknown") + ("-dirty" if git("status", "--porcelain", "src") else "")


def record_table(name: str, headers, rows, *, title: str | None = None) -> str:
    """Render, print and persist one result table; returns the text."""
    text = format_table(headers, rows, title=title)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print()
    print(text)
    print(f"[written to {path}]")
    return text


def run_specs(base_spec, variations, **run_kwargs):
    """Run one :class:`~repro.core.spec.RunSpec` per variation dict.

    ``variations`` is a list of ``{dotted-path: value}`` override dicts
    applied to ``base_spec`` (e.g. ``{"model_params.p": 0.25,
    "sampler": "rejection"}``) — the declarative form of the
    multi-configuration loops the benchmarks used to hand-roll. Returns
    the :class:`~repro.core.runner.RunReport` list, aligned with
    ``variations``. Keyword arguments (e.g. a pre-seeded
    ``graph_cache`` to keep dataset synthesis out of timed regions) are
    forwarded to :func:`repro.core.runner.run_many`.
    """
    from repro.core.runner import expand_variations, run_many

    return run_many(expand_variations(base_spec, variations), **run_kwargs)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark fixture.

    The table-generating experiments are too heavy for statistical
    repetition; the benchmark records the single-run wall time and the
    table itself carries the scientific content.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
