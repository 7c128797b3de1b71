"""Shared plumbing of the end-to-end benchmark.

Holds what every workload module needs and nothing workload-specific:
where the checkout's files are, how child processes are pinned, the
in-memory span recorder behind ``--trace 1``, the few statistics the
metrics are built from, and the run metadata block.

Nothing here imports :mod:`repro` at module level: ``e2e_run.py`` and
``e2e_compare.py`` import this file in processes that must start (and
fail cleanly) even where ``src/`` is absent.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Everything a run leaves behind (results, traces, the compiled-kernel
#: cache, store files) lands here; the directory is git-ignored.
OUT_DIR = HERE / "out"

#: Layers the harness calls into, by module name; each gets a
#: ``self_s.<layer>`` metric. ``sampling`` has per-layer counters but no
#: spans: it is only ever entered through ``walks``.
LAYERS = ("graph", "walks", "embedding", "serving", "sharding", "core")


def load_spec() -> dict:
    """The committed ``BENCHMARK.json`` (names, units, directions, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def blas_threads() -> int:
    return min(os.cpu_count() or 1, 4)


#: glibc malloc pinned to keep what the process frees: no heap trimming,
#: the largest mmap threshold glibc accepts, a padded heap top. With the
#: defaults every large numpy temporary is mmap'd and unmapped again, and
#: on the authoring VM the kernel's page-fault path then takes 30-45 % of
#: ``train_e2e`` and drifts by 40 % within an hour (Tt 20.7 s -> 29 s on
#: one seed, 16 s pinned). The program's own work is what later changes
#: are judged on, so the allocator is held still, like the BLAS threads.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(2 << 30),
    "MALLOC_TOP_PAD_": str(256 << 20),
}


def child_env() -> dict:
    """Environment of a workload subprocess.

    BLAS pools are pinned so a run does not depend on the host's core
    count beyond four; the allocator is pinned (:data:`MALLOC_ENV`);
    ``TMPDIR`` moves the cnative kernel cache (which lives in
    ``tempfile.gettempdir()``) inside the checkout, so the benchmark
    writes nowhere else and a fresh checkout pays the compile once.
    """
    env = dict(os.environ)
    env.update(MALLOC_ENV)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def resolve_walk_backend() -> str:
    """``"cnative"`` when a C compiler is present, else ``"numpy"``.

    Resolving instantiates the backend singleton, i.e. compiles the
    kernels or hits the on-disk cache — set-up work, never timed work.
    The resolved name is recorded in every result so two runs on
    different backends are never compared silently.
    """
    from repro.errors import ConfigError
    from repro.walks.kernels import resolve_backend

    try:
        resolve_backend("cnative")
    except ConfigError:
        return "numpy"
    return "cnative"


def metadata(seed: int, backend: str) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "walk_backend": backend,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "malloc_env": {name: os.environ.get(name) for name in MALLOC_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident MB of this process plus its largest reaped child.

    ``RUSAGE_CHILDREN`` reports the maximum over reaped children, not
    their sum: for ``shard_walk`` that is one loopback worker, for the
    other workloads zero.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, the steadiness measure the bounds are read against."""
    q1, __, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def windowed_p99(at, values, window_s: float, span_s: float) -> float:
    """Median over consecutive windows of each window's 99th percentile.

    ``at`` are the samples' due times within a phase of ``span_s``
    seconds. A whole-phase p99 is decided by the one or two stalls the
    phase happened to contain; the per-window tail is what requests
    usually see, and the median over windows is steady run to run.
    Windows with fewer than 1000 samples (under ten beyond the p99) are
    skipped; when none qualifies the whole phase's p99 is returned.
    """
    import numpy as np

    tails = []
    for k in range(int(span_s // window_s)):
        inside = (at >= k * window_s) & (at < (k + 1) * window_s)
        if inside.sum() >= 1000:
            tails.append(np.percentile(values[inside], 99))
    if not tails:
        return float(np.percentile(values, 99))
    return float(np.median(tails))


def repeat_for(seconds: float, min_reps: int, one_rep):
    """Call ``one_rep(i)`` until the next call would overrun ``seconds``.

    At least ``min_reps`` calls are made whatever they cost; the cost of
    the slowest call so far is the estimate for the next one.
    """
    start = time.perf_counter()
    slowest = 0.0
    out = []
    while True:
        t0 = time.perf_counter()
        out.append(one_rep(len(out)))
        slowest = max(slowest, time.perf_counter() - t0)
        if len(out) >= min_reps and time.perf_counter() - start + slowest > seconds:
            return out


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------
class Tracer:
    """In-memory span recorder; written out once, at the end of the run.

    Spans are recorded from the benchmark's side of each call into a
    layer (tracing inside ``src/`` is a later change). A disabled tracer
    hands out a no-op context, so set-up code is written once.
    """

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._bulk: list[tuple] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, rep: int = 0):
        if not self.enabled:
            yield None
            return
        record = {
            "id": len(self.spans), "name": name, "layer": layer,
            "workload": self.workload, "rep": rep,
            "start": time.perf_counter(), "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add_many(self, name, layer, starts, ends, parent=None) -> None:
        """Record concurrent spans measured elsewhere (open-loop requests).

        Kept as arrays until :meth:`write` — tens of thousands of dicts
        held live would lengthen every collector pause of the phases
        still to run. They are detail under ``parent``: overlapping one
        another, they take no part in :meth:`self_seconds`.
        """
        if self.enabled:
            self._bulk.append((name, layer, parent, starts, ends))

    def seconds(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.seconds(name))

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: each span's duration minus its children's."""
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            out.setdefault(s["layer"], 0.0)
            out[s["layer"]] += s["end"] - s["start"]
            if s["parent"] is not None:
                out[self.spans[s["parent"]]["layer"]] -= s["end"] - s["start"]
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            next_id = len(self.spans)
            for name, layer, parent, starts, ends in self._bulk:
                for start, end in zip(starts.tolist(), ends.tolist()):
                    fh.write(json.dumps({
                        "id": next_id, "name": name, "layer": layer, "workload": self.workload,
                        "rep": 0, "start": start, "end": end, "parent": parent,
                    }) + "\n")
                    next_id += 1
