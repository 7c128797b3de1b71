"""Baseline files: freeze accepted findings so CI only blocks new debt.

A baseline is a committed JSON document mapping finding fingerprints —
``(code, path, message)`` — to occurrence counts. Line numbers are
deliberately absent from the fingerprint (see
:meth:`repro.analysis.core.Finding.key`): edits move code, and a
position-keyed baseline would churn on every commit. Counts handle the
same message firing several times in one file: a baseline entry with
``count: 2`` absorbs up to two live occurrences; a third is new. Budget
no live finding uses fails the run too: left in place, it would absorb
the next regression with the same fingerprint.

Workflow::

    python -m repro lint src/ --baseline .lint-baseline.json --update-baseline
    git add .lint-baseline.json          # accept current findings
    python -m repro lint src/ --baseline .lint-baseline.json
    # ... exits nonzero iff findings beyond the baseline appear, or
    # baselined findings are gone (re-run with --update-baseline)
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ReproError

BASELINE_VERSION = 1

BaselineKey = tuple[str, str, str]


def baseline_from_findings(findings) -> dict[BaselineKey, int]:
    """Collapse findings into the fingerprint -> count mapping."""
    out: dict[BaselineKey, int] = {}
    for finding in findings:
        key = finding.key()
        out[key] = out.get(key, 0) + 1
    return out


def split_baseline(findings, baseline: dict[BaselineKey, int]):
    """Partition ``findings`` into (new, baselined, unused) against the mapping.

    ``unused`` maps each fingerprint to the part of its count that no
    live finding used.
    """
    budget = dict(baseline)
    new, baselined = [], []
    for finding in findings:
        key = finding.key()
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            baselined.append(finding)
        else:
            new.append(finding)
    unused = {key: count for key, count in budget.items() if count > 0}
    return new, baselined, unused


def save_baseline(path, findings) -> None:
    """Write the findings' fingerprints to ``path`` as the baseline."""
    counts = baseline_from_findings(findings)
    doc = {
        "version": BASELINE_VERSION,
        "findings": [
            {"code": code, "path": rel, "message": message, "count": count}
            for (code, rel, message), count in sorted(counts.items())
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_baseline(path) -> dict[BaselineKey, int]:
    """Read a baseline written by :func:`save_baseline`."""
    from repro.analysis.core import AnalysisError

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise AnalysisError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise AnalysisError(f"baseline {path} is not valid JSON: {exc}") from exc
    try:
        if doc["version"] != BASELINE_VERSION:
            raise AnalysisError(
                f"baseline {path}: unsupported version {doc['version']!r}"
            )
        out: dict[BaselineKey, int] = {}
        for item in doc["findings"]:
            key = (str(item["code"]), str(item["path"]), str(item["message"]))
            out[key] = out.get(key, 0) + int(item.get("count", 1))
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise AnalysisError(f"baseline {path} is malformed: {exc}") from exc
    return out
