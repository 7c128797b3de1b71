"""repro's own static-analysis layer: ``python -m repro lint [paths]``.

Generic linters see Python; they cannot see *this repo's* invariants —
that every stochastic component must route seeds through
:func:`repro.utils.rng.as_rng`, that a ``param_spec`` capability must
agree with the constructor it describes, or that the store file format
breaks if a ``frombuffer`` call picks its dtype from the platform. The
six AST rules of :data:`repro.analysis.rules.RULES` (RPR001-RPR006, see
their docstrings) check them in CI.

Every finding fails the lint unless its line carries
``# repro-lint: ignore[CODE,...]`` followed by the reason; a suppression
that silences nothing fails it too.
"""

from repro.analysis.core import AnalysisError, Finding, LintReport, LintRule, run_lint
from repro.analysis.project import ModuleInfo, ProjectIndex

__all__ = [
    "AnalysisError",
    "Finding",
    "LintReport",
    "LintRule",
    "ModuleInfo",
    "ProjectIndex",
    "run_lint",
]
