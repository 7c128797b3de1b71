"""The UniNet framework facade and the declarative experiment layer.

:class:`~repro.core.uninet.UniNet` ties the packages together into the
paper's two-step pipeline (walk generation -> word2vec) with the phase
timing decomposition (Ti / Tw / Tl / Tt) that Table VI reports.

:class:`~repro.core.spec.RunSpec` captures one experiment as data
(JSON-serialisable, registry-validated) and
:func:`~repro.core.runner.run` / :func:`~repro.core.runner.run_many`
execute it, returning structured :class:`~repro.core.runner.RunReport`
objects.
"""

from repro.config import StreamingConfig, TrainConfig, WalkConfig
from repro.core.pipeline import (
    TrainResult,
    WalkResult,
    generate_walk_result,
    train_pipeline,
)
from repro.core.runner import RunReport, expand_grid, expand_variations, run, run_many
from repro.core.spec import EvalSpec, GraphSpec, RunSpec
from repro.core.uninet import UniNet

__all__ = [
    "UniNet",
    "WalkConfig",
    "TrainConfig",
    "StreamingConfig",
    "train_pipeline",
    "generate_walk_result",
    "TrainResult",
    "WalkResult",
    "RunSpec",
    "GraphSpec",
    "EvalSpec",
    "RunReport",
    "run",
    "run_many",
    "expand_grid",
    "expand_variations",
]
