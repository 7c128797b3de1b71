"""The run configs, re-exported from their leaf home :mod:`repro.config`."""

from repro.config import StreamingConfig, TrainConfig, WalkConfig

__all__ = ["StreamingConfig", "TrainConfig", "WalkConfig"]
