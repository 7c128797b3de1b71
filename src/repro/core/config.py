"""The run configs, re-exported from their leaf home :mod:`repro.config`."""

from repro.config import ShardingConfig, StreamingConfig, TrainConfig, WalkConfig

__all__ = ["ShardingConfig", "StreamingConfig", "TrainConfig", "WalkConfig"]
