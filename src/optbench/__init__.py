"""optbench: optimizer update rules, desk-scale tasks, tuning, and benchmarking."""

from optbench.optimizers import (
    ADAPTIVE_KINDS,
    ConfigError,
    DimensionError,
    OptimizerConfig,
    OptimizerKind,
    OptimizerState,
    apply_step,
    default_config,
    init_state,
)

__version__ = "0.1.0"

__all__ = [
    "ADAPTIVE_KINDS",
    "ConfigError",
    "DimensionError",
    "OptimizerConfig",
    "OptimizerKind",
    "OptimizerState",
    "apply_step",
    "default_config",
    "init_state",
    "__version__",
]
