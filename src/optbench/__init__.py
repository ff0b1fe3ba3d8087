"""optbench: optimizer update rules, desk-scale tasks, tuning, and benchmarking."""

__version__ = "0.1.0"
