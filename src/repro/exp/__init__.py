"""Experiment harness: one module per paper figure/table."""

from repro.exp.report import ExperimentResult, format_cell, ratio_note
from repro.exp.server import (
    DEFAULT_CONFIG,
    RunConfig,
    build_system,
    measure_base_p99_us,
    run_at_rate,
    run_trace,
)
from repro.exp.sweeps import (
    SweepPoint,
    find_max_throughput,
    find_slo_throughput,
    geometric_rates,
    rate_sweep,
)

__all__ = [
    "DEFAULT_CONFIG",
    "ExperimentResult",
    "RunConfig",
    "SweepPoint",
    "build_system",
    "find_max_throughput",
    "find_slo_throughput",
    "format_cell",
    "geometric_rates",
    "measure_base_p99_us",
    "rate_sweep",
    "ratio_note",
    "run_at_rate",
    "run_trace",
]
