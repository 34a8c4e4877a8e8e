"""Shared configuration for the benchmark harness.

Each ``test_bench_*`` module regenerates one of the paper's tables or
figures at a reduced simulated duration (the shapes converge well before
the paper's 10-minute traces) and prints the reproduced rows, so running

    pytest benchmarks/ --benchmark-only

emits the full evaluation alongside the timing data.
"""

import pytest

from repro.exp.server import RunConfig

#: simulated seconds per run inside benchmarks — enough for the paper's
#: qualitative shapes while keeping the whole suite in minutes
BENCH_DURATION_S = 0.1


@pytest.fixture(scope="session")
def bench_config() -> RunConfig:
    return RunConfig(duration_s=BENCH_DURATION_S, seed=2024)


@pytest.fixture(scope="session")
def trace_config() -> RunConfig:
    # trace runs need a few burst intervals to be representative
    return RunConfig(duration_s=0.3, seed=2024)
