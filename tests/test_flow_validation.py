"""Tests for the flow-vs-packet validation harness.

The core property: a deliberately mis-calibrated flow result makes the
gate FAIL and the report names the offending metrics with their errors
and tolerances — the harness is falsifiable, not a rubber stamp.
"""

import pytest

from repro.exp.flow_validation import (
    FULL_CELLS,
    GRIDS,
    SMOKE_CELLS,
    Cell,
    check_event_headroom,
    run_validation,
)
from repro.exp.server import RunConfig
from repro.flow.validate import (
    ABSOLUTE_FLOORS,
    DEFAULT_TOLERANCES,
    MetricCheck,
    ValidationReport,
    compare_cell,
    energy_per_request_uj,
    observables,
)
from repro.sim.metrics import RunMetrics

FAST = RunConfig(duration_s=0.02)


def reference_metrics(
    throughput_gbps=40.0,
    p50_us=30.0,
    p99_us=80.0,
    power_w=60.0,
    duration_s=0.05,
):
    """A synthetic packet-mode result with known observables."""
    metrics = RunMetrics(duration_s=duration_s)
    metrics.delivered_bytes = int(throughput_gbps * 1e9 * duration_s / 8)
    metrics.delivered_packets = 100_000
    metrics.average_power_w = power_w
    for _ in range(99):
        metrics.latency.record(p50_us * 1e-6)
    for _ in range(2):
        metrics.latency.record(p99_us * 1e-6)
    return metrics


class TestObservables:
    def test_observable_extraction(self):
        metrics = reference_metrics()
        obs = observables(metrics)
        assert obs["throughput_gbps"] == pytest.approx(40.0)
        assert obs["p50_latency_us"] == pytest.approx(30.0)
        assert obs["p99_latency_us"] == pytest.approx(80.0)
        assert obs["energy_per_request_uj"] == pytest.approx(
            60.0 * 0.05 / 100_000 * 1e6
        )

    def test_energy_zero_when_nothing_delivered(self):
        assert energy_per_request_uj(RunMetrics()) == 0.0


class TestMetricCheck:
    def test_within_tolerance_passes(self):
        check = MetricCheck("throughput_gbps", 40.0, 42.0, tolerance=0.10)
        assert check.relative_error == pytest.approx(0.05)
        assert check.passed

    def test_beyond_tolerance_fails(self):
        check = MetricCheck("throughput_gbps", 40.0, 50.0, tolerance=0.10)
        assert not check.passed
        assert "FAIL" in check.line()

    def test_absolute_floor_forgives_tiny_values(self):
        # 1.0µs vs 2.5µs is a 150% relative error but under the 2µs floor
        floor = ABSOLUTE_FLOORS["p50_latency_us"]
        check = MetricCheck("p50_latency_us", 1.0, 1.0 + floor, tolerance=0.35)
        assert check.relative_error > 0.35
        assert check.passed


class TestMisCalibratedFixture:
    """Satellite: a broken flow model must FAIL loudly, per metric."""

    def test_miscalibrated_flow_fails_with_tolerance_report(self):
        packet = reference_metrics()
        # a flow model whose latency calibration drifted 3x and whose
        # power model lost a component
        broken = reference_metrics(p50_us=90.0, p99_us=240.0, power_w=30.0)
        comparison = compare_cell("fixture/miscalibrated", packet, broken)
        assert not comparison.passed

        failed = {c.metric for c in comparison.checks if not c.passed}
        assert failed == {
            "p50_latency_us",
            "p99_latency_us",
            "energy_per_request_uj",
        }
        # throughput was untouched and must still pass
        passed = {c.metric for c in comparison.checks if c.passed}
        assert "throughput_gbps" in passed

        report = ValidationReport(grid="fixture")
        report.cells.append(comparison)
        assert not report.passed
        assert report.failed_cells == [comparison]
        text = report.to_text()
        assert "FAIL fixture/miscalibrated" in text
        # the report names each failing metric with error and tolerance
        assert "FAIL p50_latency_us" in text
        assert "err= 200.0%" in text
        assert "tol=35%" in text

    def test_calibrated_fixture_passes(self):
        packet = reference_metrics()
        close = reference_metrics(p50_us=33.0, p99_us=88.0, power_w=58.0)
        comparison = compare_cell("fixture/calibrated", packet, close)
        assert comparison.passed
        assert "PASS fixture/calibrated" in "\n".join(comparison.lines())


class TestGrid:
    def test_grids_are_declared(self):
        assert set(GRIDS) == {"smoke", "full"}
        assert len(FULL_CELLS) > len(SMOKE_CELLS)
        for cells in GRIDS.values():
            names = [cell.name for cell in cells]
            assert len(names) == len(set(names))  # no duplicate cells

    def test_cell_builds_specs(self):
        at_rate = Cell("x", "at_rate", "snic", "nat", 80.0).spec(FAST)
        assert at_rate.op == "at_rate" and at_rate.rate_gbps == 80.0
        trace = Cell("x", "trace", "hal", "nat", trace="web").spec(FAST)
        assert trace.op == "trace" and trace.trace == "web"
        rack = Cell(
            "x", "rack", "hal", "nat", trace="cache",
            params=(("servers", 2),),
        ).spec(FAST)
        assert rack.op == "rack" and rack.params == (("servers", 2),)

    def test_unknown_grid_rejected(self):
        with pytest.raises(ValueError):
            run_validation("galactic")

    def test_tolerances_cover_all_observables(self):
        assert set(DEFAULT_TOLERANCES) == set(observables(RunMetrics()))
        assert set(ABSOLUTE_FLOORS) == set(DEFAULT_TOLERANCES)


class TestEventHeadroom:
    def test_headroom_note_and_pass(self):
        report = ValidationReport("x")
        assert check_event_headroom(report)
        assert report.notes == ["event headroom: 41.0x (floor 20x)"]
