"""Tests for the §VIII discussion experiments and the validation sweep."""

import pytest

from repro.exp.discussion import run_complementary, run_dvfs
from repro.exp.server import RunConfig
from repro.exp.validation import _verdict, run as run_validation

FAST = RunConfig(duration_s=0.05)

#: the nine headline claims ``validation`` checks
HEADLINE_CLAIMS = (
    "NAT SNIC SLO throughput (Gbps)",
    "NAT SNIC/host EE at SLO",
    "SNIC NAT max throughput (Gbps)",
    "HAL NAT throughput at 80 Gbps",
    "HAL p99 / SNIC p99 at 80 Gbps (lower is better)",
    "HAL power / host power at 80 Gbps",
    "system power, SNIC-only at low rate (W)",
    "system power, host-only floor (W)",
    "HAL/host EE on hadoop trace (NAT)",
)


class TestDvfsExperiment:
    def test_savings_all_under_two_percent(self):
        result = run_dvfs(FAST)
        assert result.rows
        for row in result.rows:
            assert row["saved_fraction"] <= 0.02

    def test_savings_grow_with_utilization_until_nominal(self):
        result = run_dvfs(FAST)
        nat = {
            row["utilization"]: row["saved_w"]
            for row in result.rows
            if row["function"] == "nat"
        }
        assert nat[0.3] >= nat[0.1]


class TestComplementaryExperiment:
    def test_accelerator_saturates_below_line_rate(self):
        result = run_complementary(FAST)
        by_rate = {row["offered_gbps"]: row for row in result.rows}
        assert by_rate[100.0]["tp_gbps"] < 50.0
        assert by_rate[100.0]["drop_rate"] > 0.4
        assert by_rate[20.0]["drop_rate"] < 0.01

    def test_p99_degrades_with_rate(self):
        result = run_complementary(FAST)
        p99 = [row["p99_us"] for row in result.rows]
        assert p99[-1] > p99[0] * 3


class TestValidationSweep:
    def test_verdict_logic(self):
        assert _verdict(1.0, 1.0, 0.1) == "OK"
        assert _verdict(1.2, 1.0, 0.1) == "OFF"
        assert _verdict(5.0, 0.0, 0.1) == "n/a"

    def test_headline_claims_mostly_ok(self):
        result = run_validation(RunConfig(duration_s=0.1))
        verdicts = [row["verdict"] for row in result.rows]
        assert verdicts.count("OK") >= len(verdicts) - 1

    def test_each_headline_claim_ok(self):
        """Every claim, by name, reads OK: a claim that drifts out of its
        tolerance fails here even while the slack above absorbs it."""
        result = run_validation(RunConfig(duration_s=0.1))
        verdicts = {row["claim"]: row["verdict"] for row in result.rows}
        assert sorted(verdicts) == sorted(HEADLINE_CLAIMS)
        assert {claim: v for claim, v in verdicts.items() if v != "OK"} == {}

    def test_rows_cover_key_claims(self):
        result = run_validation(RunConfig(duration_s=0.05))
        claims = " ".join(str(row["claim"]) for row in result.rows)
        assert "SLO" in claims
        assert "80 Gbps" in claims
        assert "power" in claims
