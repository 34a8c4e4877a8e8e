"""Fixture corpus for the phase-2 project rules (SNAP01/BAR01)
and the per-file DET04, each with a true-positive / clean pair, plus the
suppression interplay the index-backed rules promise (exemption at the
line the finding points at)."""

import textwrap

from repro.lint.engine import lint_source

STATE = "src/repro/serve/state.py"
CONTROL = "src/repro/fabric/control.py"
SIM = "src/repro/sim/example.py"


def rules_of(source, path, rule=None):
    findings = lint_source(textwrap.dedent(source), path)
    if rule is not None:
        findings = [f for f in findings if f.rule == rule]
    return findings


# ---------------------------------------------------------------------------
# SNAP01 — snapshot completeness
# ---------------------------------------------------------------------------

SNAP_CLEAN = """
class Station:
    def __init__(self):
        self.backlog = 0
        self.energy = 0.0

    def advance(self):
        self.backlog += 1
        self.energy = self.energy + 0.5


def _station_state(station: Station):
    return {"backlog": station.backlog, "energy": station.energy}


def _restore_station(station: Station, payload):
    station.backlog = payload["backlog"]
    station.energy = payload["energy"]
"""

# the restore half forgot `energy`: resume would diverge silently
SNAP_TP = SNAP_CLEAN.replace('    station.energy = payload["energy"]\n', "")


class TestSnapshotCompleteness:
    def test_clean_pair(self):
        assert rules_of(SNAP_CLEAN, STATE, "SNAP01") == []

    def test_missing_field_in_one_walker_fires(self):
        findings = rules_of(SNAP_TP, STATE, "SNAP01")
        assert len(findings) == 1
        f = findings[0]
        assert "Station.energy" in f.message
        assert "_restore_station" in f.message
        # per-walker coverage: the capture half still touching the field
        # must not mask the restore half's omission
        assert "_station_state" not in f.message

    def test_finding_points_at_field_definition(self):
        findings = rules_of(SNAP_TP, STATE, "SNAP01")
        lines = textwrap.dedent(SNAP_TP).splitlines()
        assert "self.energy = 0.0" in lines[findings[0].line - 1]

    def test_immutable_field_not_required(self):
        # `backlog`-only component: init-only fields need no capture
        src = """
        class Tag:
            def __init__(self):
                self.name = "x"


        def _tag_state(tag: Tag):
            return {}
        """
        assert rules_of(src, STATE, "SNAP01") == []

    def test_helper_functions_are_not_walkers(self):
        # `_collect_timers`-style helpers visit parts of a component and
        # must not shrink its required capture set
        src = """
        class Station:
            def __init__(self):
                self.backlog = 0

            def advance(self):
                self.backlog += 1


        def _station_state(station: Station):
            return {"backlog": station.backlog}


        def _collect_parts(station: Station):
            return station.backlog
        """
        assert rules_of(src, STATE, "SNAP01") == []

    def test_suppression_at_field_definition(self):
        exempted = SNAP_TP.replace(
            "        self.energy = 0.0",
            "        # lint: disable=SNAP01 carried by the timer walkers\n"
            "        self.energy = 0.0",
        )
        assert rules_of(exempted, STATE, "SNAP01") == []

    def test_outside_serve_state_no_walkers(self):
        # same source in a sim module defines no walkers at all
        assert rules_of(SNAP_TP, SIM, "SNAP01") == []


# ---------------------------------------------------------------------------
# BAR01 — barrier protocol for fleet-control state
# ---------------------------------------------------------------------------

BAR_CLEAN = """
from dataclasses import dataclass

from repro.runner.sharded import ShardedRunner


@dataclass(frozen=True)
class FleetControlConfig:
    epochs: int = 4


class FleetBalancer:
    def __init__(self):
        self.shares = {}

    def observe(self, metrics):
        self.shares.update(metrics)


def run_fleet(runner: ShardedRunner, balancer: FleetBalancer):
    for epoch in range(4):
        metrics = runner.step(epoch)
        _aggregate(balancer, metrics)
    return runner.finish()


def _aggregate(balancer: FleetBalancer, metrics):
    balancer.observe(metrics)
"""


class TestBarrierProtocol:
    def test_clean_pair(self):
        # the epoch loop and its aggregation helper are both hooks
        assert rules_of(BAR_CLEAN, CONTROL, "BAR01") == []

    def test_access_outside_hook_fires(self):
        src = BAR_CLEAN + textwrap.dedent(
            """
            def telemetry_peek(balancer: FleetBalancer):
                return dict(balancer.shares)
            """
        )
        findings = rules_of(src, CONTROL, "BAR01")
        assert len(findings) == 1
        f = findings[0]
        assert "FleetBalancer.shares" in f.message
        assert "telemetry_peek" in f.message

    def test_method_call_outside_hook_fires(self):
        src = BAR_CLEAN + textwrap.dedent(
            """
            def daemon_poll(balancer: FleetBalancer, metrics):
                balancer.observe(metrics)
            """
        )
        findings = rules_of(src, CONTROL, "BAR01")
        assert len(findings) >= 1
        assert all(f.rule == "BAR01" for f in findings)

    def test_frozen_config_exempt(self):
        src = BAR_CLEAN + textwrap.dedent(
            """
            def read_config(config: FleetControlConfig):
                return config.epochs
            """
        )
        assert rules_of(src, CONTROL, "BAR01") == []

    def test_state_class_manages_itself(self):
        # FleetBalancer.observe touches self.shares without being a hook
        assert rules_of(BAR_CLEAN, CONTROL, "BAR01") == []

    def test_suppression_at_access_site(self):
        src = BAR_CLEAN + textwrap.dedent(
            """
            def telemetry_peek(balancer: FleetBalancer):
                # lint: disable=BAR01 read-only snapshot for the obs plane
                return dict(balancer.shares)
            """
        )
        assert rules_of(src, CONTROL, "BAR01") == []


# ---------------------------------------------------------------------------
# DET04 — float accumulation over unordered iterables
# ---------------------------------------------------------------------------


class TestFloatAccumulation:
    def test_sum_over_values_view_fires(self):
        src = """
        def total(energy):
            return sum(energy.values())
        """
        findings = rules_of(src, SIM, "DET04")
        assert len(findings) == 1
        assert ".values()" in findings[0].message

    def test_sum_over_set_fires(self):
        src = """
        def total(readings):
            return sum({r for r in readings})
        """
        assert len(rules_of(src, SIM, "DET04")) == 1

    def test_genexp_over_set_fires(self):
        src = """
        def total(d):
            return sum(v * 2 for v in d.values())
        """
        assert len(rules_of(src, SIM, "DET04")) == 1

    def test_augassign_loop_over_set_fires(self):
        src = """
        def total(readings):
            acc = 0.0
            for r in set(readings):
                acc += r
            return acc
        """
        assert len(rules_of(src, SIM, "DET04")) == 1

    def test_sum_over_list_clean(self):
        src = """
        def total(readings):
            return sum(sorted(readings))
        """
        assert rules_of(src, SIM, "DET04") == []

    def test_wall_clock_zone_exempt(self):
        src = """
        def total(energy):
            return sum(energy.values())
        """
        assert rules_of(src, "src/repro/runner/pool.py", "DET04") == []

    def test_suppression(self):
        src = """
        def total(counts):
            # lint: disable=DET04 integer counters, addition is exact
            return sum(counts.values())
        """
        assert rules_of(src, SIM, "DET04") == []
