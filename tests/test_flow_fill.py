"""The latency fills against the rule they implement.

Record ``k`` of ``count`` takes the first latency, in ascending order,
whose running weight reaches ``(k + 0.5) * total / count``. The
reference below finds that latency by bisecting the running weights and
records values one at a time; ``fill_reservoir`` walks the records and
``fill_reservoir_unit`` indexes unit-weight values directly. All must
leave a reservoir in the same state, down to the bits of the running sum.
"""

import random
from bisect import bisect_left
from itertools import accumulate

import pytest

from repro.flow.system import (
    MAX_RESERVOIR_SAMPLES,
    fill_reservoir,
    fill_reservoir_unit,
)
from repro.sim.metrics import LatencyReservoir


def reference_fill(reservoir, samples):
    """The fill rule, record by record, with ``record()`` per value."""
    if not samples:
        return
    ordered = sorted(samples)
    total_weight = sum(weight for _, weight in ordered)
    if total_weight <= 0:
        return
    count = min(MAX_RESERVOIR_SAMPLES, max(1, int(round(total_weight))))
    running = list(accumulate(weight for _, weight in ordered))
    last = len(ordered) - 1
    for k in range(count):
        target = (k + 0.5) * total_weight / count
        reservoir.record(ordered[bisect_left(running, target, 0, last)][0])


def _lognormal(rng, n):
    return [rng.lognormvariate(-11.0, 1.0) for _ in range(n)]


def _case(name):
    rng = random.Random(name)
    if name == "few samples, many records":
        return [(v, rng.uniform(50.0, 5000.0)) for v in _lognormal(rng, 40)]
    if name == "more samples than records, unit weights":
        return [(v, 1.0) for v in _lognormal(rng, 30_000)]
    if name == "latency ties, different weights":
        latencies = _lognormal(rng, 12)
        return [(rng.choice(latencies), rng.uniform(0.0, 900.0)) for _ in range(300)]
    if name == "one sample":
        return [(1e-5, 3.25)]
    if name == "total weight below one half":
        return [(v, 0.01) for v in _lognormal(rng, 30)]
    if name == "zero-weight entries":
        samples = [
            (v, rng.choice([0.0, 0.0, rng.uniform(0.0, 80.0)]))
            for v in _lognormal(rng, 500)
        ]
        return samples + [(0.0, 0.0), (1.0, 0.0)]
    if name == "fewer records than the cap":
        return [(v, rng.uniform(0.0, 2.0)) for v in _lognormal(rng, 3_000)]
    if name == "targets equal running weights":
        # weights of 0.5 put every running weight on a target exactly
        return [(v, 0.5) for v in _lognormal(rng, 64)]
    if name == "running weight one ulp below a target":
        total, first = 950407.5889336421, 847407.1664829586
        return [(1e-5, first), (2e-5, total - first)]
    if name == "running weight equal to a target":
        total, first = 909595.1541006559, 631327.2565824128
        return [(1e-5, first), (2e-5, total - first)]
    if name == "inexact weight sums":
        weights = [0.1, 1 / 3, 2.7, 1e-7]
        return [(v, rng.choice(weights)) for v in _lognormal(rng, 4_000)]
    raise KeyError(name)


CASES = [
    "few samples, many records",
    "more samples than records, unit weights",
    "latency ties, different weights",
    "one sample",
    "total weight below one half",
    "zero-weight entries",
    "fewer records than the cap",
    "targets equal running weights",
    "running weight one ulp below a target",
    "running weight equal to a target",
    "inexact weight sums",
]


def _state(reservoir):
    return reservoir.to_dict(), reservoir._sum.hex()


class TestFillMatchesTheRule:
    @pytest.mark.parametrize("case", CASES)
    def test_same_reservoir(self, case):
        samples = _case(case)
        expected, actual = LatencyReservoir(), LatencyReservoir()
        reference_fill(expected, samples)
        fill_reservoir(actual, samples)
        assert _state(actual) == _state(expected)
        assert actual.count >= 1

    def test_record_counts_cover_the_cases(self):
        counts = {}
        for case in CASES:
            reservoir = LatencyReservoir()
            fill_reservoir(reservoir, _case(case))
            counts[case] = reservoir.count
        assert counts["few samples, many records"] == MAX_RESERVOIR_SAMPLES
        assert counts["one sample"] == 3
        assert counts["total weight below one half"] == 1
        assert 1 < counts["fewer records than the cap"] < MAX_RESERVOIR_SAMPLES

    def test_appends_to_a_sampling_reservoir(self):
        # a reservoir that already holds values and overflows its capacity:
        # the running sum starts from its own and the sampling RNG runs
        samples = _case("inexact weight sums")
        expected = LatencyReservoir(max_samples=1_000, seed=7)
        actual = LatencyReservoir(max_samples=1_000, seed=7)
        for reservoir in (expected, actual):
            for value in _lognormal(random.Random(3), 300):
                reservoir.record(value)
        reference_fill(expected, samples)
        fill_reservoir(actual, samples)
        assert expected.count > 1_000
        assert _state(actual) == _state(expected)
        assert actual._rng.getstate() == expected._rng.getstate()

    def test_empty_and_weightless_fill_nothing(self):
        for samples in ([], [(1e-5, 0.0), (2e-5, 0.0)]):
            reservoir = LatencyReservoir()
            fill_reservoir(reservoir, samples)
            assert reservoir.count == 0


class TestUnitFill:
    """The fleet merge: unit-weight latencies without (value, 1.0) pairs,
    against the pair path the merge used to take."""

    def test_four_full_racks_match_the_pair_path(self):
        rng = random.Random(24)
        latencies = []
        for rack in range(4):
            reservoir = LatencyReservoir()
            values = _lognormal(rng, 2_000 + 900 * rack)
            fill_reservoir(reservoir, [(v, rng.uniform(0.0, 400.0)) for v in values])
            assert reservoir.count == MAX_RESERVOIR_SAMPLES
            latencies.extend(reservoir.to_dict()["samples"])
        expected, actual = LatencyReservoir(), LatencyReservoir()
        fill_reservoir(expected, [(value, 1.0) for value in latencies])
        fill_reservoir_unit(actual, list(latencies))
        assert _state(actual) == _state(expected)

    @pytest.mark.parametrize("n", [1, 2, 7, MAX_RESERVOIR_SAMPLES, 20_001, 33_333])
    def test_any_length_matches_the_pair_path(self, n):
        values = _lognormal(random.Random(n), n)
        expected, actual = LatencyReservoir(), LatencyReservoir()
        fill_reservoir(expected, [(value, 1.0) for value in values])
        fill_reservoir_unit(actual, values)
        assert _state(actual) == _state(expected)

    def test_empty_fills_nothing(self):
        reservoir = LatencyReservoir()
        fill_reservoir_unit(reservoir, [])
        assert reservoir.count == 0
