"""The flow-mode event payload: an arrival train compressed to one event.

Packet mode schedules one simulator event per wire batch (≤32 packets);
a 100 Gbps run therefore costs ~100k events per simulated second *per
stage*.  Flow mode replaces each control interval's worth of arrivals
with a single :class:`FlowBatch` — count, packet size, and the
inter-arrival envelope (a constant-rate train over ``duration_s``) —
which each queueing stage expands analytically instead of event by
event.  This is the same aggregation step SimLB and HolDCSim take to
reach datacenter scale.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


class FlowBatch:
    """One arrival train: ``packets`` packets of ``packet_bytes`` each,
    arriving at a constant envelope rate over ``duration_s`` starting at
    ``start_s``.

    A plain ``__slots__`` value object, not a dataclass: every server
    builds up to three per interval, so construction stays one checked
    ``__init__`` with no per-field ``object.__setattr__``.  Treat a batch
    as immutable: :meth:`split` and :meth:`forwarded` return new ones, and
    :meth:`steer` may hand back the batch itself as its kept part."""

    __slots__ = ("start_s", "duration_s", "rate_gbps", "packet_bytes")

    def __init__(
        self,
        start_s: float,
        duration_s: float,
        rate_gbps: float,
        packet_bytes: int,
    ) -> None:
        if duration_s <= 0:
            raise ValueError(f"batch duration must be positive ({duration_s})")
        if rate_gbps < 0:
            raise ValueError(f"batch rate cannot be negative ({rate_gbps})")
        if packet_bytes <= 0:
            raise ValueError(f"packet size must be positive ({packet_bytes})")
        self.start_s = start_s
        self.duration_s = duration_s
        self.rate_gbps = rate_gbps
        self.packet_bytes = packet_bytes

    @property
    def packet_bits(self) -> int:
        return self.packet_bytes * 8

    @property
    def bits(self) -> float:
        return self.rate_gbps * 1e9 * self.duration_s

    @property
    def packets(self) -> float:
        """Fractional packet count — conservation is exact in aggregate;
        integer rounding happens once, at run finalisation."""
        return self.bits / self.packet_bits

    @property
    def pps(self) -> float:
        return self.rate_gbps * 1e9 / self.packet_bits

    def split(self, fraction: float) -> "FlowBatch":
        """Sub-train carrying ``fraction`` of this train's rate (a steering
        decision applied to the whole envelope, e.g. the HLB director)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"split fraction must be in [0, 1] (got {fraction})")
        return FlowBatch(
            self.start_s, self.duration_s, self.rate_gbps * fraction, self.packet_bytes
        )

    def steer(self, threshold_gbps: float) -> Tuple["FlowBatch", "FlowBatch"]:
        """``(kept, excess)``: a ``Fwd_Th`` rate split applied to the whole
        train, keeping min(rate, threshold) and passing on the rest."""
        rate = self.rate_gbps
        if rate <= threshold_gbps:
            # the whole train stays: ``split(1.0)`` would rebuild an equal
            # train (``r * 1.0 == r``) and ``split(0.0)`` an empty one
            return self, FlowBatch(
                self.start_s, self.duration_s, 0.0, self.packet_bytes
            )
        kept = threshold_gbps / rate
        return self.split(kept), self.split(1.0 - kept)

    def forwarded(self, served_packets: float) -> "FlowBatch":
        """The train a forward stage passes on: the packets it served out
        of this train, as a constant-rate train over the same interval."""
        rate_gbps = served_packets * self.packet_bits / self.duration_s / 1e9
        return FlowBatch(
            self.start_s, self.duration_s, rate_gbps, self.packet_bytes
        )


def batch_train(
    rates_gbps: Sequence[float],
    interval_s: float,
    packet_bytes: int,
    start_s: float = 0.0,
) -> List[FlowBatch]:
    """Expand a piecewise-constant rate schedule into one batch per
    interval (the flow-mode analogue of a generator's arrival plan)."""
    if interval_s <= 0:
        raise ValueError(f"interval must be positive ({interval_s})")
    return [
        FlowBatch(
            start_s=start_s + i * interval_s,
            duration_s=interval_s,
            rate_gbps=rate,
            packet_bytes=packet_bytes,
        )
        for i, rate in enumerate(rates_gbps)
    ]
