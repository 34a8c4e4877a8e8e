"""Front-tier dispatch policies.

An L4 balancer picks one back-end server per packet.  Policies operate
on :class:`ServerSlot` views — index, addressing, an occupancy probe and
a routable flag — rather than on full systems, so the same policy code
runs inside the simulated front tier and standalone in the rack-dispatch
benchmark kernel.

The four policies span the design space the rack experiment compares:

* ``flowhash`` — ECMP-style static hashing of the flow id; no feedback,
  spreads load evenly across awake servers (flows stick to a server as
  long as the awake set is stable);
* ``roundrobin`` — per-packet rotation; the even-spread upper bound;
* ``p2c`` — power-of-two-choices on Rx-queue occupancy: two random
  candidates, forward to the emptier one (the classic load-aware
  balancer, using exactly the ``rte_eth_rx_queue_count`` observable LBP
  already polls);
* ``packing`` — concentrate load on the lowest-indexed awake servers and
  spill to the next only when the target's queues pass a watermark; this
  is the policy that starves whole servers so the autoscaler can park
  them (server-level sleep, HolDCSim-style).
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, List, Optional, Sequence

from repro.net.addressing import AddressPlan
from repro.net.packet import Packet
from repro.sim.rng import RngRegistry

#: policy names accepted by :func:`make_policy` (and the CLI)
POLICIES = ("flowhash", "roundrobin", "p2c", "packing")

#: packing spill watermark: 2x LBP's high watermark — spill to the next
#: server once the preferred one queues deeper than Algorithm 1 would
#: ever let its own SNIC run
PACKING_SPILL_PACKETS = 32


def _zero_occupancy() -> int:
    return 0


class ServerSlot:
    """The front tier's view of one back-end server."""

    __slots__ = (
        "index",
        "plan",
        "occupancy",
        "routable",
        "dispatched_packets",
        "dispatched_bits",
        "responses",
    )

    def __init__(
        self,
        index: int,
        plan: AddressPlan,
        occupancy: Optional[Callable[[], int]] = None,
    ) -> None:
        self.index = index
        self.plan = plan
        #: max Rx-queue backlog probe (``rte_eth_rx_queue_count``-class)
        self.occupancy = occupancy if occupancy is not None else _zero_occupancy
        #: cleared while the server drains or sleeps
        self.routable = True
        self.dispatched_packets = 0
        self.dispatched_bits = 0
        self.responses = 0


def member_slots(
    plans: Sequence[AddressPlan], members: Sequence[Any]
) -> List[ServerSlot]:
    """One slot per rack member.  Each slot's occupancy probe reads the
    deepest Rx queue over the member's engines, so packet-mode engines
    and flow-mode stations feed the front tier and autoscaler alike."""
    slots = []
    for index, (plan, member) in enumerate(zip(plans, members)):
        engines = member.engines()

        def occupancy(engines: List[Any] = engines) -> int:
            return max(engine.rx_queue_occupancy() for engine in engines)

        slots.append(ServerSlot(index, plan, occupancy))
    return slots


class DispatchPolicy:
    """Pick one slot from the non-empty ``awake`` sequence."""

    name = "abstract"

    def select(self, awake: Sequence[ServerSlot], packet: Packet) -> ServerSlot:
        raise NotImplementedError


class FlowHashPolicy(DispatchPolicy):
    name = "flowhash"

    def select(self, awake: Sequence[ServerSlot], packet: Packet) -> ServerSlot:
        # crc32, not hash(): str/int hashing is randomized per interpreter
        # invocation, which would break cross-invocation reproducibility
        digest = zlib.crc32(packet.flow_id.to_bytes(8, "big"))
        return awake[digest % len(awake)]


class RoundRobinPolicy(DispatchPolicy):
    name = "roundrobin"

    def __init__(self) -> None:
        self._counter = 0

    def select(self, awake: Sequence[ServerSlot], packet: Packet) -> ServerSlot:
        slot = awake[self._counter % len(awake)]
        self._counter += 1
        return slot


class PowerOfTwoPolicy(DispatchPolicy):
    """Two random candidates, forward to the lower Rx-queue occupancy."""

    name = "p2c"

    def __init__(self, rng: RngRegistry) -> None:
        self._rng = rng.stream("fronttier-p2c")

    def select(self, awake: Sequence[ServerSlot], packet: Packet) -> ServerSlot:
        n = len(awake)
        if n == 1:
            return awake[0]
        randrange = self._rng.randrange
        first = awake[randrange(n)]
        second = awake[randrange(n)]
        if first is second:
            return first
        occ_first = first.occupancy()
        occ_second = second.occupancy()
        if occ_first < occ_second:
            return first
        if occ_second < occ_first:
            return second
        return first if first.index <= second.index else second


class PackingPolicy(DispatchPolicy):
    """Fill the lowest-indexed awake server; spill past the watermark."""

    name = "packing"

    def __init__(self, spill_packets: int = PACKING_SPILL_PACKETS) -> None:
        if spill_packets < 1:
            raise ValueError("spill watermark must be >= 1 packet")
        self.spill_packets = spill_packets

    def select(self, awake: Sequence[ServerSlot], packet: Packet) -> ServerSlot:
        best = awake[0]
        best_occ = best.occupancy()
        if best_occ < self.spill_packets:
            return best
        for slot in awake[1:]:
            occ = slot.occupancy()
            if occ < self.spill_packets:
                return slot
            if occ < best_occ:
                best, best_occ = slot, occ
        # everyone is past the watermark: least loaded wins
        return best


def make_policy(name: str, rng: RngRegistry) -> DispatchPolicy:
    """Instantiate a dispatch policy by name."""
    if name == "flowhash":
        return FlowHashPolicy()
    if name == "roundrobin":
        return RoundRobinPolicy()
    if name == "p2c":
        return PowerOfTwoPolicy(rng)
    if name == "packing":
        return PackingPolicy()
    raise ValueError(f"unknown dispatch policy {name!r}; known: {POLICIES}")
