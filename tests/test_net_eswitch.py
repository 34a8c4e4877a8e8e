"""Unit tests for the embedded switch (OvS data plane model)."""

import pytest

from repro.net.addressing import AddressPlan
from repro.net.eswitch import EmbeddedSwitch, SwitchError
from repro.net.packet import Packet

PLAN = AddressPlan.default()


def make_switch():
    sw = EmbeddedSwitch()
    received = {"snic": [], "host": []}
    sw.attach_port("snic", received["snic"].append)
    sw.attach_port("host", received["host"].append)
    sw.add_rule(PLAN.snic, "snic")
    sw.add_rule(PLAN.host, "host")
    return sw, received


def test_forwards_by_destination():
    sw, received = make_switch()
    to_snic = Packet(src=PLAN.client, dst=PLAN.snic)
    to_host = Packet(src=PLAN.client, dst=PLAN.host)
    assert sw.forward(to_snic)
    assert sw.forward(to_host)
    assert received["snic"] == [to_snic]
    assert received["host"] == [to_host]


def test_hal_redirection_path():
    """A director-rewritten packet must land on the host port."""
    sw, received = make_switch()
    p = Packet(src=PLAN.client, dst=PLAN.snic)
    p.rewrite_destination(PLAN.host)
    sw.forward(p)
    assert received["host"] == [p]
    assert received["snic"] == []


def test_unmatched_without_default_drops():
    sw = EmbeddedSwitch()
    sw.attach_port("snic", lambda p: None)
    p = Packet(src=PLAN.client, dst=PLAN.snic, multiplicity=3)
    assert not sw.forward(p)
    assert sw.unmatched_drops == 3


def test_default_port():
    sw = EmbeddedSwitch()
    got = []
    sw.attach_port("snic", got.append)
    sw.set_default("snic")
    p = Packet(src=PLAN.client, dst=PLAN.host)
    assert sw.forward(p)
    assert got == [p]


def test_lookup_without_forwarding():
    """A destination with no rule and no default reaches no port."""
    sw, received = make_switch()
    assert not sw.forward(Packet(src=PLAN.client, dst=PLAN.client, multiplicity=2))
    assert received == {"snic": [], "host": []}
    assert sw.unmatched_drops == 2
    assert sw.stats["snic"].packets == sw.stats["host"].packets == 0


def test_port_stats_count_multiplicity():
    sw, _ = make_switch()
    sw.forward(Packet(src=PLAN.client, dst=PLAN.snic, size_bytes=100, multiplicity=5))
    assert sw.stats["snic"].packets == 5
    assert sw.stats["snic"].bytes == 500


def test_remove_rule():
    sw, _ = make_switch()
    sw.remove_rule(PLAN.snic)
    assert sw.rule_count() == 1
    assert not sw.forward(Packet(src=PLAN.client, dst=PLAN.snic))


def test_duplicate_port_rejected():
    sw, _ = make_switch()
    with pytest.raises(SwitchError):
        sw.attach_port("snic", lambda p: None)


def test_rule_to_unattached_port_rejected():
    sw = EmbeddedSwitch()
    with pytest.raises(SwitchError):
        sw.add_rule(PLAN.snic, "ghost")
    with pytest.raises(SwitchError):
        sw.set_default("ghost")


class TestMultiServerWiring:
    """Front-tier-style port tables: one port per back-end server."""

    def _rack_switch(self, servers=3):
        from repro.net.addressing import RackAddressPlan

        rack = RackAddressPlan.build(servers)
        sw = EmbeddedSwitch(name="front-tier")
        received = {i: [] for i in range(servers)}
        for i, plan in enumerate(rack.servers):
            sw.attach_port(f"s{i}", received[i].append)
            sw.add_rule(plan.snic, f"s{i}")
        return rack, sw, received

    def test_rewrite_routes_to_exactly_one_server(self):
        rack, sw, received = self._rack_switch()
        for target in range(3):
            p = Packet(src=rack.front.client, dst=rack.front.snic)
            p.rewrite_destination(rack.servers[target].snic)
            assert sw.forward(p)
        for i, packets in received.items():
            assert len(packets) == 1, f"server {i} saw {len(packets)} packets"
            assert packets[0].dst == rack.servers[i].snic

    def test_no_cross_server_aliasing(self):
        """A packet rewritten for s1 must never land on any other port."""
        rack, sw, received = self._rack_switch()
        p = Packet(src=rack.front.client, dst=rack.front.snic)
        p.rewrite_destination(rack.servers[1].snic)
        sw.forward(p)
        assert received[1] == [p]
        assert received[0] == [] and received[2] == []

    def test_vip_rewrite_checksum_correct(self):
        """The incremental VIP rewrite must equal a from-scratch checksum."""
        rack, sw, received = self._rack_switch()
        p = Packet(src=rack.front.client, dst=rack.front.snic)
        original = p.checksum  # force + memoize before the rewrite
        p.rewrite_destination(rack.servers[2].snic)
        incremental = p.checksum
        fresh = Packet(src=rack.front.client, dst=rack.servers[2].snic).checksum
        assert incremental == fresh
        assert incremental != original

    def test_response_masquerade_checksum_correct(self):
        rack, _, _ = self._rack_switch()
        response = Packet(src=rack.servers[0].snic, dst=rack.front.client)
        response.checksum
        response.rewrite_source(rack.front.snic)
        fresh = Packet(src=rack.front.snic, dst=rack.front.client).checksum
        assert response.checksum == fresh
