"""Unit tests for packets, checksums, and HLB-style rewriting."""

import pytest

from repro.core.hlb import TrafficDirector
from repro.net.addressing import AddressPlan, Endpoint
from repro.net.packet import (
    HEADER_BYTES,
    MTU_BYTES,
    Packet,
    incremental_checksum_update,
    internet_checksum,
)
from repro.net.traffic import ConstantRateGenerator, TrafficSpec
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

PLAN = AddressPlan.default()


def make_packet(**kw):
    kw.setdefault("src", PLAN.client)
    kw.setdefault("dst", PLAN.snic)
    return Packet(**kw)


class TestInternetChecksum:
    def test_known_zero(self):
        # all-zero words checksum to 0xFFFF
        assert internet_checksum([0, 0, 0]) == 0xFFFF

    def test_ones_complement_wraps(self):
        assert internet_checksum([0xFFFF, 0x0001]) == internet_checksum([0x0000, 0x0001])

    def test_verification_property(self):
        words = [0x4500, 0x0073, 0x0000, 0x4000, 0x4011]
        checksum = internet_checksum(words)
        # summing data + checksum must give the all-ones word
        total = sum(words) + checksum
        while total >> 16:
            total = (total & 0xFFFF) + (total >> 16)
        assert total == 0xFFFF

    def test_word_out_of_range(self):
        with pytest.raises(ValueError):
            internet_checksum([0x10000])


class TestIncrementalUpdate:
    def test_matches_recompute(self):
        words = [0x1234, 0xABCD, 0x0F0F]
        checksum = internet_checksum(words)
        words2 = [0x1234, 0x5678, 0x0F0F]
        updated = incremental_checksum_update(checksum, 0xABCD, 0x5678)
        assert updated == internet_checksum(words2)

    def test_identity_update(self):
        checksum = internet_checksum([0x1111, 0x2222])
        assert incremental_checksum_update(checksum, 0x1111, 0x1111) == checksum

    def test_out_of_range_checksum(self):
        with pytest.raises(ValueError):
            incremental_checksum_update(0x10000, 0, 0)


class TestPacket:
    def test_checksum_valid_at_creation(self):
        assert make_packet().checksum_ok()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_packet(size_bytes=HEADER_BYTES - 1)

    def test_multiplicity_must_be_positive(self):
        with pytest.raises(ValueError):
            make_packet(multiplicity=0)

    def test_payload_bytes(self):
        p = make_packet(size_bytes=MTU_BYTES)
        assert p.payload_bytes == MTU_BYTES - HEADER_BYTES

    def test_wire_bits_accounts_multiplicity(self):
        """A batched packet's wire bits, as the director's token bucket
        charges them: size x 8 x multiplicity."""
        director = TrafficDirector(Simulator(), PLAN, fwd_threshold_gbps=1.0)
        tokens = director._tokens_bits
        director.direct(make_packet(size_bytes=100, multiplicity=4))
        assert tokens - director._tokens_bits == 100 * 8 * 4

    def test_unique_ids(self):
        assert make_packet().packet_id != make_packet().packet_id

    def test_corrupting_field_invalidates_checksum(self):
        p = make_packet()
        p.dst = PLAN.host  # manual edit without checksum maintenance
        assert not p.checksum_ok()


class TestRewriting:
    def test_rewrite_destination_keeps_checksum_valid(self):
        p = make_packet()
        p.rewrite_destination(PLAN.host)
        assert p.dst == PLAN.host
        assert p.checksum_ok()

    def test_rewrite_source_keeps_checksum_valid(self):
        p = Packet(src=PLAN.host, dst=PLAN.client)
        p.rewrite_source(PLAN.snic)
        assert p.src == PLAN.snic
        assert p.checksum_ok()

    def test_double_rewrite_round_trip(self):
        p = make_packet()
        original_checksum = p.checksum
        p.rewrite_destination(PLAN.host)
        p.rewrite_destination(PLAN.snic)
        assert p.checksum == original_checksum
        assert p.checksum_ok()

    def test_rewrite_to_same_endpoint_is_stable(self):
        p = make_packet()
        checksum = p.checksum
        p.rewrite_destination(PLAN.snic)
        assert p.checksum == checksum


class TestResponse:
    def test_swaps_endpoints(self):
        p = make_packet()
        r = p.make_response()
        assert r.src == p.dst
        assert r.dst == p.src
        assert r.checksum_ok()

    def test_preserves_timing_and_flow(self):
        p = make_packet(flow_id=7)
        p.created_at = 1.5
        r = p.make_response()
        assert r.created_at == 1.5
        assert r.flow_id == 7
        assert r.multiplicity == p.multiplicity

    def test_custom_size(self):
        r = make_packet().make_response(size_bytes=64)
        assert r.size_bytes == 64


class TestLazyChecksum:
    def test_first_read_matches_full_recomputation(self):
        p = make_packet()
        assert p._checksum is None  # not computed at construction
        assert p.checksum == internet_checksum(p._header_words())
        assert p._checksum is not None  # cached after first read

    def test_explicit_checksum_stored_verbatim(self):
        p = make_packet(checksum=0x1234)
        assert p.checksum == 0x1234

    def test_rewrite_before_first_read_gives_incremental_result(self):
        """Rewriting an unobserved checksum then reading it must equal
        eager-compute-then-incremental-update."""
        eager = make_packet()
        eager.checksum  # force eager computation
        eager.rewrite_destination(PLAN.host)

        lazy = make_packet()
        lazy.rewrite_destination(PLAN.host)
        assert lazy.checksum == eager.checksum
        assert lazy.checksum_ok()

    def test_unread_checksum_detects_manual_corruption(self):
        p = make_packet()
        p.size_bytes += 2  # manual edit, never observed the checksum
        assert not p.checksum_ok()

    def test_setter_overrides_cache(self):
        p = make_packet()
        p.checksum = 0xBEEF
        assert p.checksum == 0xBEEF
        assert not p.checksum_ok()


class TestMeta:
    def test_meta_allocated_lazily(self):
        p = make_packet()
        assert p._meta is None
        p.meta["k"] = 1  # first access allocates
        assert p._meta == {"k": 1}

    def test_response_meta_never_aliases_request(self):
        """Regression: mutating a response's meta must never leak into the
        request (and vice versa), whether or not the request had entries."""
        p = make_packet()
        r = p.make_response()
        r.meta["resp"] = True
        assert "resp" not in p.meta

        q = make_packet()
        q.meta["origin"] = "req"
        s = q.make_response()
        assert s.meta == {"origin": "req"}  # entries are carried over
        s.meta["resp"] = True
        q.meta["more"] = 1
        assert "resp" not in q.meta
        assert "more" not in s.meta

    def test_empty_meta_not_copied_into_response(self):
        p = make_packet()
        p.meta  # allocate an (empty) dict on the request
        r = p.make_response()
        assert r._meta is None  # empty case allocates nothing


def _slots(packet):
    """Every slot but the fresh ``packet_id``, plus the checksum a reader
    sees (lazy slots compare as unset)."""
    fields = {
        name: getattr(packet, name)
        for name in Packet.__slots__
        if name != "packet_id"
    }
    fields["checksum"] = packet.checksum
    return fields


class TestPositionalConstruction:
    """``make_response`` and ``_make_packet`` call ``Packet`` positionally
    on the hot path; a swapped argument (``checksum`` for ``packet_id``,
    say) would not move any payload sha, so each slot is checked against
    a keyword-built reference."""

    def test_make_response_matches_keyword_reference(self):
        request = make_packet(
            size_bytes=900, payload=("get", 7), flow_id=11,
            created_at=1.25e-3, multiplicity=4, processed_by="snic",
        )
        request.meta["tag"] = ["x"]
        response = request.make_response()
        reference = Packet(
            src=request.dst, dst=request.src, size_bytes=request.size_bytes,
            payload=None, flow_id=request.flow_id,
            created_at=request.created_at, multiplicity=request.multiplicity,
            meta=dict(request.meta),
        )
        assert reference.packet_id == response.packet_id + 1
        assert response.packet_id > request.packet_id
        assert response._checksum is None  # lazy until first read
        assert _slots(response) == _slots(reference)
        assert (response.src, response.dst) == (PLAN.snic, PLAN.client)
        assert response.processed_by is None
        assert response.meta == {"tag": ["x"]}
        assert response.meta is not request.meta
        assert response.checksum_ok()

    def test_make_response_custom_size_payload_and_empty_meta(self):
        request = make_packet(size_bytes=1500, multiplicity=2)
        response = request.make_response(size_bytes=64, payload=b"ok")
        reference = Packet(
            src=request.dst, dst=request.src, size_bytes=64, payload=b"ok",
            flow_id=request.flow_id, created_at=request.created_at,
            multiplicity=2,
        )
        assert _slots(response) == _slots(reference)
        assert response._meta is None
        assert response.checksum_ok()

    def test_make_packet_matches_keyword_reference(self):
        spec = TrafficSpec(
            packet_bytes=512, batch=3, flow_count=16, flow_mode="random",
            payload_factory=lambda seq, flow: (seq, flow),
        )
        generator = ConstantRateGenerator(PLAN, spec, RngRegistry(5), 1.0)
        packet = generator._make_packet(2.5e-3)
        reference = Packet(
            src=PLAN.client, dst=PLAN.snic, size_bytes=512,
            payload=(1, packet.flow_id), flow_id=packet.flow_id,
            created_at=2.5e-3, multiplicity=3,
        )
        assert 0 <= packet.flow_id < 16
        assert reference.packet_id == packet.packet_id + 1
        assert packet._checksum is None and packet._meta is None
        assert _slots(packet) == _slots(reference)
        assert packet.checksum_ok()
        assert generator.generated_packets == 3
        assert generator.generated_bytes == 512 * 3
