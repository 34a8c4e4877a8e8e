"""Packets with real header fields and a real internet checksum.

The traffic director and merger in the paper's HLB rewrite destination or
source addresses and "update the checksum value of each modified packet"
(§V-A). We model the packet header with the fields that rewriting
touches, compute a genuine RFC 1071 16-bit ones-complement checksum over
them, and perform the rewrite-time update incrementally per RFC 1624 —
exactly what a hardware datapath would do, and verifiable in tests.

Hot-path design
---------------
Packets are the most-allocated object in the simulation, so the class is
slotted and does as little work as possible at construction time:

* the header checksum is **lazy** — computed (exactly, RFC 1071) on
  first read and cached; packets whose checksum is never observed never
  pay for it;
* header words come from the per-:class:`Endpoint` caches in
  :mod:`repro.net.addressing` instead of being re-sliced per packet;
* HLB rewrites apply a **memoized per-(old, new) endpoint-pair delta**
  (:func:`rewrite_delta`) in one folded RFC 1624 update — bit-identical
  to the word-by-word chain of :func:`incremental_checksum_update`,
  which property tests assert;
* ``meta`` is allocated on first access and only copied into responses
  when non-empty, so the common no-metadata packet never aliases or
  copies a dict.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.net.addressing import Endpoint

#: Ethernet + IPv4 + UDP header bytes, used to account wire size.
HEADER_BYTES = 14 + 20 + 8
#: Maximum Transmission Unit used throughout the paper's evaluation.
MTU_BYTES = 1500
#: The small-packet size used in §III-A line-rate experiments.
SMALL_PACKET_BYTES = 64

_packet_ids = itertools.count(1)


def internet_checksum(words: Iterable[int]) -> int:
    """RFC 1071 ones-complement sum over 16-bit words."""
    total = 0
    for word in words:
        if not 0 <= word <= 0xFFFF:
            raise ValueError(f"checksum word out of range: {word}")
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def incremental_checksum_update(old_checksum: int, old_word: int, new_word: int) -> int:
    """RFC 1624 (eqn. 3) incremental checksum update for one 16-bit word.

    HC' = ~(~HC + ~m + m') — this is what the traffic director/merger
    hardware performs when rewriting an address field.

    Ones-complement arithmetic has two representations of zero (0x0000
    and 0xFFFF); for the degenerate all-zero-data case the incremental
    result can differ from a full recomputation by exactly that ±0
    ambiguity (RFC 1624 §3). Real packet headers always contain non-zero
    words (the length field at minimum), so the ambiguity never arises on
    the HLB datapath.
    """
    if not 0 <= old_checksum <= 0xFFFF:
        raise ValueError(f"checksum out of range: {old_checksum}")
    total = (~old_checksum & 0xFFFF) + (~old_word & 0xFFFF) + (new_word & 0xFFFF)
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


#: memoized folded deltas for endpoint rewrites, keyed by (old, new).
#: A run touches a handful of endpoint pairs (client/snic/host), so the
#: steady-state HLB rewrite is one dict hit + one folded add.
_REWRITE_DELTAS: Dict[Tuple[Endpoint, Endpoint], int] = {}


def rewrite_delta(old: Endpoint, new: Endpoint) -> int:
    """Folded ones-complement delta ``Σ (~old_word + new_word)`` for
    rewriting ``old`` → ``new`` in a packet header (memoized per pair)."""
    key = (old, new)
    delta = _REWRITE_DELTAS.get(key)
    if delta is None:
        total = 0
        for old_word, new_word in zip(old.header_words(), new.header_words()):
            total += (~old_word & 0xFFFF) + new_word
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        _REWRITE_DELTAS[key] = delta = total
    return delta


def apply_checksum_delta(checksum: int, delta: int) -> int:
    """Apply a folded :func:`rewrite_delta` to a checksum — the batched
    form of RFC 1624's ``HC' = ~(~HC + Σ(~m + m'))``. Ones-complement
    addition is associative, so this is bit-identical to chaining
    :func:`incremental_checksum_update` word by word (property-tested)."""
    total = (~checksum & 0xFFFF) + delta
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class Packet:
    """A network packet as seen by the HLB datapath and the NFs.

    ``size_bytes`` is the full wire size (headers + payload). ``payload``
    is an application-level request object interpreted by the network
    functions (bytes for REM/compression, structured op tuples for
    KVS/NAT/…); it is carried by reference, as a NIC DMA would.
    """

    __slots__ = (
        "src",
        "dst",
        "size_bytes",
        "payload",
        "flow_id",
        "created_at",
        "multiplicity",
        "processed_by",
        "_checksum",
        "_ck_src",
        "_ck_dst",
        "_ck_size",
        "_meta",
        "packet_id",
    )

    def __init__(
        self,
        src: Endpoint,
        dst: Endpoint,
        size_bytes: int = MTU_BYTES,
        payload: Any = None,
        flow_id: int = 0,
        checksum: int = -1,
        packet_id: Optional[int] = None,
        created_at: float = 0.0,
        multiplicity: int = 1,
        processed_by: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if size_bytes < HEADER_BYTES:
            raise ValueError(
                f"packet smaller than headers ({size_bytes} < {HEADER_BYTES})"
            )
        if multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.payload = payload
        self.flow_id = flow_id
        self.created_at = created_at
        self.multiplicity = multiplicity
        self.processed_by = processed_by
        # -1 (the historical "unset" sentinel) → lazy; anything else is an
        # explicit caller-provided checksum, stored verbatim. The lazy
        # checksum is computed over the header the packet was *created*
        # with (plus any maintained rewrites) — the _ck_* basis — so a
        # field edited without checksum maintenance is still detected by
        # checksum_ok(), exactly as with an eagerly computed checksum.
        self._checksum = checksum if checksum >= 0 else None
        self._ck_src = src
        self._ck_dst = dst
        self._ck_size = size_bytes
        self._meta = meta
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id

    def __repr__(self) -> str:
        return (
            f"Packet(id={self.packet_id}, {self.src}->{self.dst}, "
            f"{self.size_bytes}B x{self.multiplicity}, flow={self.flow_id})"
        )

    # -- lazy fields ----------------------------------------------------
    @property
    def checksum(self) -> int:
        """RFC 1071 header checksum, computed on first read and kept
        exact across rewrites via RFC 1624 incremental updates."""
        value = self._checksum
        if value is None:
            total = (
                self._ck_src.header_word_sum()
                + self._ck_dst.header_word_sum()
                + (self._ck_size & 0xFFFF)
            )
            total = (total & 0xFFFF) + (total >> 16)
            total = (total & 0xFFFF) + (total >> 16)
            value = (~total) & 0xFFFF
            self._checksum = value
        return value

    @checksum.setter
    def checksum(self, value: int) -> None:
        self._checksum = value

    @property
    def meta(self) -> Dict[str, Any]:
        """Experiment bookkeeping dict, allocated on first access."""
        value = self._meta
        if value is None:
            value = {}
            self._meta = value
        return value

    @meta.setter
    def meta(self, value: Dict[str, Any]) -> None:
        self._meta = value

    # -- checksum -----------------------------------------------------
    def _header_words(self) -> List[int]:
        words: List[int] = []
        words.extend(self.src.header_words())
        words.extend(self.dst.header_words())
        words.append(self.size_bytes & 0xFFFF)
        return words

    def compute_checksum(self) -> int:
        # fold the cached per-endpoint partial sums; equivalent to
        # internet_checksum(self._header_words()) (property-tested) but
        # without rebuilding the word list per packet
        total = (
            self.src.header_word_sum()
            + self.dst.header_word_sum()
            + (self.size_bytes & 0xFFFF)
        )
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        return (~total) & 0xFFFF

    def checksum_ok(self) -> bool:
        return self.checksum == self.compute_checksum()

    # -- rewriting (the HLB operations) --------------------------------
    def _rewrite(self, old: Endpoint, new: Endpoint, which: str) -> None:
        # if the checksum was never observed there is nothing to update:
        # advancing the lazy basis and recomputing on first read gives the
        # incremental result exactly (headers carry a non-zero length
        # word, so the RFC 1624 ±0 ambiguity cannot arise)
        checksum = self._checksum
        if checksum is not None:
            self._checksum = apply_checksum_delta(checksum, rewrite_delta(old, new))
        if which == "dst":
            self.dst = self._ck_dst = new
        else:
            self.src = self._ck_src = new

    def rewrite_destination(self, new_dst: Endpoint) -> None:
        """Traffic-director rewrite: redirect to the hidden host identity."""
        self._rewrite(self.dst, new_dst, "dst")

    def rewrite_source(self, new_src: Endpoint) -> None:
        """Traffic-merger rewrite: masquerade host responses as the SNIC."""
        self._rewrite(self.src, new_src, "src")

    # -- conveniences ---------------------------------------------------
    @property
    def payload_bytes(self) -> int:
        return self.size_bytes - HEADER_BYTES

    def make_response(self, size_bytes: Optional[int] = None, payload: Any = None) -> "Packet":
        """Build the response packet (src/dst swapped), as an NF would.

        ``meta`` is copied only when the request actually carries entries
        (the overwhelmingly common empty case allocates nothing); the
        response never aliases the request's dict either way.
        """
        meta = self._meta
        # positional: a keyword call builds a kwargs dict per response.
        # Order: src, dst, size_bytes, payload, flow_id, checksum (lazy),
        # packet_id (next id), created_at, multiplicity, processed_by, meta
        return Packet(
            self.dst,
            self.src,
            self.size_bytes if size_bytes is None else size_bytes,
            payload,
            self.flow_id,
            -1,
            None,
            self.created_at,
            self.multiplicity,
            None,
            dict(meta) if meta else None,
        )
