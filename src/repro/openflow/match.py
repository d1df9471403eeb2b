"""``ofp_match`` — the OpenFlow 1.0 twelve-tuple flow match."""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional, Tuple

from repro.netlib.addresses import Ipv4Address, MacAddress
from repro.netlib.flowkey import (
    FIELD_TUPLE_KEY,
    MATCH_FIELD_NAMES,
    extract_flow_key,
)
from repro.openflow.constants import (
    NW_DST_MASK,
    NW_DST_SHIFT,
    NW_SRC_MASK,
    NW_SRC_SHIFT,
    OFPFW_ALL,
    Wildcards,
)

_MATCH = struct.Struct("!IH6s6sHBxHBBxx4s4sHH")
MATCH_SIZE = _MATCH.size  # 40 bytes

OFP_VLAN_NONE = 0xFFFF

#: Field name -> wildcard flag for the simple (non-CIDR) fields.
_SIMPLE_WILDCARDS: Dict[str, Wildcards] = {
    "in_port": Wildcards.IN_PORT,
    "dl_vlan": Wildcards.DL_VLAN,
    "dl_src": Wildcards.DL_SRC,
    "dl_dst": Wildcards.DL_DST,
    "dl_type": Wildcards.DL_TYPE,
    "nw_proto": Wildcards.NW_PROTO,
    "tp_src": Wildcards.TP_SRC,
    "tp_dst": Wildcards.TP_DST,
    "dl_vlan_pcp": Wildcards.DL_VLAN_PCP,
    "nw_tos": Wildcards.NW_TOS,
}

# MATCH_FIELD_NAMES and FIELD_TUPLE_KEY are re-exported from
# repro.netlib.flowkey (imported above) — the single-pass extractor and
# this module must agree on the tuple order.


class Match:
    """A flow match where ``None`` fields are wildcarded.

    ``nw_src``/``nw_dst`` may carry an optional prefix length via
    ``nw_src_prefix``/``nw_dst_prefix`` (default 32 = exact host match).
    """

    __slots__ = (
        "in_port",
        "dl_src",
        "dl_dst",
        "dl_vlan",
        "dl_vlan_pcp",
        "dl_type",
        "nw_tos",
        "nw_proto",
        "nw_src",
        "nw_src_prefix",
        "nw_dst",
        "nw_dst_prefix",
        "tp_src",
        "tp_dst",
    )

    def __init__(
        self,
        in_port: Optional[int] = None,
        dl_src: Optional[MacAddress] = None,
        dl_dst: Optional[MacAddress] = None,
        dl_vlan: Optional[int] = None,
        dl_vlan_pcp: Optional[int] = None,
        dl_type: Optional[int] = None,
        nw_tos: Optional[int] = None,
        nw_proto: Optional[int] = None,
        nw_src: Optional[Ipv4Address] = None,
        nw_dst: Optional[Ipv4Address] = None,
        tp_src: Optional[int] = None,
        tp_dst: Optional[int] = None,
        nw_src_prefix: int = 32,
        nw_dst_prefix: int = 32,
    ) -> None:
        self.in_port = in_port
        self.dl_src = MacAddress(dl_src) if dl_src is not None else None
        self.dl_dst = MacAddress(dl_dst) if dl_dst is not None else None
        self.dl_vlan = dl_vlan
        self.dl_vlan_pcp = dl_vlan_pcp
        self.dl_type = dl_type
        self.nw_tos = nw_tos
        self.nw_proto = nw_proto
        self.nw_src = Ipv4Address(nw_src) if nw_src is not None else None
        self.nw_dst = Ipv4Address(nw_dst) if nw_dst is not None else None
        self.tp_src = tp_src
        self.tp_dst = tp_dst
        for name, prefix in (("nw_src_prefix", nw_src_prefix), ("nw_dst_prefix", nw_dst_prefix)):
            if not 0 <= prefix <= 32:
                raise ValueError(f"{name} out of range: {prefix!r}")
        self.nw_src_prefix = nw_src_prefix
        self.nw_dst_prefix = nw_dst_prefix

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def wildcard_all(cls) -> "Match":
        """The match-everything match (used by DELETE-all flow mods)."""
        return cls()

    @classmethod
    def from_packet(cls, data: bytes, in_port: int) -> "Match":
        """Extract the exact twelve-tuple from raw Ethernet bytes.

        This mirrors OVS's flow-key extraction: every field the packet
        defines becomes an exact-match field.
        """
        fields = extract_packet_fields(data, in_port)
        return cls(
            in_port=fields["in_port"],
            dl_src=fields["dl_src"],
            dl_dst=fields["dl_dst"],
            dl_vlan=fields["dl_vlan"],
            dl_vlan_pcp=fields["dl_vlan_pcp"],
            dl_type=fields["dl_type"],
            nw_tos=fields["nw_tos"],
            nw_proto=fields["nw_proto"],
            nw_src=fields["nw_src"],
            nw_dst=fields["nw_dst"],
            tp_src=fields["tp_src"],
            tp_dst=fields["tp_dst"],
        )

    # ------------------------------------------------------------------ #
    # Matching semantics
    # ------------------------------------------------------------------ #

    def matches_packet(self, data: bytes, in_port: int) -> bool:
        """True if a raw packet arriving on ``in_port`` satisfies this match."""
        return self.matches_fields(extract_packet_fields(data, in_port))

    def matches_fields(self, fields: Dict[str, Any]) -> bool:
        """True if an extracted packet-field dict satisfies this match."""
        for name in ("in_port", "dl_vlan", "dl_vlan_pcp", "dl_type", "nw_tos",
                     "nw_proto", "tp_src", "tp_dst"):
            wanted = getattr(self, name)
            if wanted is not None and fields.get(name) != wanted:
                return False
        for name in ("dl_src", "dl_dst"):
            wanted = getattr(self, name)
            if wanted is not None and fields.get(name) != wanted:
                return False
        if not self._prefix_matches(self.nw_src, self.nw_src_prefix, fields.get("nw_src")):
            return False
        if not self._prefix_matches(self.nw_dst, self.nw_dst_prefix, fields.get("nw_dst")):
            return False
        return True

    @staticmethod
    def _prefix_matches(
        wanted: Optional[Ipv4Address], prefix: int, actual: Optional[Ipv4Address]
    ) -> bool:
        if wanted is None or prefix == 0:
            return True
        if actual is None:
            return False
        if prefix == 32:
            return wanted == actual
        mask = ((1 << prefix) - 1) << (32 - prefix)
        return (int(wanted) & mask) == (int(actual) & mask)

    def is_strict_equal(self, other: "Match") -> bool:
        """Strict flow-mod comparison: identical fields and wildcards."""
        return self.pack() == other.pack()

    def subsumes(self, other: "Match") -> bool:
        """True if every packet matching ``other`` also matches ``self``.

        Used for non-strict DELETE/MODIFY flow-mod semantics.
        """
        for name in MATCH_FIELD_NAMES:
            if name in ("nw_src", "nw_dst"):
                continue
            mine = getattr(self, name)
            theirs = getattr(other, name)
            if mine is not None and (theirs is None or mine != theirs):
                return False
        for ip_name, prefix_name in (("nw_src", "nw_src_prefix"), ("nw_dst", "nw_dst_prefix")):
            mine = getattr(self, ip_name)
            my_prefix = getattr(self, prefix_name) if mine is not None else 0
            theirs = getattr(other, ip_name)
            their_prefix = getattr(other, prefix_name) if theirs is not None else 0
            if my_prefix == 0:
                continue
            if their_prefix < my_prefix:
                return False
            if not self._prefix_matches(mine, my_prefix, theirs):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Wire format
    # ------------------------------------------------------------------ #

    @property
    def wildcards(self) -> int:
        """Compute the ``ofp_flow_wildcards`` word for the current fields."""
        word = 0
        for name, flag in _SIMPLE_WILDCARDS.items():
            if getattr(self, name) is None:
                word |= int(flag)
        src_wild = 32 if self.nw_src is None else 32 - self.nw_src_prefix
        dst_wild = 32 if self.nw_dst is None else 32 - self.nw_dst_prefix
        word |= min(src_wild, 63) << NW_SRC_SHIFT
        word |= min(dst_wild, 63) << NW_DST_SHIFT
        return word

    def pack(self) -> bytes:
        return _MATCH.pack(
            self.wildcards,
            self.in_port or 0,
            (self.dl_src.packed if self.dl_src else b"\x00" * 6),
            (self.dl_dst.packed if self.dl_dst else b"\x00" * 6),
            self.dl_vlan if self.dl_vlan is not None else 0,
            self.dl_vlan_pcp or 0,
            self.dl_type or 0,
            self.nw_tos or 0,
            self.nw_proto or 0,
            (self.nw_src.packed if self.nw_src else b"\x00" * 4),
            (self.nw_dst.packed if self.nw_dst else b"\x00" * 4),
            self.tp_src or 0,
            self.tp_dst or 0,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "Match":
        if len(data) < MATCH_SIZE:
            raise ValueError(f"match too short: {len(data)} < {MATCH_SIZE}")
        (
            wildcards,
            in_port,
            dl_src,
            dl_dst,
            dl_vlan,
            dl_vlan_pcp,
            dl_type,
            nw_tos,
            nw_proto,
            nw_src,
            nw_dst,
            tp_src,
            tp_dst,
        ) = _MATCH.unpack_from(data)
        wildcards &= OFPFW_ALL

        def simple(flag: Wildcards, value: Any) -> Optional[Any]:
            return None if wildcards & int(flag) else value

        src_wild = min((wildcards & NW_SRC_MASK) >> NW_SRC_SHIFT, 32)
        dst_wild = min((wildcards & NW_DST_MASK) >> NW_DST_SHIFT, 32)
        return cls(
            in_port=simple(Wildcards.IN_PORT, in_port),
            dl_src=simple(Wildcards.DL_SRC, MacAddress(dl_src)),
            dl_dst=simple(Wildcards.DL_DST, MacAddress(dl_dst)),
            dl_vlan=simple(Wildcards.DL_VLAN, dl_vlan),
            dl_vlan_pcp=simple(Wildcards.DL_VLAN_PCP, dl_vlan_pcp),
            dl_type=simple(Wildcards.DL_TYPE, dl_type),
            nw_tos=simple(Wildcards.NW_TOS, nw_tos),
            nw_proto=simple(Wildcards.NW_PROTO, nw_proto),
            nw_src=None if src_wild >= 32 else Ipv4Address(nw_src),
            nw_dst=None if dst_wild >= 32 else Ipv4Address(nw_dst),
            tp_src=simple(Wildcards.TP_SRC, tp_src),
            tp_dst=simple(Wildcards.TP_DST, tp_dst),
            nw_src_prefix=32 - src_wild if src_wild < 32 else 32,
            nw_dst_prefix=32 - dst_wild if dst_wild < 32 else 32,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def specified_fields(self) -> Dict[str, Any]:
        """Return only the non-wildcarded fields (for logging/conditionals)."""
        fields = {}
        for name in MATCH_FIELD_NAMES:
            value = getattr(self, name)
            if value is not None:
                fields[name] = value
        return fields

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Match):
            return self.pack() == other.pack()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pack())

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.specified_fields().items())
        return f"Match({parts or 'wildcard-all'})"


def extract_packet_fields(data: bytes, in_port: int) -> Dict[str, Any]:
    """Extract the twelve match-tuple fields from raw Ethernet bytes.

    Missing layers yield ``None`` (e.g. ``tp_src`` for an ARP packet);
    ARP's opcode/addresses map into nw_proto/nw_src/nw_dst per the OF 1.0
    spec's ARP_MATCH_IP behaviour.

    Delegates to the single-pass extractor in ``repro.netlib.flowkey``;
    the original decode-the-object-graph route survives as the test-side
    oracle ``tests/netlib/flowkey_oracle.py``.
    """
    return extract_flow_key(data, in_port)


def field_tuple(fields: Dict[str, Any]) -> Tuple[Any, ...]:
    """A hashable key over the twelve match fields (for learning tables)."""
    memo = fields.get(FIELD_TUPLE_KEY)
    if memo is not None:
        return memo
    return tuple(fields.get(name) for name in MATCH_FIELD_NAMES)
