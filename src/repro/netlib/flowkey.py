"""Single-pass flow-key extraction straight from raw Ethernet bytes.

The OpenFlow twelve-tuple (:data:`MATCH_FIELD_NAMES` in
``repro.openflow.match``) is the only thing the data-plane forwarding path
needs from a frame, yet the historical extraction route built full
``EthernetFrame``/``Ipv4Packet``/``TcpSegment`` objects — three payload
copies, enum constructions, and range re-validation per hop.  This module
reads the twelve fields with ``struct.unpack_from`` directly against the
buffer, allocating only the two ``MacAddress``/two ``Ipv4Address`` value
objects the key itself carries.

Semantics are bit-for-bit those of decoding the frame with
``decode_ethernet``: every validation a layer decoder performs — IPv4
version/IHL/total-length/checksum, TCP data offset, UDP length, ICMP code
and checksum — is replicated here, and a layer that would have failed to
decode yields ``None`` fields exactly as the decode route does.  That is
why a ``None`` field can stand for "this layer would not decode" (the
host stack relies on it).  ``tests/netlib/flowkey_oracle.py`` keeps the
decode-based extraction as a test-side oracle, and
``tests/netlib/test_flowkey.py`` holds the equivalence suite (truncated
headers, bad checksums, non-IP ethertypes, ICMP type/code edge cases).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional, Tuple

from repro.netlib.addresses import Ipv4Address, MacAddress
from repro.netlib.ethernet import FrameDecodeError
from repro.netlib.ipv4 import internet_checksum

#: ``dl_vlan`` value for untagged frames (OF 1.0's OFP_VLAN_NONE).
VLAN_NONE = 0xFFFF

#: The OF 1.0 twelve-tuple, in ``ofp_match`` wire order.  Canonical home
#: is here (the lowest layer that knows the tuple) and re-exported by
#: ``repro.openflow.match`` so both sides of the netlib/openflow boundary
#: agree without a circular import.
MATCH_FIELD_NAMES = (
    "in_port",
    "dl_src",
    "dl_dst",
    "dl_vlan",
    "dl_vlan_pcp",
    "dl_type",
    "nw_tos",
    "nw_proto",
    "nw_src",
    "nw_dst",
    "tp_src",
    "tp_dst",
)

#: Key under which the fast lane memoizes a precomputed twelve-tuple
#: inside an extracted fields dict (``repro.netlib.fastframe``).
#: Dunder-prefixed so it can never collide with a match field name;
#: ``field_tuple`` and ``Match.matches_fields`` ignore unknown keys.
FIELD_TUPLE_KEY = "__tuple__"

_ETH = struct.Struct("!6s6sH")
_IP = struct.Struct("!BBHHHBBH4s4s")
_TCP_PORTS = struct.Struct("!HH")
_UDP = struct.Struct("!HHHH")
_ICMP = struct.Struct("!BBHHH")

_ETH_SIZE = _ETH.size          # 14
_IP_SIZE = _IP.size            # 20
_TCP_MIN = 20
_UDP_MIN = 8
_ICMP_MIN = 8

_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_ARP = 0x0806

_ARP = struct.Struct("!HHBBH6s4s6s4s")
_ARP_ETH_IPV4 = (1, 0x0800, 6, 4)


def extract_flow_base(data: bytes) -> Dict[str, Any]:
    """Extract the port-independent eleven fields of the flow key.

    Raises :class:`FrameDecodeError` for frames shorter than an Ethernet
    header, and mirrors the layer decoders' ``ValueError`` for the two
    constructor-level rejections (unknown ICMP echo type, unknown ARP
    opcode) so the fast and reference routes fail identically.
    """
    if len(data) < _ETH_SIZE:
        raise FrameDecodeError(
            f"ethernet frame too short: {len(data)} < {_ETH_SIZE} bytes"
        )
    dst, src, ethertype = _ETH.unpack_from(data)
    fields: Dict[str, Any] = {
        "dl_src": MacAddress(src),
        "dl_dst": MacAddress(dst),
        "dl_vlan": VLAN_NONE,
        "dl_vlan_pcp": 0,
        "dl_type": ethertype,
        "nw_tos": None,
        "nw_proto": None,
        "nw_src": None,
        "nw_dst": None,
        "tp_src": None,
        "tp_dst": None,
    }
    if ethertype == _ETHERTYPE_IPV4:
        _extract_ipv4(data, fields)
    elif ethertype == _ETHERTYPE_ARP:
        _extract_arp(data, fields)
    return fields


def extract_flow_key(data: bytes, in_port: int) -> Dict[str, Any]:
    """The full twelve-tuple for a frame arriving on ``in_port``."""
    fields = extract_flow_base(data)
    fields["in_port"] = in_port
    return fields


def _extract_ipv4(data: bytes, fields: Dict[str, Any]) -> None:
    payload_len = len(data) - _ETH_SIZE
    if payload_len < _IP_SIZE:
        return
    (
        version_ihl,
        _tos,
        total_length,
        _identification,
        _flags_frag,
        _ttl,
        protocol,
        _checksum,
        nw_src,
        nw_dst,
    ) = _IP.unpack_from(data, _ETH_SIZE)
    # Mirror Ipv4Packet.unpack's rejections: wrong version, options,
    # overlong total_length, bad header checksum -> no L3/L4 fields.
    if version_ihl != 0x45:
        return
    if total_length > payload_len:
        return
    if internet_checksum(data[_ETH_SIZE : _ETH_SIZE + _IP_SIZE]) != 0:
        return
    # Ipv4Packet does not model TOS (packs it as zero), so the extracted
    # key reads 0 regardless of the wire byte — same as the reference.
    fields["nw_tos"] = 0
    fields["nw_proto"] = protocol
    fields["nw_src"] = Ipv4Address(nw_src)
    fields["nw_dst"] = Ipv4Address(nw_dst)
    tp_src, tp_dst = extract_tp_fields(
        protocol, data, _ETH_SIZE + _IP_SIZE, total_length - _IP_SIZE
    )
    fields["tp_src"] = tp_src
    fields["tp_dst"] = tp_dst


_NO_TP = (None, None)


def extract_tp_fields(
    protocol: int, data: bytes, offset: int, length: int
) -> Tuple[Optional[int], Optional[int]]:
    """``(tp_src, tp_dst)`` of the ``length``-byte L4 segment at ``offset``.

    ``(None, None)`` when the transport layer would not decode.  Shared by
    the frame extractor and the host send path, which keys its outgoing
    frames on the same pair without building the frame first.
    """
    if protocol == 6:  # TCP
        if length < _TCP_MIN:
            return _NO_TP
        # TcpSegment.unpack rejects options (data offset != 5).
        if data[offset + 12] >> 4 != 5:
            return _NO_TP
        return _TCP_PORTS.unpack_from(data, offset)
    if protocol == 17:  # UDP
        if length < _UDP_MIN:
            return _NO_TP
        tp_src, tp_dst, udp_length, _cks = _UDP.unpack_from(data, offset)
        if udp_length < _UDP_MIN or udp_length > length:
            return _NO_TP
        return tp_src, tp_dst
    if protocol == 1:  # ICMP
        if length < _ICMP_MIN:
            return _NO_TP
        icmp_type, code, _cks, _ident, _seq = _ICMP.unpack_from(data, offset)
        if code != 0:
            return _NO_TP
        if internet_checksum(data[offset : offset + length]) != 0:
            return _NO_TP
        if icmp_type not in (0, 8):
            # IcmpEcho refuses non-echo types at construction time with a
            # ValueError (not a decode error); keep the routes identical.
            raise ValueError(f"unsupported ICMP type {icmp_type!r}")
        return icmp_type, 0
    return _NO_TP


def _extract_arp(data: bytes, fields: Dict[str, Any]) -> None:
    if len(data) - _ETH_SIZE < _ARP.size:
        return
    htype, ptype, hlen, plen, opcode, _smac, sip, _tmac, tip = _ARP.unpack_from(
        data, _ETH_SIZE
    )
    if (htype, ptype, hlen, plen) != _ARP_ETH_IPV4:
        return
    if opcode not in (1, 2):
        # ArpPacket refuses unknown opcodes with a ValueError; mirror it.
        raise ValueError(f"unsupported ARP opcode {opcode!r}")
    fields["nw_proto"] = opcode
    fields["nw_src"] = Ipv4Address(sip)
    fields["nw_dst"] = Ipv4Address(tip)


def mac_pair_of(data: bytes) -> Optional[Tuple[MacAddress, MacAddress]]:
    """``(src, dst)`` MAC addresses, or ``None`` for a sub-header runt.

    The length-check-only contract matches ``EthernetFrame.unpack``: the
    callers that used a try/except around a full unpack just to learn two
    addresses (standalone MAC learning, host NIC filtering) get the same
    accept/reject behaviour without building the frame object.
    """
    if len(data) < _ETH_SIZE:
        return None
    return (MacAddress(data[6:12]), MacAddress(data[0:6]))
