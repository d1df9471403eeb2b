"""Test-side oracle: the decode-based flow-key extraction.

The data plane extracts the OpenFlow twelve-tuple in one pass straight
from the frame bytes (``repro.netlib.flowkey``).  This module keeps the
route it replaced — decode the frame into ``EthernetFrame``/layer objects
with ``decode_ethernet`` and read the fields off them — so the
equivalence suite in ``test_flowkey.py`` and the fast-path benchmark can
compare against it.
"""

from typing import Any, Dict

from repro.netlib import (
    EtherType,
    IcmpEcho,
    Ipv4Packet,
    TcpSegment,
    UdpDatagram,
    decode_ethernet,
)
from repro.netlib.flowkey import VLAN_NONE


def extract_packet_fields_reference(data: bytes, in_port: int) -> Dict[str, Any]:
    """The original decode-based extraction (semantics oracle)."""
    decoded = decode_ethernet(data)
    frame = decoded.ethernet
    fields: Dict[str, Any] = {
        "in_port": in_port,
        "dl_src": frame.src,
        "dl_dst": frame.dst,
        "dl_vlan": VLAN_NONE,
        "dl_vlan_pcp": 0,
        "dl_type": frame.ethertype,
        "nw_tos": None,
        "nw_proto": None,
        "nw_src": None,
        "nw_dst": None,
        "tp_src": None,
        "tp_dst": None,
    }
    l3 = decoded.l3
    if isinstance(l3, Ipv4Packet):
        fields["nw_tos"] = 0
        fields["nw_proto"] = l3.protocol
        fields["nw_src"] = l3.src
        fields["nw_dst"] = l3.dst
        l4 = decoded.l4
        if isinstance(l4, (TcpSegment, UdpDatagram)):
            fields["tp_src"] = l4.src_port
            fields["tp_dst"] = l4.dst_port
        elif isinstance(l4, IcmpEcho):
            fields["tp_src"] = int(l4.icmp_type)
            fields["tp_dst"] = 0
    elif frame.ethertype == EtherType.ARP and l3 is not None:
        fields["nw_proto"] = l3.opcode
        fields["nw_src"] = l3.sender_ip
        fields["nw_dst"] = l3.target_ip
    return fields
