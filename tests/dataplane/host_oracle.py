"""Test-side oracle: the decode-based host receive path.

``Host.frame_received`` dispatches on the frame's memoized flow base and
unpacks only the TCP fields connection state needs.  This module keeps
the route it replaced — decode the frame into ``EthernetFrame`` /
``Ipv4Packet`` / L4 objects with ``decode_ethernet`` and dispatch on
their types — so ``test_host_oracle.py`` can feed both the same frames
and compare how the host reacts.

The iperf endpoints now take header fields instead of a ``TcpSegment``;
the oracle reads those fields off the decoded segment.
"""

from repro.dataplane.host import Host
from repro.netlib import (
    ArpPacket,
    IcmpEcho,
    IpProtocol,
    Ipv4Packet,
    TcpSegment,
    UdpDatagram,
    decode_ethernet,
    fastframe,
)


def frame_received(host: Host, data: bytes) -> None:
    """What ``host.frame_received(data)`` did before the fast-lane stack."""
    host.stats["rx_frames"] += 1
    if fastframe.fast_lane_enabled():
        # NIC filter without a full decode on the fast lane.
        macs = fastframe.mac_pair(data)
        if macs is not None:
            dst = macs[1]
            if dst != host.mac and not dst.is_broadcast and not dst.is_multicast:
                return
    decoded = decode_ethernet(data)
    frame = decoded.ethernet
    if frame.dst != host.mac and not frame.dst.is_broadcast and not frame.dst.is_multicast:
        return  # not for us (flooded unicast for another host)
    l3 = decoded.l3
    if isinstance(l3, ArpPacket):
        host._handle_arp(l3)
    elif isinstance(l3, Ipv4Packet) and l3.dst == host.ip:
        _handle_ip(host, l3, decoded.l4)


def _handle_ip(host: Host, packet: Ipv4Packet, l4) -> None:
    if isinstance(l4, IcmpEcho):
        if l4.is_request:
            host.stats["icmp_requests_answered"] += 1
            host.send_ip(packet.src, IpProtocol.ICMP, l4.reply().pack())
        elif l4.is_reply:
            run = host._ping_runs.get(l4.identifier)
            if run is not None:
                run.reply_received(l4.sequence)
    elif isinstance(l4, TcpSegment):
        server = host._iperf_servers.get(l4.dst_port)
        if server is not None:
            server.segment_received(packet.src, l4.src_port, l4.seq,
                                    int(l4.flags), len(l4.payload))
            return
        client = host._iperf_clients.get(l4.dst_port)
        if client is not None:
            client.segment_received(l4.ack, int(l4.flags))
    elif isinstance(l4, UdpDatagram):
        handler = host._udp_handlers.get(l4.dst_port)
        if handler is not None:
            handler(packet.src, l4)
