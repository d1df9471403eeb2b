"""Host-built frames: object-codec bytes, born with the right flow key.

The host builds each IPv4 frame as a cached Ethernet+IPv4 prefix plus the
L4 bytes and attaches the flow key it already knows.  For every frame
kind a host emits, the bytes must equal the object-codec build and the
attached ``_base``/``_base_tuple`` must equal a fresh extraction — the
same pin ``tests/workloads/test_frames.py`` puts on ``FrameTemplate``.
"""

import pytest

from repro.dataplane.host import Host
from repro.netlib import (
    EtherType,
    EthernetFrame,
    IcmpEcho,
    Ipv4Address,
    Ipv4Packet,
    MacAddress,
    TcpSegment,
    UdpDatagram,
    decode_ethernet,
    fastframe,
)
from repro.netlib.flowkey import MATCH_FIELD_NAMES, extract_flow_base
from repro.netlib.ipv4 import internet_checksum
from repro.sim import SimulationEngine

REQUIRED_KINDS = {
    "ping-request", "ping-reply", "syn", "syn-ack", "data", "ack",
    "dup-ack", "fin", "rst", "udp", "flushed-after-arp",
}


def classify(frame, last_ack):
    """The frame kind of one captured IPv4 frame (None for ARP)."""
    decoded = decode_ethernet(bytes(frame))
    l4 = decoded.l4
    if isinstance(l4, IcmpEcho):
        return "ping-request" if l4.is_request else "ping-reply"
    if isinstance(l4, UdpDatagram):
        return "udp"
    if isinstance(l4, TcpSegment):
        if l4.is_rst:
            return "rst"
        if l4.is_syn:
            return "syn-ack" if l4.is_ack else "syn"
        if l4.is_fin:
            return "fin"
        if l4.payload:
            return "data"
        key = (decoded.l3.src, decoded.l3.dst)
        kind = "dup-ack" if last_ack.get(key) == l4.ack else "ack"
        last_ack[key] = l4.ack
        return kind
    return None


def capture_session(monkeypatch):
    """Two hosts exercising every frame kind.

    Returns ``(frame, flushed)`` for every frame either host sent, where
    ``flushed`` marks frames that waited in the ARP queue.
    """
    engine = SimulationEngine()
    h1 = Host(engine, "h1", MacAddress(1), Ipv4Address("10.0.0.1"))
    h2 = Host(engine, "h2", MacAddress(2), Ipv4Address("10.0.0.2"))
    sent = []
    flushing = {"h1": False}
    original_flush = Host._flush_pending

    def flush(host, ip):
        flushing[host.name] = True
        try:
            original_flush(host, ip)
        finally:
            flushing[host.name] = False

    monkeypatch.setattr(Host, "_flush_pending", flush)

    dropped = {"data": 0}

    def h1_wire(data):
        sent.append((data, flushing.get("h1", False)))
        decoded = decode_ethernet(bytes(data))
        if (isinstance(decoded.l4, TcpSegment) and decoded.l4.payload
                and dropped["data"] == 0):
            dropped["data"] += 1  # lose one segment: the server dup-acks
            return
        engine.schedule(0.0001, h2.frame_received, data)

    def h2_wire(data):
        sent.append((data, False))
        engine.schedule(0.0001, h1.frame_received, data)

    h1.attach(h1_wire)
    h2.attach(h2_wire)
    h1.ping(h2.ip, count=3, interval=0.001)  # queued behind ARP
    engine.run(until=1.0)
    server = h2.start_iperf_server(5001)
    h1.run_iperf_client(h2.ip, duration=0.01)
    engine.run(until=2.0)
    h2.register_udp_handler(9999, lambda src, dgram: None)
    h1.send_udp(h2.ip, 1234, 9999, b"hello")
    # A server restarted mid-transfer has no session: it answers RST.
    client = h1.run_iperf_client(h2.ip, duration=1.0)
    engine.run(until=2.005)
    h2.stop_iperf_server(5001)
    h2.start_iperf_server(5001)
    engine.run(until=4.0)
    assert server.bytes_received and client.finished
    return sent


def test_every_host_frame_is_codec_identical_and_keyed(monkeypatch):
    kinds = set()
    last_ack = {}
    for frame, flushed in capture_session(monkeypatch):
        data = bytes(frame)
        decoded = decode_ethernet(data)
        if decoded.ethernet.ethertype != EtherType.IPV4:
            continue
        kind = classify(frame, last_ack)
        kinds.add(kind)
        if flushed:
            kinds.add("flushed-after-arp")
        ip = decoded.l3
        rebuilt = EthernetFrame(
            decoded.ethernet.dst, decoded.ethernet.src, EtherType.IPV4,
            Ipv4Packet(ip.src, ip.dst, ip.protocol, ip.payload).pack(),
        ).pack()
        assert data == rebuilt, kind
        assert type(frame) is fastframe.FastFrame, kind
        expected = extract_flow_base(data)
        assert frame._base == expected, kind
        assert frame._base_tuple == tuple(
            expected[name] for name in MATCH_FIELD_NAMES[1:]), kind
    assert REQUIRED_KINDS <= kinds, REQUIRED_KINDS - kinds


def test_host_frames_go_out_plain_with_the_lane_off(monkeypatch):
    fastframe.set_fast_lane(False)
    frames = [frame for frame, _ in capture_session(monkeypatch)]
    assert frames and all(type(frame) is bytes for frame in frames)


def test_send_ip_keys_arbitrary_payloads_like_the_extractor():
    """``send_ip`` takes raw L4 bytes: malformed ones key as the switch would."""
    engine = SimulationEngine()
    host = Host(engine, "h1", MacAddress(1), Ipv4Address("10.0.0.1"))
    peer = Ipv4Address("10.0.0.2")
    host.arp_table[peer] = MacAddress(2)
    sent = []
    host.attach(sent.append)
    payloads = [
        (1, b""),                                  # ICMP too short
        (1, IcmpEcho.request(1, 1).pack()[:-1] + b"\x01"),  # bad checksum
        (6, b"\x00" * 19),                         # TCP too short
        (6, TcpSegment(1, 2).pack()[:12] + b"\x60" + b"\x00" * 7),  # options
        (17, UdpDatagram(1, 2, b"x").pack()[:4] + b"\x00\x30\x00\x00x"),
        (99, b"opaque"),
    ]
    for protocol, payload in payloads:
        host.send_ip(peer, protocol, payload)
    for (protocol, _), frame in zip(payloads, sent):
        assert frame._base == extract_flow_base(bytes(frame)), protocol
    # An unknown ICMP type goes out unkeyed: the first switch hop's
    # extraction rejects it, as it did before hosts keyed their frames.
    bad_type = bytearray(IcmpEcho.request(1, 1).pack())
    bad_type[0] = 13
    bad_type[2:4] = b"\x00\x00"
    bad_type[2:4] = internet_checksum(bytes(bad_type)).to_bytes(2, "big")
    host.send_ip(peer, 1, bytes(bad_type))
    assert type(sent[-1]) is bytes
    with pytest.raises(ValueError, match="unsupported ICMP type 13"):
        extract_flow_base(sent[-1])
