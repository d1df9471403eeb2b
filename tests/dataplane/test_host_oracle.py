"""The flow-base host receive path reacts exactly like the decode oracle.

Two identical hosts are primed with the same state (a ping in flight, an
iperf server, an iperf client, a UDP handler) and fed the same frames:
well-formed traffic and adversarial frames the layer decoders reject.
One host receives through ``Host.frame_received``, the other through
``host_oracle.frame_received``.  After every frame both must have sent
the same bytes, raised the same exception, and hold the same ping, iperf,
UDP, ARP and stats state.
"""

import struct

import pytest

from repro.dataplane.host import Host, _IperfClient, _PingRun
from repro.netlib import (
    ArpPacket,
    EtherType,
    EthernetFrame,
    IcmpEcho,
    IpProtocol,
    Ipv4Address,
    Ipv4Packet,
    LldpPacket,
    MacAddress,
    TcpFlags,
    TcpSegment,
    UdpDatagram,
    fastframe,
)
from repro.netlib.arp import OP_REPLY
from repro.netlib.ipv4 import internet_checksum
from repro.sim import SimulationEngine
from tests.dataplane import host_oracle

HOST_MAC = MacAddress("00:00:00:00:00:02")
HOST_IP = Ipv4Address("10.0.0.2")
PEER_MAC = MacAddress("00:00:00:00:00:01")
PEER_IP = Ipv4Address("10.0.0.1")
OTHER_MAC = MacAddress("00:00:00:00:00:09")
OTHER_IP = Ipv4Address("10.0.0.9")
PING_ID = 77
SERVER_PORT = 5001
CLIENT_PORT = 50000
UDP_PORT = 9999


def eth(payload, ethertype=EtherType.IPV4, dst=HOST_MAC, src=PEER_MAC):
    return EthernetFrame(dst, src, ethertype, payload).pack()


def ipv4(l4, protocol, dst=HOST_IP):
    return Ipv4Packet(PEER_IP, dst, protocol, l4).pack()


def tcp(src_port, dst_port, flags, seq=0, ack=0, payload=b""):
    segment = TcpSegment(src_port, dst_port, seq=seq, ack=ack, flags=flags,
                         payload=payload)
    return eth(ipv4(segment.pack(), IpProtocol.TCP))


def icmp(echo, **kwargs):
    return eth(ipv4(echo.pack(), IpProtocol.ICMP), **kwargs)


def patched(frame, offset, value, refresh_ip_checksum=True):
    """``frame`` with ``value`` written at ``offset``.

    The IPv4 header checksum is recomputed afterwards unless the patch is
    meant to break it, so each frame trips exactly one validation.
    """
    buf = bytearray(frame)
    buf[offset:offset + len(value)] = value
    if refresh_ip_checksum and buf[12:14] == b"\x08\x00":
        buf[24:26] = b"\x00\x00"
        buf[24:26] = struct.pack("!H", internet_checksum(bytes(buf[14:34])))
    return bytes(buf)


def icmp_with(icmp_type=8, code=0, good_checksum=True):
    body = struct.pack("!BBHHH", icmp_type, code, 0, PING_ID, 0) + b"p" * 8
    checksum = internet_checksum(body)
    if not good_checksum:
        checksum ^= 0x0101
    body = body[:2] + struct.pack("!H", checksum) + body[4:]
    return eth(ipv4(body, IpProtocol.ICMP))


def arp_frame(opcode):
    reply = ArpPacket.reply(PEER_MAC, PEER_IP, HOST_MAC, HOST_IP).pack()
    frame = eth(reply, ethertype=EtherType.ARP)
    return patched(frame, 20, struct.pack("!H", opcode))


WELL_FORMED = [
    ("arp-request", eth(ArpPacket.request(PEER_MAC, PEER_IP, HOST_IP).pack(),
                        ethertype=EtherType.ARP, dst=MacAddress("ff:ff:ff:ff:ff:ff"))),
    ("arp-reply", arp_frame(OP_REPLY)),
    ("icmp-request", icmp(IcmpEcho.request(5, 1, b"x" * 48))),
    ("icmp-reply", icmp(IcmpEcho.request(PING_ID, 0, b"\x00" * 48).reply())),
    ("syn", tcp(40000, SERVER_PORT, TcpFlags.SYN)),
    ("data", tcp(40000, SERVER_PORT, TcpFlags.ACK, seq=1, ack=1, payload=b"d" * 100)),
    ("out-of-order", tcp(40000, SERVER_PORT, TcpFlags.ACK, seq=900, ack=1,
                         payload=b"d" * 50)),
    ("data-padded", eth(ipv4(TcpSegment(40000, SERVER_PORT, seq=101, ack=1,
                                        flags=TcpFlags.ACK,
                                        payload=b"e" * 30).pack(),
                             IpProtocol.TCP) + b"\x00" * 12)),
    ("fin", tcp(40000, SERVER_PORT, TcpFlags.FIN | TcpFlags.ACK, seq=131, ack=1)),
    ("no-session", tcp(40001, SERVER_PORT, TcpFlags.ACK, seq=5, payload=b"z")),
    ("syn-ack", tcp(SERVER_PORT, CLIENT_PORT, TcpFlags.SYN | TcpFlags.ACK, ack=1)),
    ("client-ack", tcp(SERVER_PORT, CLIENT_PORT, TcpFlags.ACK, seq=1, ack=2921)),
    ("client-rst", tcp(SERVER_PORT, CLIENT_PORT, TcpFlags.RST)),
    ("tcp-no-listener", tcp(40000, 7, TcpFlags.SYN)),
    ("udp", eth(ipv4(UdpDatagram(1234, UDP_PORT, b"hello").pack(), IpProtocol.UDP))),
    ("udp-unregistered", eth(ipv4(UdpDatagram(1234, 7, b"x").pack(), IpProtocol.UDP))),
    ("ip-unknown-protocol", eth(ipv4(b"payload", 99))),
    ("ip-for-another-ip", eth(Ipv4Packet(PEER_IP, OTHER_IP, IpProtocol.ICMP,
                                         IcmpEcho.request(5, 2).pack()).pack())),
]

PING = icmp(IcmpEcho.request(5, 3, b"y" * 20))
SYN = tcp(40000, SERVER_PORT, TcpFlags.SYN)

ADVERSARIAL = [
    ("runt", PING[:10]),
    ("ihl-6", patched(PING, 14, b"\x46")),
    ("bad-ip-checksum", patched(PING, 24, b"\xde\xad", refresh_ip_checksum=False)),
    ("total-length-past-buffer", patched(PING, 16, struct.pack("!H", 200))),
    ("padding-after-total-length", PING + b"\x00" * 18),
    ("tcp-data-offset-6", patched(SYN + b"\x00" * 4, 46, b"\x60")),
    ("bad-icmp-checksum", icmp_with(good_checksum=False)),
    ("icmp-code-1", icmp_with(code=1)),
    ("icmp-unknown-type", icmp_with(icmp_type=13)),
    ("arp-unknown-opcode", arp_frame(9)),
    ("lldp", eth(LldpPacket("dpid:1", 2).pack(), ethertype=EtherType.LLDP,
                 dst=MacAddress("01:80:c2:00:00:0e"))),
    ("unknown-ethertype", eth(b"\x01\x02\x03", ethertype=0x88B5)),
    ("unicast-for-another-host", icmp(IcmpEcho.request(5, 7), dst=OTHER_MAC)),
    ("broadcast", icmp(IcmpEcho.request(5, 8), dst=MacAddress("ff:ff:ff:ff:ff:ff"))),
    ("multicast", icmp(IcmpEcho.request(5, 9), dst=MacAddress("01:00:5e:00:00:01"))),
]


class Rig:
    """One primed host plus everything it has sent and delivered."""

    def __init__(self):
        self.engine = SimulationEngine()
        self.host = Host(self.engine, "h2", HOST_MAC, HOST_IP)
        self.sent = []
        self.udp = []
        self.host.attach(lambda data: self.sent.append(bytes(data)))
        self.host.arp_table[PEER_IP] = PEER_MAC
        self.ping = _PingRun(self.host, PEER_IP, count=1, interval=1.0,
                             timeout=5.0, identifier=PING_ID)
        self.host._ping_runs[PING_ID] = self.ping
        self.ping._send_one(0)
        self.server = self.host.start_iperf_server(SERVER_PORT)
        self.client = _IperfClient(self.host, PEER_IP, SERVER_PORT,
                                   duration=1.0, src_port=CLIENT_PORT)
        self.host._iperf_clients[CLIENT_PORT] = self.client
        self.client.start()
        self.host.register_udp_handler(
            UDP_PORT, lambda src, dgram: self.udp.append((str(src), dgram.payload)))

    def observe(self):
        client = self.client
        return {
            "sent": list(self.sent),
            "stats": dict(self.host.stats),
            "arp": {str(ip): str(mac) for ip, mac in self.host.arp_table.items()},
            "ping": (self.ping.result.received, list(self.ping.result.rtts)),
            "sessions": {(str(ip), port): value
                         for (ip, port), value in self.server.sessions.items()},
            "server_bytes": {(str(ip), port): value for (ip, port), value
                             in self.server.bytes_received.items()},
            "client": (client.established, client.finished, client.snd_una,
                       client.snd_nxt, client.result.bytes_acked),
            "udp": list(self.udp),
        }


def feed(receive, frames, intern):
    """Feed ``frames`` to a fresh rig; one observation per frame."""
    rig = Rig()
    trail = []
    for name, data in frames:
        if intern:
            data, _ = fastframe.intern(bytes(data))
        try:
            receive(rig.host, data)
            outcome = None
        except Exception as exc:  # noqa: BLE001 - comparing failure modes
            outcome = (type(exc).__name__, str(exc))
        trail.append((name, outcome, rig.observe()))
    return trail


@pytest.mark.parametrize("lane", [True, False], ids=["lane-on", "lane-off"])
@pytest.mark.parametrize("intern", [False, True], ids=["bytes", "interned"])
def test_flow_base_path_matches_decode_oracle(lane, intern):
    fastframe.set_fast_lane(lane)
    frames = WELL_FORMED + ADVERSARIAL
    expected = feed(host_oracle.frame_received, frames, intern)
    fastframe.clear_pool()
    actual = feed(Host.frame_received, frames, intern)
    for want, got in zip(expected, actual):
        assert got == want, want[0]


def test_adversarial_frames_exercise_every_outcome():
    """The corpus is not vacuous: it answers, ignores and raises."""
    trail = feed(Host.frame_received, WELL_FORMED + ADVERSARIAL, intern=False)
    outcomes = {name: outcome for name, outcome, _ in trail}
    assert outcomes["runt"][0] == "FrameDecodeError"
    assert outcomes["icmp-unknown-type"] == ("ValueError",
                                             "unsupported ICMP type 13")
    assert outcomes["arp-unknown-opcode"] == ("ValueError",
                                              "unsupported ARP opcode 9")
    sent_after = {name: len(obs["sent"]) for name, _, obs in trail}
    names = [name for name, _, _ in trail]

    def answered(name):
        before = sent_after[names[names.index(name) - 1]]
        return sent_after[name] > before

    for name in ("icmp-request", "syn", "data", "out-of-order", "fin",
                 "no-session", "padding-after-total-length", "broadcast",
                 "multicast"):
        assert answered(name), name
    for name in ("ihl-6", "bad-ip-checksum", "total-length-past-buffer",
                 "tcp-data-offset-6", "bad-icmp-checksum", "icmp-code-1",
                 "lldp", "unknown-ethertype", "unicast-for-another-host",
                 "ip-for-another-ip", "tcp-no-listener", "udp-unregistered"):
        assert not answered(name), name
    final = trail[-1][2]
    assert final["ping"][0] == 1
    assert final["udp"] == [("10.0.0.1", b"hello")]
    assert final["client"][1]  # the RST finished the client
