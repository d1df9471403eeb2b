"""End hosts with a small ARP/ICMP/TCP network stack.

Hosts are the workload generators of the evaluation: ``ping`` (ICMP echo
with per-trial RTT and loss accounting) and an ``iperf``-style TCP bulk
transfer that measures achieved throughput.  The stack is deliberately
simple — go-back-N with a fixed window — but it exercises the same
data-plane paths (ARP resolution, per-flow table misses, controller round
trips) whose disruption the paper measures.

The stack rides the packet fast lane (``repro.netlib.fastframe``) in both
directions, so no Ethernet/IPv4/TCP object graph is built or decoded per
segment:

* Receive: every decision — NIC filter, ethertype, destination IP,
  protocol, ports — reads the frame's memoized flow base.  The extractor
  rejects exactly what the layer decoders reject, so a ``None`` field
  means "this layer would not have decoded".  TCP then unpacks only
  ``seq``/``ack``/``flags``; the rare ARP, ICMP and UDP frames still go
  through their object decoders.
* Send: the 34-byte Ethernet+IPv4 prefix depends only on the destination,
  protocol, L4 length and ports, so it is built once with the codecs and
  cached next to its flow key.  Each packet is ``prefix + l4`` emitted as
  a keyed frame, and the first switch hop never parses it.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.netlib import fastframe
from repro.netlib.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.netlib.arp import ArpPacket
from repro.netlib.ethernet import EtherType, EthernetFrame
from repro.netlib.flowkey import MATCH_FIELD_NAMES, extract_flow_base, extract_tp_fields
from repro.netlib.icmp import IcmpEcho
from repro.netlib.ipv4 import IpProtocol, Ipv4Packet
from repro.netlib.tcp import TcpFlags, pack_segment
from repro.netlib.udp import UdpDatagram
from repro.sim.engine import SimulationEngine
from repro.sim.process import Signal

_FIN = int(TcpFlags.FIN)
_SYN = int(TcpFlags.SYN)
_RST = int(TcpFlags.RST)
_ACK = int(TcpFlags.ACK)
_TCP = int(IpProtocol.TCP)
_UDP = int(IpProtocol.UDP)
_ICMP = int(IpProtocol.ICMP)
_ETHERTYPE_IPV4 = int(EtherType.IPV4)
_ETHERTYPE_ARP = int(EtherType.ARP)

_L3_OFFSET = 14  # untagged Ethernet header
_L4_OFFSET = 34  # plus a 20-byte IPv4 header (options never decode)
_HEADERS_LEN = 40  # IPv4 + TCP headers, both option-free
#: IPv4 total_length at 16, then TCP seq at 38, ack at 42, flags at 47.
_TCP_STATE = struct.Struct("!H20xIIxB")
_TOTAL_LENGTH = struct.Struct("!H")
_BASE_NAMES = MATCH_FIELD_NAMES[1:]  # the eleven port-independent fields
#: Bound on cached send prefixes per host; cleared wholesale when full.
_PREFIX_CACHE_MAX = 1024


@dataclass
class PingResult:
    """Outcome of one ping run (one ``ping`` invocation in the paper)."""

    target: Ipv4Address
    sent: int = 0
    received: int = 0
    rtts: List[Optional[float]] = field(default_factory=list)

    @property
    def loss_rate(self) -> float:
        return 1.0 - (self.received / self.sent) if self.sent else 0.0

    @property
    def successful_rtts(self) -> List[float]:
        return [rtt for rtt in self.rtts if rtt is not None]

    @property
    def min_rtt(self) -> Optional[float]:
        ok = self.successful_rtts
        return min(ok) if ok else None

    @property
    def avg_rtt(self) -> Optional[float]:
        ok = self.successful_rtts
        return sum(ok) / len(ok) if ok else None

    @property
    def median_rtt(self) -> Optional[float]:
        ok = sorted(self.successful_rtts)
        if not ok:
            return None
        mid = len(ok) // 2
        if len(ok) % 2:
            return ok[mid]
        return (ok[mid - 1] + ok[mid]) / 2

    @property
    def max_rtt(self) -> Optional[float]:
        ok = self.successful_rtts
        return max(ok) if ok else None

    @property
    def any_success(self) -> bool:
        return self.received > 0


@dataclass
class IperfResult:
    """Outcome of one iperf-style TCP transfer trial."""

    target: Ipv4Address
    duration_s: float
    bytes_acked: int = 0
    connected: bool = False
    retransmits: int = 0

    @property
    def throughput_bps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.bytes_acked * 8.0 / self.duration_s

    @property
    def throughput_mbps(self) -> float:
        return self.throughput_bps / 1e6


class _PingRun:
    """One in-flight ping series (identified by ICMP identifier)."""

    def __init__(
        self,
        host: "Host",
        target: Ipv4Address,
        count: int,
        interval: float,
        timeout: float,
        identifier: int,
    ) -> None:
        self.host = host
        self.target = target
        self.count = count
        self.interval = interval
        self.timeout = timeout
        self.identifier = identifier
        self.result = PingResult(target)
        self.done = Signal(host.engine, name=f"{host.name}.ping.{identifier}")
        self._sent_at: Dict[int, float] = {}
        self._answered: set = set()
        self._finished = False

    def start(self) -> None:
        for seq in range(self.count):
            self.host.engine.schedule(seq * self.interval, self._send_one, seq)
        finish_at = (self.count - 1) * self.interval + self.timeout + 0.001
        self.host.engine.schedule(finish_at, self._finish)

    def _send_one(self, seq: int) -> None:
        self.result.sent += 1
        self.result.rtts.append(None)
        self._sent_at[seq] = self.host.engine.now
        echo = IcmpEcho.request(self.identifier, seq, b"\x00" * 48)
        self.host.send_ip(self.target, IpProtocol.ICMP, echo.pack())

    def reply_received(self, seq: int) -> None:
        if seq in self._answered or seq not in self._sent_at:
            return
        rtt = self.host.engine.now - self._sent_at[seq]
        if rtt > self.timeout:
            return  # reply arrived after the per-trial deadline
        self._answered.add(seq)
        self.result.received += 1
        self.result.rtts[seq] = rtt

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.host._ping_runs.pop(self.identifier, None)
        self.done.fire(self.result)


class _IperfServer:
    """Accepts one TCP connection per client and acks received bytes."""

    def __init__(self, host: "Host", port: int) -> None:
        self.host = host
        self.port = port
        # keyed by (client_ip, client_port) -> rcv_nxt
        self.sessions: Dict[Tuple[Ipv4Address, int], int] = {}
        self.bytes_received: Dict[Tuple[Ipv4Address, int], int] = {}

    def segment_received(self, src_ip: Ipv4Address, src_port: int, seq: int,
                         flags: int, payload_len: int) -> None:
        key = (src_ip, src_port)
        if flags & _SYN:
            self.sessions[key] = (seq + 1) & 0xFFFFFFFF
            self.bytes_received[key] = 0
            self._send(src_ip, src_port, _SYN | _ACK, seq=0, ack=self.sessions[key])
            return
        if key not in self.sessions:
            self._send(src_ip, src_port, _RST, seq=0, ack=0)
            return
        rcv_nxt = self.sessions[key]
        if flags & _FIN:
            self._send(src_ip, src_port, _FIN | _ACK,
                       seq=1, ack=(rcv_nxt + 1) & 0xFFFFFFFF)
            self.sessions.pop(key, None)
            return
        if payload_len:
            if seq == rcv_nxt:
                rcv_nxt = (rcv_nxt + payload_len) & 0xFFFFFFFF
                self.sessions[key] = rcv_nxt
                self.bytes_received[key] += payload_len
            # Cumulative ack either way (duplicate ack on out-of-order).
            self._send(src_ip, src_port, _ACK, seq=1, ack=rcv_nxt)

    def _send(self, dst_ip: Ipv4Address, dst_port: int, flags: int,
              seq: int, ack: int) -> None:
        self.host.send_ip(dst_ip, _TCP,
                          pack_segment(self.port, dst_port, seq, ack, flags))


class _IperfClient:
    """A duration-bounded go-back-N bulk sender."""

    MSS = 1460
    WINDOW = 65535
    _FULL_SEGMENT = bytes(MSS)
    SYN_RETRIES = 5
    SYN_TIMEOUT = 1.0
    RTO = 0.5

    def __init__(
        self,
        host: "Host",
        target: Ipv4Address,
        port: int,
        duration: float,
        src_port: int,
    ) -> None:
        self.host = host
        self.target = target
        self.port = port
        self.duration = duration
        self.src_port = src_port
        self.result = IperfResult(target, duration)
        self.done = Signal(host.engine, name=f"{host.name}.iperf.{src_port}")
        self.established = False
        self.finished = False
        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_max = 0  # highest byte ever sent (survives go-back-N resets)
        self._syn_attempts = 0
        self._deadline: Optional[float] = None
        self._rto_event = None
        self._give_up_event = None

    def start(self) -> None:
        self._send_syn()

    def _send_syn(self) -> None:
        if self.established or self.finished:
            return
        if self._syn_attempts >= self.SYN_RETRIES:
            self._finish()
            return
        self._syn_attempts += 1
        self._send(_SYN, seq=0, ack=0)
        self.host.engine.schedule(self.SYN_TIMEOUT, self._send_syn)

    def segment_received(self, ack: int, flags: int) -> None:
        if self.finished:
            return
        if flags & _RST:
            self._finish()
            return
        if flags & _SYN and flags & _ACK and not self.established:
            self.established = True
            self.result.connected = True
            self._deadline = self.host.engine.now + self.duration
            self._give_up_event = self.host.engine.schedule(
                self.duration + 10.0, self._finish
            )
            self._try_send()
            return
        if flags & _ACK and self.established:
            acked = (ack - 1) & 0xFFFFFFFF  # data bytes acked (seq starts at 1)
            if acked > self.snd_una:
                self.result.bytes_acked = acked
                self.snd_una = acked
                self._restart_rto()
            self._try_send()

    def _try_send(self) -> None:
        if self.finished or not self.established:
            return
        now = self.host.engine.now
        if self._deadline is not None and now >= self._deadline:
            if self.snd_una >= self.snd_max:
                self._send(_FIN | _ACK, seq=self.snd_max + 1, ack=1)
                self._finish()
            else:
                # Past the deadline with unacked data: retransmit the
                # outstanding window, but generate no new data.
                limit = min(self.snd_una + self.WINDOW, self.snd_max)
                while self.snd_nxt < limit:
                    chunk = min(self.MSS, limit - self.snd_nxt)
                    self._send(_ACK, seq=self.snd_nxt + 1, ack=1,
                               payload=bytes(chunk))
                    self.snd_nxt += chunk
                if self._rto_event is None:
                    self._restart_rto()
            return
        payload = self._FULL_SEGMENT
        while self.snd_nxt - self.snd_una < self.WINDOW:
            self._send(_ACK, seq=self.snd_nxt + 1, ack=1, payload=payload)
            self.snd_nxt += self.MSS
            self.snd_max = max(self.snd_max, self.snd_nxt)
        if self._rto_event is None:
            self._restart_rto()

    def _restart_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
        self._rto_event = self.host.engine.schedule(self.RTO, self._rto_fired)

    def _rto_fired(self) -> None:
        self._rto_event = None
        if self.finished or not self.established:
            return
        if self.snd_una < self.snd_max:
            # Go-back-N: retransmit the window from the last cumulative ack.
            self.result.retransmits += 1
            self.snd_nxt = self.snd_una
            self._try_send()
        elif self._deadline is not None and self.host.engine.now >= self._deadline:
            self._finish()
        else:
            self._try_send()

    def _send(self, flags: int, seq: int, ack: int, payload: bytes = b"") -> None:
        self.host.send_ip(self.target, _TCP, pack_segment(
            self.src_port, self.port, seq, ack, flags, payload))

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        if self._rto_event is not None:
            self._rto_event.cancel()
        if self._give_up_event is not None:
            self._give_up_event.cancel()
        if self._deadline is not None:
            elapsed = min(self.duration, max(1e-9, self.host.engine.now - (self._deadline - self.duration)))
            self.result.duration_s = max(elapsed, 1e-9) if elapsed > 0 else self.duration
        self.host._iperf_clients.pop(self.src_port, None)
        self.done.fire(self.result)


class Host:
    """A simulated end host with one network interface."""

    ARP_RETRIES = 3
    ARP_TIMEOUT = 1.0

    _icmp_id = itertools.count(1)
    _ephemeral = itertools.count(49152)

    def __init__(
        self,
        engine: SimulationEngine,
        name: str,
        mac: MacAddress,
        ip: Ipv4Address,
    ) -> None:
        self.engine = engine
        self.name = name
        self.mac = MacAddress(mac)
        self.ip = Ipv4Address(ip)
        self._transmit: Optional[Callable[[bytes], None]] = None

        self.arp_table: Dict[Ipv4Address, MacAddress] = {}
        # Unresolved destinations -> queued (protocol, L4 bytes).
        self._arp_pending: Dict[Ipv4Address, List[Tuple[int, bytes]]] = {}
        self._arp_attempts: Dict[Ipv4Address, int] = {}

        self._ping_runs: Dict[int, _PingRun] = {}
        self._iperf_servers: Dict[int, _IperfServer] = {}
        self._iperf_clients: Dict[int, _IperfClient] = {}
        self._udp_handlers: Dict[int, Callable[[Ipv4Address, UdpDatagram], None]] = {}
        # (dst_mac, dst_ip, protocol, L4 length, (tp_src, tp_dst)) ->
        # (Ethernet+IPv4 prefix, flow base, base tuple); see _ip_frame.
        self._tx_prefixes: Dict[tuple, tuple] = {}

        self.stats: Dict[str, int] = {
            "tx_frames": 0,
            "rx_frames": 0,
            "arp_requests_sent": 0,
            "arp_replies_sent": 0,
            "icmp_requests_answered": 0,
            "arp_resolution_failures": 0,
        }

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def attach(self, transmit: Callable[[bytes], None]) -> None:
        """Bind the host NIC to its access link."""
        self._transmit = transmit

    def _send_frame(self, data: bytes) -> None:
        if self._transmit is None:
            raise RuntimeError(f"host {self.name} is not attached to a link")
        self.stats["tx_frames"] += 1
        self._transmit(data)

    def inject_frame(self, data: bytes) -> None:
        """Put pre-packed frame bytes on the wire as-is.

        The traffic-generator subsystem synthesizes frames from templates
        (``repro.workloads``) — including spoofed source MACs/IPs the
        normal stack would never emit — so they bypass ARP resolution and
        the host's own frame construction entirely.
        """
        self._send_frame(data)

    # ------------------------------------------------------------------ #
    # ARP + IP send path
    # ------------------------------------------------------------------ #

    def send_ip(self, dst_ip: Ipv4Address, protocol: int, payload: bytes) -> None:
        """Send an IPv4 packet, resolving the destination MAC first."""
        dst_ip = Ipv4Address(dst_ip)
        dst_mac = self.arp_table.get(dst_ip)
        if dst_mac is not None:
            self._send_frame(self._ip_frame(dst_mac, dst_ip, protocol, payload))
            return
        self._arp_pending.setdefault(dst_ip, []).append((protocol, payload))
        if self._arp_attempts.get(dst_ip, 0) == 0:
            self._arp_attempts[dst_ip] = 0
            self._send_arp_request(dst_ip)

    def _ip_frame(self, dst_mac: MacAddress, dst_ip: Ipv4Address,
                  protocol: int, payload: bytes) -> bytes:
        """``payload`` behind its Ethernet+IPv4 prefix, as a keyed frame.

        The prefix (identification 0, TTL 64, no options) and the flow
        key are fully determined by the cache key, so both are built once
        per key; the bytes equal ``EthernetFrame(dst_mac, self.mac, IPV4,
        Ipv4Packet(self.ip, dst_ip, protocol, payload).pack()).pack()``.
        """
        length = len(payload)
        try:
            tp = extract_tp_fields(protocol, payload, 0, length)
        except ValueError:
            tp = None  # not an echo ICMP type: see _prefix_entry
        key = (dst_mac, dst_ip, protocol, length, tp)
        entry = self._tx_prefixes.get(key)
        if entry is None:
            entry = self._prefix_entry(key, payload)
        prefix, base, base_tuple = entry
        if base is None:
            return prefix + payload
        return fastframe.keyed_frame(prefix + payload, base, base_tuple)

    def _prefix_entry(self, key: tuple, payload: bytes) -> tuple:
        dst_mac, dst_ip, protocol, length, tp = key
        header = Ipv4Packet(self.ip, dst_ip, protocol, bytes(length)).pack()[:20]
        prefix = EthernetFrame(dst_mac, self.mac, EtherType.IPV4, header).pack()
        if tp is None:
            # Unkeyable: the frame goes out plain and the first switch
            # hop's extraction raises, as it always has.
            entry = (prefix, None, None)
        else:
            base = extract_flow_base(prefix + payload)
            entry = (prefix, base, tuple(base[name] for name in _BASE_NAMES))
        if len(self._tx_prefixes) >= _PREFIX_CACHE_MAX:
            self._tx_prefixes.clear()
        self._tx_prefixes[key] = entry
        return entry

    def _send_arp_request(self, dst_ip: Ipv4Address) -> None:
        if dst_ip in self.arp_table or dst_ip not in self._arp_pending:
            return
        attempts = self._arp_attempts.get(dst_ip, 0)
        if attempts >= self.ARP_RETRIES:
            dropped = self._arp_pending.pop(dst_ip, [])
            self._arp_attempts.pop(dst_ip, None)
            self.stats["arp_resolution_failures"] += len(dropped)
            return
        self._arp_attempts[dst_ip] = attempts + 1
        self.stats["arp_requests_sent"] += 1
        arp = ArpPacket.request(self.mac, self.ip, dst_ip)
        self._send_frame(
            EthernetFrame(BROADCAST_MAC, self.mac, EtherType.ARP, arp.pack()).pack()
        )
        self.engine.schedule(self.ARP_TIMEOUT, self._send_arp_request, dst_ip)

    # ------------------------------------------------------------------ #
    # Receive path
    # ------------------------------------------------------------------ #

    def frame_received(self, data: bytes) -> None:
        """Entry point for frames arriving from the access link.

        Dispatches on the frame's flow base (see the module docstring);
        raises what ``extract_flow_base`` raises — ``FrameDecodeError``
        for a runt, ``ValueError`` for an unknown ARP opcode or ICMP type.
        """
        self.stats["rx_frames"] += 1
        base = fastframe.flow_base(data)
        dst = base["dl_dst"]
        if dst != self.mac and not dst.is_multicast:  # broadcast is multicast
            return  # not for us (flooded unicast for another host)
        dl_type = base["dl_type"]
        if dl_type == _ETHERTYPE_IPV4:
            if base["tp_src"] is not None and base["nw_dst"] == self.ip:
                self._handle_ip(data, base)
        elif dl_type == _ETHERTYPE_ARP and base["nw_proto"] is not None:
            self._handle_arp(ArpPacket.unpack(data[_L3_OFFSET:]))

    def _handle_arp(self, arp: ArpPacket) -> None:
        # Opportunistic learning from both requests and replies.
        self.arp_table[arp.sender_ip] = arp.sender_mac
        self._flush_pending(arp.sender_ip)
        if arp.is_request and arp.target_ip == self.ip:
            self.stats["arp_replies_sent"] += 1
            reply = ArpPacket.reply(self.mac, self.ip, arp.sender_mac, arp.sender_ip)
            self._send_frame(
                EthernetFrame(arp.sender_mac, self.mac, EtherType.ARP, reply.pack()).pack()
            )

    def _flush_pending(self, ip: Ipv4Address) -> None:
        mac = self.arp_table.get(ip)
        pending = self._arp_pending.pop(ip, [])
        self._arp_attempts.pop(ip, None)
        if mac is None:
            return
        for protocol, payload in pending:
            self._send_frame(self._ip_frame(mac, ip, protocol, payload))

    def _handle_ip(self, data: bytes, base: dict) -> None:
        """An IPv4 packet for this host whose L4 header decodes."""
        protocol = base["nw_proto"]
        if protocol == _TCP:
            total_length, seq, ack, flags = _TCP_STATE.unpack_from(data, 16)
            server = self._iperf_servers.get(base["tp_dst"])
            if server is not None:
                server.segment_received(base["nw_src"], base["tp_src"], seq,
                                        flags, total_length - _HEADERS_LEN)
                return
            client = self._iperf_clients.get(base["tp_dst"])
            if client is not None:
                client.segment_received(ack, flags)
            return
        (total_length,) = _TOTAL_LENGTH.unpack_from(data, 16)
        l4 = data[_L4_OFFSET:_L3_OFFSET + total_length]
        if protocol == _ICMP:
            echo = IcmpEcho.unpack(l4)
            if echo.is_request:
                self.stats["icmp_requests_answered"] += 1
                self.send_ip(base["nw_src"], _ICMP, echo.reply().pack())
            else:
                run = self._ping_runs.get(echo.identifier)
                if run is not None:
                    run.reply_received(echo.sequence)
        elif protocol == _UDP:
            datagram = UdpDatagram.unpack(l4)
            handler = self._udp_handlers.get(datagram.dst_port)
            if handler is not None:
                handler(base["nw_src"], datagram)

    # ------------------------------------------------------------------ #
    # Workloads
    # ------------------------------------------------------------------ #

    def ping(
        self,
        target: Ipv4Address,
        count: int = 1,
        interval: float = 1.0,
        timeout: float = 1.0,
    ) -> _PingRun:
        """Start a ping series; returns a run whose ``done`` signal fires
        with a :class:`PingResult`."""
        identifier = next(Host._icmp_id) & 0xFFFF
        run = _PingRun(self, Ipv4Address(target), count, interval, timeout, identifier)
        self._ping_runs[identifier] = run
        run.start()
        return run

    def start_iperf_server(self, port: int = 5001) -> _IperfServer:
        """Listen for iperf-style TCP transfers on ``port``."""
        server = _IperfServer(self, port)
        self._iperf_servers[port] = server
        return server

    def stop_iperf_server(self, port: int = 5001) -> None:
        self._iperf_servers.pop(port, None)

    def run_iperf_client(
        self,
        target: Ipv4Address,
        port: int = 5001,
        duration: float = 10.0,
    ) -> _IperfClient:
        """Start a TCP bulk transfer; ``done`` fires with an IperfResult."""
        src_port = next(Host._ephemeral) & 0xFFFF
        client = _IperfClient(self, Ipv4Address(target), port, duration, src_port)
        self._iperf_clients[src_port] = client
        client.start()
        return client

    def register_udp_handler(
        self, port: int, handler: Callable[[Ipv4Address, UdpDatagram], None]
    ) -> None:
        self._udp_handlers[port] = handler

    def send_udp(self, dst_ip: Ipv4Address, src_port: int, dst_port: int, payload: bytes) -> None:
        datagram = UdpDatagram(src_port, dst_port, payload)
        self.send_ip(dst_ip, IpProtocol.UDP, datagram.pack())

    def __repr__(self) -> str:
        return f"<Host {self.name} {self.ip}({self.mac})>"
