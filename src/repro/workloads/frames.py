"""Pre-packed frame templates: batch packet synthesis for the fast lane.

Naive generation builds an ``EthernetFrame``/``Ipv4Packet``/L4 object
graph per packet and re-runs ``internet_checksum`` over the whole header
— at flood rates the generator, not the network, dominates the benchmark.
A :class:`FrameTemplate` packs that object graph **once** into a mutable
buffer and then patches only the bytes that vary per packet (ports,
addresses, ICMP ident/seq), fixing checksums incrementally per RFC 1624
(``HC' = ~(~HC + ~m + m')``) instead of re-summing the header.

Templates also keep the PR 3 flow-key caches warm: the patched field
dict is maintained *alongside* the bytes, so :meth:`emit` can hand the
switch a :class:`~repro.netlib.fastframe.FastFrame` whose ``_base`` is
already populated — the first hop never parses the frame at all.  With
the fast lane disabled (A/B runs) ``emit`` returns plain bytes and every
hop extracts on demand; either way the bytes are identical, which the
determinism tests pin against ``extract_flow_base``.

Byte layout (no VLAN, IHL=5, offsets from frame start)::

    0  dl_dst   6  dl_src   12 ethertype
    14 IPv4: ver/ihl .. 24 checksum  26 nw_src  30 nw_dst
    34 L4: tp_src  36 tp_dst  (ICMP: 34 type/code 36 csum 38 id 40 seq)
    14 ARP: .. 22 sender_mac  28 sender_ip  32 target_mac  38 target_ip
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Union

from repro.netlib import fastframe
from repro.netlib.addresses import Ipv4Address, MacAddress
from repro.netlib.arp import ArpPacket
from repro.netlib.ethernet import EtherType, EthernetFrame
from repro.netlib.flowkey import MATCH_FIELD_NAMES, extract_flow_base
from repro.netlib.icmp import IcmpEcho
from repro.netlib.ipv4 import IpProtocol, Ipv4Packet
from repro.netlib.tcp import TcpFlags, TcpSegment
from repro.netlib.udp import UdpDatagram

_BASE_NAMES = MATCH_FIELD_NAMES[1:]  # the eleven port-independent fields
_FIELD_POS = {name: i for i, name in enumerate(_BASE_NAMES)}

# Fixed offsets (frame start; untagged Ethernet, IHL=5).
_DL_DST = 0
_DL_SRC = 6
_IP_CSUM = 24
_NW_SRC = 26
_NW_DST = 30
_TP_SRC = 34
_TP_DST = 36
_ICMP_CSUM = 36
_ICMP_ID = 38
_ICMP_SEQ = 40
_ARP_SENDER_MAC = 22
_ARP_SENDER_IP = 28
_ARP_TARGET_MAC = 32
_ARP_TARGET_IP = 38

_U16 = struct.Struct("!H")


def _csum_patch(buf: bytearray, csum_off: int, word_off: int, new: int) -> None:
    """Replace the 16-bit word at ``word_off`` and incrementally fix the
    one's-complement checksum at ``csum_off`` (RFC 1624 eqn. 3)."""
    old = (buf[word_off] << 8) | buf[word_off + 1]
    buf[word_off] = new >> 8
    buf[word_off + 1] = new & 0xFF
    hc = (buf[csum_off] << 8) | buf[csum_off + 1]
    x = (~hc & 0xFFFF) + (~old & 0xFFFF) + new
    x = (x & 0xFFFF) + (x >> 16)
    x = (x & 0xFFFF) + (x >> 16)
    buf[csum_off] = (~x >> 8) & 0xFF
    buf[csum_off + 1] = ~x & 0xFF


class FrameTemplate:
    """One mutable wire image plus its live flow-key fields.

    Build via the class methods (:meth:`udp`, :meth:`tcp_syn`,
    :meth:`icmp_echo`, :meth:`arp`), patch the varying fields, and call
    :meth:`emit` once per packet.  Patches mutate the template in place —
    a source cycling N flows patches the same template N times per batch.
    """

    __slots__ = ("buf", "fields", "_values")

    def __init__(self, packed: bytes) -> None:
        self.buf = bytearray(packed)
        # The authoritative key for the current bytes; patch methods keep
        # it in lockstep (pinned by tests against extract_flow_base).
        self.fields: Dict[str, Any] = extract_flow_base(packed)
        self._values = [self.fields[name] for name in _BASE_NAMES]

    # -------------------------------------------------------------- #
    # Builders
    # -------------------------------------------------------------- #

    @classmethod
    def udp(cls, src_mac, dst_mac, src_ip, dst_ip,
            src_port: int, dst_port: int, payload: bytes = b"\x00" * 18
            ) -> "FrameTemplate":
        datagram = UdpDatagram(src_port, dst_port, payload)
        packet = Ipv4Packet(Ipv4Address(src_ip), Ipv4Address(dst_ip),
                            IpProtocol.UDP, datagram.pack())
        frame = EthernetFrame(MacAddress(dst_mac), MacAddress(src_mac),
                              EtherType.IPV4, packet.pack())
        return cls(frame.pack())

    @classmethod
    def tcp_syn(cls, src_mac, dst_mac, src_ip, dst_ip,
                src_port: int, dst_port: int) -> "FrameTemplate":
        segment = TcpSegment(src_port, dst_port, seq=0, ack=0,
                             flags=TcpFlags.SYN)
        packet = Ipv4Packet(Ipv4Address(src_ip), Ipv4Address(dst_ip),
                            IpProtocol.TCP, segment.pack())
        frame = EthernetFrame(MacAddress(dst_mac), MacAddress(src_mac),
                              EtherType.IPV4, packet.pack())
        return cls(frame.pack())

    @classmethod
    def icmp_echo(cls, src_mac, dst_mac, src_ip, dst_ip,
                  identifier: int = 1, sequence: int = 0,
                  payload: bytes = b"\x00" * 48) -> "FrameTemplate":
        echo = IcmpEcho.request(identifier, sequence, payload)
        packet = Ipv4Packet(Ipv4Address(src_ip), Ipv4Address(dst_ip),
                            IpProtocol.ICMP, echo.pack())
        frame = EthernetFrame(MacAddress(dst_mac), MacAddress(src_mac),
                              EtherType.IPV4, packet.pack())
        return cls(frame.pack())

    @classmethod
    def arp(cls, src_mac, dst_mac, sender_mac, sender_ip,
            target_mac, target_ip, reply: bool = True) -> "FrameTemplate":
        if reply:
            arp = ArpPacket.reply(MacAddress(sender_mac), Ipv4Address(sender_ip),
                                  MacAddress(target_mac), Ipv4Address(target_ip))
        else:
            arp = ArpPacket.request(MacAddress(sender_mac),
                                    Ipv4Address(sender_ip),
                                    Ipv4Address(target_ip))
        frame = EthernetFrame(MacAddress(dst_mac), MacAddress(src_mac),
                              EtherType.ARP, arp.pack())
        return cls(frame.pack())

    # -------------------------------------------------------------- #
    # Field patches (bytes + flow key, in lockstep)
    # -------------------------------------------------------------- #

    def _set_field(self, name: str, value: Any) -> None:
        self.fields[name] = value
        self._values[_FIELD_POS[name]] = value

    def _put_mac(self, offset: int, mac: MacAddress) -> None:
        self.buf[offset:offset + 6] = mac.packed

    def set_dl_src(self, mac: Union[MacAddress, int, bytes]) -> None:
        mac = MacAddress(mac)
        self._put_mac(_DL_SRC, mac)
        self._set_field("dl_src", mac)

    def set_dl_dst(self, mac: Union[MacAddress, int, bytes]) -> None:
        mac = MacAddress(mac)
        self._put_mac(_DL_DST, mac)
        self._set_field("dl_dst", mac)

    def set_nw_src(self, ip: Union[Ipv4Address, int, bytes]) -> None:
        ip = Ipv4Address(ip)
        value = int(ip)
        _csum_patch(self.buf, _IP_CSUM, _NW_SRC, value >> 16)
        _csum_patch(self.buf, _IP_CSUM, _NW_SRC + 2, value & 0xFFFF)
        self._set_field("nw_src", ip)

    def set_nw_dst(self, ip: Union[Ipv4Address, int, bytes]) -> None:
        ip = Ipv4Address(ip)
        value = int(ip)
        _csum_patch(self.buf, _IP_CSUM, _NW_DST, value >> 16)
        _csum_patch(self.buf, _IP_CSUM, _NW_DST + 2, value & 0xFFFF)
        self._set_field("nw_dst", ip)

    def set_tp_src(self, port: int) -> None:
        # UDP/TCP checksums are unused in this stack (packed as zero),
        # so a port patch is a bare word write.
        _U16.pack_into(self.buf, _TP_SRC, port)
        self._set_field("tp_src", port)

    def set_tp_dst(self, port: int) -> None:
        _U16.pack_into(self.buf, _TP_DST, port)
        self._set_field("tp_dst", port)

    def set_icmp_ident(self, identifier: int) -> None:
        # Not a flow-key field (ICMP keys on type/code); checksum is real.
        _csum_patch(self.buf, _ICMP_CSUM, _ICMP_ID, identifier)

    def set_icmp_seq(self, sequence: int) -> None:
        _csum_patch(self.buf, _ICMP_CSUM, _ICMP_SEQ, sequence)

    def set_arp_sender(self, mac: Union[MacAddress, int, bytes],
                       ip: Union[Ipv4Address, int, bytes]) -> None:
        mac, ip = MacAddress(mac), Ipv4Address(ip)
        self._put_mac(_ARP_SENDER_MAC, mac)
        self.buf[_ARP_SENDER_IP:_ARP_SENDER_IP + 4] = ip.packed
        self._set_field("nw_src", ip)

    def set_arp_target(self, mac: Union[MacAddress, int, bytes],
                       ip: Union[Ipv4Address, int, bytes]) -> None:
        mac, ip = MacAddress(mac), Ipv4Address(ip)
        self._put_mac(_ARP_TARGET_MAC, mac)
        self.buf[_ARP_TARGET_IP:_ARP_TARGET_IP + 4] = ip.packed
        self._set_field("nw_dst", ip)

    # -------------------------------------------------------------- #
    # Emission
    # -------------------------------------------------------------- #

    def emit(self) -> bytes:
        """Freeze the current buffer into one outgoing frame.

        With the fast lane on, the frame is a FastFrame born with its
        ``_base``/``_base_tuple`` caches populated from a snapshot of the
        template's live field dict (``fastframe.keyed_frame``) —
        ``fastframe.intern`` passes FastFrames through untouched, so no
        hop ever re-extracts the key.
        """
        return fastframe.keyed_frame(
            bytes(self.buf), dict(self.fields), tuple(self._values)
        )

    def __len__(self) -> int:
        return len(self.buf)
