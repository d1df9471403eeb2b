"""TCP segments (simplified header, no options) for the iperf-style workload."""

from __future__ import annotations

import struct
from enum import IntFlag

from repro.netlib.ethernet import FrameDecodeError


class TcpFlags(IntFlag):
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10


_HEADER = struct.Struct("!HHIIBBHHH")
_DATA_OFFSET = 5 << 4  # 20-byte header, no options


def pack_segment(
    src_port: int,
    dst_port: int,
    seq: int,
    ack: int,
    flags: int,
    payload: bytes = b"",
    window: int = 65535,
) -> bytes:
    """The wire bytes of ``TcpSegment(...).pack()`` without the object.

    One ``struct`` call; the host's iperf endpoints send every segment
    through here.  Out-of-range fields raise ``struct.error``.
    """
    return _HEADER.pack(
        src_port, dst_port, seq, ack, _DATA_OFFSET, flags, window, 0, 0
    ) + payload


class TcpSegment:
    """A TCP segment with a 20-byte header and no options.

    The host stack in :mod:`repro.dataplane.host` implements a simplified
    sliding-window transfer over these segments — enough to measure
    throughput the way ``iperf`` does in the paper's evaluation.
    """

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "window", "payload")

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        seq: int = 0,
        ack: int = 0,
        flags: TcpFlags = TcpFlags(0),
        window: int = 65535,
        payload: bytes = b"",
    ) -> None:
        for name, port in (("src_port", src_port), ("dst_port", dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port!r}")
        if not 0 <= seq < (1 << 32) or not 0 <= ack < (1 << 32):
            raise ValueError(f"sequence/ack out of range: seq={seq!r} ack={ack!r}")
        if not 0 <= window <= 0xFFFF:
            raise ValueError(f"window out of range: {window!r}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = TcpFlags(flags)
        self.window = window
        self.payload = bytes(payload)

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & TcpFlags.SYN)

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & TcpFlags.ACK)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & TcpFlags.FIN)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & TcpFlags.RST)

    def pack(self) -> bytes:
        return pack_segment(self.src_port, self.dst_port, self.seq, self.ack,
                            int(self.flags), self.payload, self.window)

    @classmethod
    def unpack(cls, data: bytes) -> "TcpSegment":
        if len(data) < _HEADER.size:
            raise FrameDecodeError(f"TCP segment too short: {len(data)} bytes")
        (
            src_port,
            dst_port,
            seq,
            ack,
            data_offset_byte,
            flags,
            window,
            _checksum,
            _urgent,
        ) = _HEADER.unpack_from(data)
        data_offset = data_offset_byte >> 4
        if data_offset != 5:
            raise FrameDecodeError(f"TCP options unsupported (data offset {data_offset})")
        return cls(src_port, dst_port, seq, ack, TcpFlags(flags), window, data[_HEADER.size :])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TcpSegment):
            return self.pack() == other.pack()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pack())

    def __repr__(self) -> str:
        names = [flag.name for flag in TcpFlags if flag & self.flags]
        flag_text = "|".join(name for name in names if name) or "none"
        return (
            f"<Tcp {self.src_port}->{self.dst_port} seq={self.seq} ack={self.ack} "
            f"[{flag_text}] len={len(self.payload)}>"
        )
