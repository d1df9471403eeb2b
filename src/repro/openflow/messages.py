"""OpenFlow 1.0 message pack/unpack.

Every class round-trips: ``parse_message(msg.pack()) == msg``.  The ATTAIN
injector's protocol encoder/decoder (Section VI-B2) is a thin bridge over
this module.
"""

from __future__ import annotations

import struct
from typing import ClassVar, Dict, List, Optional, Type

from repro.netlib.addresses import MacAddress
from repro.openflow.actions import Action, ActionDecodeError
from repro.openflow.constants import (
    OFP_HEADER_SIZE,
    OFP_NO_BUFFER,
    OFP_VERSION,
    ConfigFlags,
    ErrorType,
    FlowModCommand,
    FlowRemovedReason,
    MessageType,
    PacketInReason,
    Port,
    PortReason,
    StatsType,
)
from repro.openflow.match import MATCH_SIZE, Match

_HEADER = struct.Struct("!BBHI")
_XID_MAX = 0xFFFFFFFF
_xid_next = 1

#: Header type byte -> MessageType name, for header-only peeks.
_TYPE_NAME_BY_ID: Dict[int, str] = {int(t): t.name for t in MessageType}


class OpenFlowDecodeError(Exception):
    """Raised when bytes cannot be decoded as an OpenFlow 1.0 message."""


def next_xid() -> int:
    """Allocate a fresh transaction id in [1, 2^32 - 1].

    xid 0 is reserved for unsolicited messages, so the counter wraps back
    to 1 instead of masking (a masked ``count & 0xFFFFFFFF`` would emit 0
    once every 2^32 allocations).
    """
    global _xid_next
    xid = _xid_next
    _xid_next = 1 if xid >= _XID_MAX else xid + 1
    return xid


def reset_xid_counter() -> None:
    """Restart xid allocation at 1 (pooled-worker run isolation).

    A reused campaign worker must allocate the same xids a fresh process
    would, or message bytes — and therefore traces — depend on how many
    runs the worker executed before this one.
    """
    global _xid_next
    _xid_next = 1


def peek_xid(data: bytes) -> Optional[int]:
    """Header-only transaction-id peek — no body decode.

    Returns ``None`` when the buffer cannot plausibly hold an OpenFlow
    1.0 message (same acceptance rule as :func:`peek_message_type_name`).
    """
    if len(data) < OFP_HEADER_SIZE:
        return None
    version, _msg_type, length, xid = _HEADER.unpack_from(data)
    if version != OFP_VERSION or length < OFP_HEADER_SIZE:
        return None
    return xid


def peek_message_type_name(data: bytes) -> Optional[str]:
    """Header-only message-type peek — no body decode.

    Returns the :class:`MessageType` name from the 8-byte header, or
    ``None`` when the buffer cannot plausibly hold an OpenFlow 1.0 message
    (too short, wrong version, impossible length, unknown type).  This is an
    over-approximation of :func:`parse_message`: whenever a full parse would
    succeed, the peek returns the same type name.
    """
    if len(data) < OFP_HEADER_SIZE:
        return None
    version, msg_type, length, _xid = _HEADER.unpack_from(data)
    if version != OFP_VERSION or length < OFP_HEADER_SIZE:
        return None
    return _TYPE_NAME_BY_ID.get(msg_type)


class OpenFlowMessage:
    """Base class: 8-byte OpenFlow header + type-specific body."""

    message_type: ClassVar[MessageType]
    _registry: ClassVar[Dict[int, Type["OpenFlowMessage"]]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if hasattr(cls, "message_type"):
            OpenFlowMessage._registry[int(cls.message_type)] = cls

    def __init__(self, xid: Optional[int] = None) -> None:
        self.xid = next_xid() if xid is None else int(xid)

    def __setattr__(self, name: str, value) -> None:
        # Any direct field mutation invalidates the packed-bytes cache.
        # Nested mutation (match fields, action ports) cannot be seen here;
        # the message modifier calls invalidate_packed() explicitly.
        d = self.__dict__
        if "_packed" in d:
            del d["_packed"]
        d[name] = value

    def invalidate_packed(self) -> None:
        """Drop the cached wire bytes after a nested-field mutation."""
        self.__dict__.pop("_packed", None)

    # -- wire format --------------------------------------------------- #

    def pack_body(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "OpenFlowMessage":
        raise NotImplementedError

    def pack(self) -> bytes:
        packed = self.__dict__.get("_packed")
        if packed is None:
            body = self.pack_body()
            packed = (
                _HEADER.pack(
                    OFP_VERSION,
                    int(self.message_type),
                    OFP_HEADER_SIZE + len(body),
                    self.xid,
                )
                + body
            )
            self.__dict__["_packed"] = packed
        return packed

    def __len__(self) -> int:
        return OFP_HEADER_SIZE + len(self.pack_body())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OpenFlowMessage):
            return self.pack() == other.pack()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pack())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} xid={self.xid}>"


def parse_message(data: bytes) -> OpenFlowMessage:
    """Decode one complete OpenFlow message from bytes."""
    if len(data) < OFP_HEADER_SIZE:
        raise OpenFlowDecodeError(f"message shorter than header: {len(data)} bytes")
    version, msg_type, length, xid = _HEADER.unpack_from(data)
    if version != OFP_VERSION:
        raise OpenFlowDecodeError(f"unsupported OpenFlow version 0x{version:02x}")
    if length < OFP_HEADER_SIZE or length > len(data):
        raise OpenFlowDecodeError(
            f"header length {length} inconsistent with buffer {len(data)}"
        )
    body = data[OFP_HEADER_SIZE:length]
    cls = OpenFlowMessage._registry.get(msg_type)
    if cls is None:
        raise OpenFlowDecodeError(f"unknown OpenFlow message type {msg_type}")
    try:
        return cls.unpack_body(body, xid)
    except (struct.error, ValueError, ActionDecodeError) as exc:
        # ValueError covers out-of-range enum fields and ActionDecodeError
        # a corrupted action TLV — what fuzzed (FUZZMESSAGE) bytes
        # typically produce.
        raise OpenFlowDecodeError(f"malformed {cls.__name__} body: {exc}") from exc


# ---------------------------------------------------------------------- #
# Symmetric / immutable messages
# ---------------------------------------------------------------------- #


class _EmptyBodyMessage(OpenFlowMessage):
    def pack_body(self) -> bytes:
        return b""

    @classmethod
    def unpack_body(cls, body: bytes, xid: int):
        return cls(xid=xid)


class Hello(_EmptyBodyMessage):
    message_type = MessageType.HELLO


class FeaturesRequest(_EmptyBodyMessage):
    message_type = MessageType.FEATURES_REQUEST


class GetConfigRequest(_EmptyBodyMessage):
    message_type = MessageType.GET_CONFIG_REQUEST


class BarrierRequest(_EmptyBodyMessage):
    message_type = MessageType.BARRIER_REQUEST


class BarrierReply(_EmptyBodyMessage):
    message_type = MessageType.BARRIER_REPLY


class _EchoMessage(OpenFlowMessage):
    def __init__(self, payload: bytes = b"", xid: Optional[int] = None) -> None:
        super().__init__(xid=xid)
        self.payload = bytes(payload)

    def pack_body(self) -> bytes:
        return self.payload

    @classmethod
    def unpack_body(cls, body: bytes, xid: int):
        return cls(payload=body, xid=xid)


class EchoRequest(_EchoMessage):
    message_type = MessageType.ECHO_REQUEST


class EchoReply(_EchoMessage):
    message_type = MessageType.ECHO_REPLY

    @classmethod
    def for_request(cls, request: EchoRequest) -> "EchoReply":
        return cls(payload=request.payload, xid=request.xid)


class ErrorMessage(OpenFlowMessage):
    """``OFPT_ERROR`` — error type/code plus offending-message prefix."""

    message_type = MessageType.ERROR

    def __init__(
        self,
        error_type: int,
        code: int,
        data: bytes = b"",
        xid: Optional[int] = None,
    ) -> None:
        super().__init__(xid=xid)
        self.error_type = int(error_type)
        self.code = int(code)
        self.data = bytes(data)

    def pack_body(self) -> bytes:
        return struct.pack("!HH", self.error_type, self.code) + self.data

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "ErrorMessage":
        error_type, code = struct.unpack_from("!HH", body)
        return cls(error_type, code, body[4:], xid=xid)

    def __repr__(self) -> str:
        try:
            kind = ErrorType(self.error_type).name
        except ValueError:
            kind = str(self.error_type)
        return f"<ErrorMessage {kind} code={self.code} xid={self.xid}>"


class VendorMessage(OpenFlowMessage):
    """``OFPT_VENDOR`` — opaque vendor extension."""

    message_type = MessageType.VENDOR

    def __init__(self, vendor: int, data: bytes = b"", xid: Optional[int] = None) -> None:
        super().__init__(xid=xid)
        self.vendor = int(vendor)
        self.data = bytes(data)

    def pack_body(self) -> bytes:
        return struct.pack("!I", self.vendor) + self.data

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "VendorMessage":
        (vendor,) = struct.unpack_from("!I", body)
        return cls(vendor, body[4:], xid=xid)


# ---------------------------------------------------------------------- #
# Switch configuration
# ---------------------------------------------------------------------- #


class _SwitchConfigMessage(OpenFlowMessage):
    def __init__(
        self,
        flags: int = ConfigFlags.FRAG_NORMAL,
        miss_send_len: int = 128,
        xid: Optional[int] = None,
    ) -> None:
        super().__init__(xid=xid)
        self.flags = int(flags)
        self.miss_send_len = int(miss_send_len)

    def pack_body(self) -> bytes:
        return struct.pack("!HH", self.flags, self.miss_send_len)

    @classmethod
    def unpack_body(cls, body: bytes, xid: int):
        flags, miss_send_len = struct.unpack_from("!HH", body)
        return cls(flags, miss_send_len, xid=xid)


class GetConfigReply(_SwitchConfigMessage):
    message_type = MessageType.GET_CONFIG_REPLY


class SetConfig(_SwitchConfigMessage):
    message_type = MessageType.SET_CONFIG


# ---------------------------------------------------------------------- #
# Features
# ---------------------------------------------------------------------- #

_PHY_PORT = struct.Struct("!H6s16sIIIIII")


class PhyPort:
    """``ofp_phy_port`` — a physical port description in FEATURES_REPLY."""

    __slots__ = ("port_no", "hw_addr", "name", "config", "state")

    def __init__(
        self,
        port_no: int,
        hw_addr: MacAddress,
        name: str,
        config: int = 0,
        state: int = 0,
    ) -> None:
        self.port_no = int(port_no)
        self.hw_addr = MacAddress(hw_addr)
        if len(name.encode("ascii")) > 15:
            raise ValueError(f"port name too long: {name!r}")
        self.name = name
        self.config = int(config)
        self.state = int(state)

    def pack(self) -> bytes:
        return _PHY_PORT.pack(
            self.port_no,
            self.hw_addr.packed,
            self.name.encode("ascii").ljust(16, b"\x00"),
            self.config,
            self.state,
            0,
            0,
            0,
            0,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "PhyPort":
        port_no, hw_addr, name, config, state, _c, _a, _s, _p = _PHY_PORT.unpack_from(data)
        return cls(
            port_no,
            MacAddress(hw_addr),
            name.rstrip(b"\x00").decode("ascii"),
            config,
            state,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PhyPort):
            return self.pack() == other.pack()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pack())

    def __repr__(self) -> str:
        return f"PhyPort({self.port_no}, {self.name!r})"


class FeaturesReply(OpenFlowMessage):
    """``OFPT_FEATURES_REPLY`` — datapath id, capabilities, and ports."""

    message_type = MessageType.FEATURES_REPLY

    def __init__(
        self,
        datapath_id: int,
        n_buffers: int = 256,
        n_tables: int = 1,
        capabilities: int = 0,
        actions: int = 0xFFF,
        ports: Optional[List[PhyPort]] = None,
        xid: Optional[int] = None,
    ) -> None:
        super().__init__(xid=xid)
        self.datapath_id = int(datapath_id)
        self.n_buffers = int(n_buffers)
        self.n_tables = int(n_tables)
        self.capabilities = int(capabilities)
        self.actions = int(actions)
        self.ports = list(ports or [])

    def pack_body(self) -> bytes:
        fixed = struct.pack(
            "!QIB3xII",
            self.datapath_id,
            self.n_buffers,
            self.n_tables,
            self.capabilities,
            self.actions,
        )
        return fixed + b"".join(port.pack() for port in self.ports)

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "FeaturesReply":
        datapath_id, n_buffers, n_tables, capabilities, actions = struct.unpack_from(
            "!QIB3xII", body
        )
        ports = []
        offset = struct.calcsize("!QIB3xII")
        while offset + _PHY_PORT.size <= len(body):
            ports.append(PhyPort.unpack(body[offset : offset + _PHY_PORT.size]))
            offset += _PHY_PORT.size
        return cls(datapath_id, n_buffers, n_tables, capabilities, actions, ports, xid=xid)

    def __repr__(self) -> str:
        return (
            f"<FeaturesReply dpid=0x{self.datapath_id:x} ports={len(self.ports)} "
            f"xid={self.xid}>"
        )


# ---------------------------------------------------------------------- #
# Packet in / out
# ---------------------------------------------------------------------- #


class PacketIn(OpenFlowMessage):
    """``OFPT_PACKET_IN`` — a data-plane packet sent to the controller."""

    message_type = MessageType.PACKET_IN

    def __init__(
        self,
        buffer_id: int,
        total_len: int,
        in_port: int,
        reason: int,
        data: bytes = b"",
        xid: Optional[int] = None,
    ) -> None:
        super().__init__(xid=xid)
        self.buffer_id = int(buffer_id)
        self.total_len = int(total_len)
        self.in_port = int(in_port)
        self.reason = PacketInReason(reason)
        self.data = bytes(data)

    @classmethod
    def no_match(cls, buffer_id: int, in_port: int, data: bytes) -> "PacketIn":
        """Build the flow-table-miss PACKET_IN the attacks key on."""
        return cls(buffer_id, len(data), in_port, PacketInReason.NO_MATCH, data)

    def pack_body(self) -> bytes:
        return (
            struct.pack("!IHHBx", self.buffer_id, self.total_len, self.in_port, int(self.reason))
            + self.data
        )

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "PacketIn":
        buffer_id, total_len, in_port, reason = struct.unpack_from("!IHHBx", body)
        return cls(buffer_id, total_len, in_port, reason, body[10:], xid=xid)

    def __repr__(self) -> str:
        return (
            f"<PacketIn in_port={self.in_port} reason={self.reason.name} "
            f"len={self.total_len} buffer={self.buffer_id:#x} xid={self.xid}>"
        )


class PacketOut(OpenFlowMessage):
    """``OFPT_PACKET_OUT`` — controller-directed packet transmission."""

    message_type = MessageType.PACKET_OUT

    def __init__(
        self,
        buffer_id: int = OFP_NO_BUFFER,
        in_port: int = Port.NONE,
        actions: Optional[List[Action]] = None,
        data: bytes = b"",
        xid: Optional[int] = None,
    ) -> None:
        super().__init__(xid=xid)
        self.buffer_id = int(buffer_id)
        self.in_port = int(in_port)
        self.actions = list(actions or [])
        self.data = bytes(data)

    def pack_body(self) -> bytes:
        packed_actions = Action.pack_list(self.actions)
        return (
            struct.pack("!IHH", self.buffer_id, self.in_port, len(packed_actions))
            + packed_actions
            + self.data
        )

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "PacketOut":
        buffer_id, in_port, actions_len = struct.unpack_from("!IHH", body)
        actions_end = 8 + actions_len
        if actions_end > len(body):
            raise OpenFlowDecodeError("PACKET_OUT actions overflow body")
        actions = Action.unpack_list(body[8:actions_end])
        return cls(buffer_id, in_port, actions, body[actions_end:], xid=xid)

    def __repr__(self) -> str:
        return (
            f"<PacketOut in_port={self.in_port} actions={self.actions} "
            f"buffer={self.buffer_id:#x} xid={self.xid}>"
        )


# ---------------------------------------------------------------------- #
# Flow mod / flow removed
# ---------------------------------------------------------------------- #


class FlowMod(OpenFlowMessage):
    """``OFPT_FLOW_MOD`` — the message the suppression attack drops."""

    message_type = MessageType.FLOW_MOD

    def __init__(
        self,
        match: Match,
        command: int = FlowModCommand.ADD,
        cookie: int = 0,
        idle_timeout: int = 0,
        hard_timeout: int = 0,
        priority: int = 0x8000,
        buffer_id: int = OFP_NO_BUFFER,
        out_port: int = Port.NONE,
        flags: int = 0,
        actions: Optional[List[Action]] = None,
        xid: Optional[int] = None,
    ) -> None:
        super().__init__(xid=xid)
        self.match = match
        self.command = FlowModCommand(command)
        self.cookie = int(cookie)
        self.idle_timeout = int(idle_timeout)
        self.hard_timeout = int(hard_timeout)
        self.priority = int(priority)
        self.buffer_id = int(buffer_id)
        self.out_port = int(out_port)
        self.flags = int(flags)
        self.actions = list(actions or [])

    def pack_body(self) -> bytes:
        return (
            self.match.pack()
            + struct.pack(
                "!QHHHHIHH",
                self.cookie,
                int(self.command),
                self.idle_timeout,
                self.hard_timeout,
                self.priority,
                self.buffer_id,
                self.out_port,
                self.flags,
            )
            + Action.pack_list(self.actions)
        )

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "FlowMod":
        match = Match.unpack(body[:MATCH_SIZE])
        (
            cookie,
            command,
            idle_timeout,
            hard_timeout,
            priority,
            buffer_id,
            out_port,
            flags,
        ) = struct.unpack_from("!QHHHHIHH", body, MATCH_SIZE)
        actions = Action.unpack_list(body[MATCH_SIZE + 24 :])
        return cls(
            match,
            command,
            cookie,
            idle_timeout,
            hard_timeout,
            priority,
            buffer_id,
            out_port,
            flags,
            actions,
            xid=xid,
        )

    def __repr__(self) -> str:
        return (
            f"<FlowMod {self.command.name} {self.match!r} prio={self.priority} "
            f"idle={self.idle_timeout} hard={self.hard_timeout} xid={self.xid}>"
        )


class FlowRemoved(OpenFlowMessage):
    """``OFPT_FLOW_REMOVED`` — flow expiry notification."""

    message_type = MessageType.FLOW_REMOVED

    def __init__(
        self,
        match: Match,
        cookie: int,
        priority: int,
        reason: int,
        duration_sec: int = 0,
        duration_nsec: int = 0,
        idle_timeout: int = 0,
        packet_count: int = 0,
        byte_count: int = 0,
        xid: Optional[int] = None,
    ) -> None:
        super().__init__(xid=xid)
        self.match = match
        self.cookie = int(cookie)
        self.priority = int(priority)
        self.reason = FlowRemovedReason(reason)
        self.duration_sec = int(duration_sec)
        self.duration_nsec = int(duration_nsec)
        self.idle_timeout = int(idle_timeout)
        self.packet_count = int(packet_count)
        self.byte_count = int(byte_count)

    def pack_body(self) -> bytes:
        return self.match.pack() + struct.pack(
            "!QHBxIIH2xQQ",
            self.cookie,
            self.priority,
            int(self.reason),
            self.duration_sec,
            self.duration_nsec,
            self.idle_timeout,
            self.packet_count,
            self.byte_count,
        )

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "FlowRemoved":
        match = Match.unpack(body[:MATCH_SIZE])
        (
            cookie,
            priority,
            reason,
            duration_sec,
            duration_nsec,
            idle_timeout,
            packet_count,
            byte_count,
        ) = struct.unpack_from("!QHBxIIH2xQQ", body, MATCH_SIZE)
        return cls(
            match,
            cookie,
            priority,
            reason,
            duration_sec,
            duration_nsec,
            idle_timeout,
            packet_count,
            byte_count,
            xid=xid,
        )

    def __repr__(self) -> str:
        return f"<FlowRemoved {self.reason.name} {self.match!r} xid={self.xid}>"


# ---------------------------------------------------------------------- #
# Port status
# ---------------------------------------------------------------------- #


class PortStatus(OpenFlowMessage):
    """``OFPT_PORT_STATUS`` — asynchronous port change notification."""

    message_type = MessageType.PORT_STATUS

    def __init__(self, reason: int, port: PhyPort, xid: Optional[int] = None) -> None:
        super().__init__(xid=xid)
        self.reason = PortReason(reason)
        self.port = port

    def pack_body(self) -> bytes:
        return struct.pack("!B7x", int(self.reason)) + self.port.pack()

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "PortStatus":
        (reason,) = struct.unpack_from("!B7x", body)
        port = PhyPort.unpack(body[8:])
        return cls(reason, port, xid=xid)

    def __repr__(self) -> str:
        return f"<PortStatus {self.reason.name} {self.port!r} xid={self.xid}>"


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #


class StatsRequest(OpenFlowMessage):
    """``OFPT_STATS_REQUEST`` with an opaque body (DESC/FLOW/PORT...)."""

    message_type = MessageType.STATS_REQUEST

    def __init__(
        self,
        stats_type: int,
        body: bytes = b"",
        flags: int = 0,
        xid: Optional[int] = None,
    ) -> None:
        super().__init__(xid=xid)
        self.stats_type = StatsType(stats_type)
        self.flags = int(flags)
        self.body = bytes(body)

    def pack_body(self) -> bytes:
        return struct.pack("!HH", int(self.stats_type), self.flags) + self.body

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "StatsRequest":
        stats_type, flags = struct.unpack_from("!HH", body)
        return cls(stats_type, body[4:], flags, xid=xid)

    def __repr__(self) -> str:
        return f"<StatsRequest {self.stats_type.name} xid={self.xid}>"


class StatsReply(OpenFlowMessage):
    """``OFPT_STATS_REPLY`` with an opaque body."""

    message_type = MessageType.STATS_REPLY

    def __init__(
        self,
        stats_type: int,
        body: bytes = b"",
        flags: int = 0,
        xid: Optional[int] = None,
    ) -> None:
        super().__init__(xid=xid)
        self.stats_type = StatsType(stats_type)
        self.flags = int(flags)
        self.body = bytes(body)

    def pack_body(self) -> bytes:
        return struct.pack("!HH", int(self.stats_type), self.flags) + self.body

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "StatsReply":
        stats_type, flags = struct.unpack_from("!HH", body)
        return cls(stats_type, body[4:], flags, xid=xid)

    def __repr__(self) -> str:
        return f"<StatsReply {self.stats_type.name} xid={self.xid}>"
