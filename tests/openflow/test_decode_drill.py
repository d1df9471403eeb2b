"""Decoder drill: damaged OpenFlow bytes raise only ``OpenFlowDecodeError``.

The switch, the controllers and the injector's proxy catch exactly
``OpenFlowDecodeError`` around ``parse_message``; any other exception a
corrupted message provokes escapes into the simulation engine.  FUZZMESSAGE
corrupts messages in flight, so every damaged encoding — truncated with a
consistent header, or with bytes overwritten — must either decode to some
message or raise ``OpenFlowDecodeError``.
"""

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.netlib.addresses import Ipv4Address, MacAddress
from repro.openflow import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    GetConfigReply,
    GetConfigRequest,
    Hello,
    Match,
    OpenFlowDecodeError,
    OpenFlowMessage,
    OutputAction,
    PacketIn,
    PacketOut,
    PhyPort,
    PortStatus,
    SetConfig,
    SetDlDstAction,
    SetDlSrcAction,
    SetNwDstAction,
    SetNwSrcAction,
    StripVlanAction,
    parse_message,
)
from repro.openflow.actions import SetTpDstAction, SetTpSrcAction
from repro.openflow.messages import VendorMessage
from repro.openflow.stats import FlowStatsEntry, flow_stats_reply, flow_stats_request

MATCH = Match(in_port=1, dl_src=MacAddress(1), dl_dst=MacAddress(2),
              dl_type=0x0800, nw_proto=6, nw_src=Ipv4Address("10.0.0.1"),
              nw_dst=Ipv4Address("10.0.0.2"), tp_src=40000, tp_dst=5001)
ACTIONS = [
    SetDlSrcAction(MacAddress(3)),
    SetDlDstAction(MacAddress(4)),
    SetNwSrcAction(Ipv4Address("10.0.0.3")),
    SetNwDstAction(Ipv4Address("10.0.0.4")),
    SetTpSrcAction(1234),
    SetTpDstAction(80),
    StripVlanAction(),
    OutputAction(2),
]
PORT = PhyPort(1, MacAddress(5), "s1-eth1")

#: One valid encoding of every OpenFlow 1.0 message type this library has.
MESSAGES = {
    "hello": Hello(xid=1),
    "error": ErrorMessage(1, 2, b"offending-prefix", xid=2),
    "echo-request": EchoRequest(b"ping", xid=3),
    "echo-reply": EchoReply(b"pong", xid=4),
    "vendor": VendorMessage(0x2320, b"nicira", xid=5),
    "features-request": FeaturesRequest(xid=6),
    "features-reply": FeaturesReply(0x1, ports=[PORT], xid=7),
    "get-config-request": GetConfigRequest(xid=8),
    "get-config-reply": GetConfigReply(xid=9),
    "set-config": SetConfig(xid=10),
    "packet-in": PacketIn(7, 60, 1, 0, b"\x00" * 60, xid=11),
    "flow-removed": FlowRemoved(MATCH, 5, 0x8000, 0, xid=12),
    "port-status": PortStatus(0, PORT, xid=13),
    "packet-out": PacketOut(actions=ACTIONS, data=b"\x00" * 60, xid=14),
    "flow-mod": FlowMod(MATCH, actions=ACTIONS, xid=15),
    "stats-request": flow_stats_request(xid=16),
    "stats-reply": flow_stats_reply([FlowStatsEntry(MATCH, actions=ACTIONS)],
                                    xid=17),
    "barrier-request": BarrierRequest(xid=18),
    "barrier-reply": BarrierReply(xid=19),
}
ENCODED = {name: message.pack() for name, message in MESSAGES.items()}

#: A FLOW_MOD whose action TLV length FUZZMESSAGE corrupted.
CORRUPT_ACTION_LENGTH = bytes.fromhex(
    "010e005000000004003820fe00010000000000000000000000000000000000000014"
    "0000000000000000000000000000000000f80000000000000000009b8000ffffffff"
    "ffff00000000b7080002ffff"
)


def decodes_or_raises_decode_error(data: bytes) -> None:
    try:
        message = parse_message(data)
    except OpenFlowDecodeError:
        return
    assert isinstance(message, OpenFlowMessage)


def with_length(data: bytes) -> bytes:
    """``data`` with its header length rewritten to match the buffer."""
    return data[:2] + struct.pack("!H", len(data)) + data[4:]


def test_corpus_covers_every_message_type():
    assert {data[1] for data in ENCODED.values()} == set(
        OpenFlowMessage._registry)


@pytest.mark.parametrize("name", sorted(ENCODED))
def test_every_truncation_raises_only_decode_errors(name):
    data = ENCODED[name]
    for cut in range(len(data) + 1):
        decodes_or_raises_decode_error(data[:cut])
        if cut >= 4:
            decodes_or_raises_decode_error(with_length(data[:cut]))


def test_corrupt_action_length_is_a_decode_error():
    with pytest.raises(OpenFlowDecodeError, match="FlowMod"):
        parse_message(CORRUPT_ACTION_LENGTH)


@settings(max_examples=400, deadline=None)
@given(
    name=st.sampled_from(sorted(ENCODED)),
    edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)),
                   min_size=1, max_size=4),
    keep_length=st.booleans(),
)
@example(name="flow-mod", edits=[(74, 0xB7)], keep_length=True)
@example(name="packet-out", edits=[(18, 0xFF)], keep_length=True)
def test_byte_mutations_raise_only_decode_errors(name, edits, keep_length):
    data = bytearray(ENCODED[name])
    for position, value in edits:
        data[position % len(data)] = value
    if keep_length:
        data = bytearray(with_length(bytes(data)))
    decodes_or_raises_decode_error(bytes(data))
