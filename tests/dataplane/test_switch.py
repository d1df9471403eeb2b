"""Unit tests for the OpenFlow switch model.

These drive the switch directly through a scripted fake controller to pin
down the exact handshake/miss/fail-mode behaviours the attacks exploit.
"""

import pytest

from repro.dataplane import FailMode, OpenFlowSwitch, connect_endpoints
from repro.netlib import EtherType, EthernetFrame, MacAddress
from repro.openflow import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    GetConfigReply,
    GetConfigRequest,
    Hello,
    Match,
    MessageFramer,
    OutputAction,
    PacketIn,
    PacketOut,
    Port,
    SetConfig,
    StatsReply,
    StatsRequest,
    StatsType,
)
from repro.openflow.constants import OFP_NO_BUFFER, FlowModFlags, FlowRemovedReason
from repro.sim import SimulationEngine

MAC_A = MacAddress("00:00:00:00:00:0a")
MAC_B = MacAddress("00:00:00:00:00:0b")


def frame(src=MAC_A, dst=MAC_B, payload=b"data"):
    return EthernetFrame(dst, src, EtherType.IPV4, payload).pack()


class ScriptedController:
    """Accepts one switch connection; records decoded messages."""

    def __init__(self, engine, auto_handshake=True):
        self.engine = engine
        self.auto_handshake = auto_handshake
        self.channel = None
        self.framer = MessageFramer()
        self.messages = []
        self.closed = False

    def channel_opened(self, channel):
        self.channel = channel
        if self.auto_handshake:
            self.send(Hello())
            self.send(FeaturesRequest())

    def bytes_received(self, channel, data):
        for message in self.framer.feed(data):
            self.messages.append(message)
            if isinstance(message, EchoRequest):
                self.send(EchoReply.for_request(message))

    def channel_closed(self, channel):
        self.closed = True

    def send(self, message):
        if self.channel is not None and self.channel.open:
            self.channel.send(message.pack())

    def of_type(self, cls):
        return [m for m in self.messages if isinstance(m, cls)]


def build_rig(**switch_kwargs):
    engine = SimulationEngine()
    switch = OpenFlowSwitch(engine, "s1", datapath_id=0xBEEF, **switch_kwargs)
    sent_frames = {1: [], 2: []}
    switch.attach_port(1, lambda data: sent_frames[1].append(data))
    switch.attach_port(2, lambda data: sent_frames[2].append(data))
    controller = ScriptedController(engine)
    switch.set_connect_factory(
        lambda sw: connect_endpoints(engine, sw, controller, latency_s=0.001)[0]
    )
    switch.start()
    engine.run(until=1.0)
    return engine, switch, controller, sent_frames


@pytest.fixture
def rig():
    return build_rig()


class TestHandshake:
    def test_switch_completes_handshake(self, rig):
        _engine, switch, controller, _frames = rig
        assert switch.connected
        assert controller.of_type(Hello)
        reply = controller.of_type(FeaturesReply)[0]
        assert reply.datapath_id == 0xBEEF
        assert [p.port_no for p in reply.ports] == [1, 2]

    def test_echo_request_answered(self, rig):
        engine, switch, controller, _frames = rig
        controller.send(EchoRequest(payload=b"ping", xid=77))
        engine.run(until=2.0)
        replies = controller.of_type(EchoReply)
        assert any(r.xid == 77 and r.payload == b"ping" for r in replies)

    def test_get_config(self, rig):
        engine, switch, controller, _frames = rig
        controller.send(SetConfig(miss_send_len=64))
        controller.send(GetConfigRequest(xid=5))
        engine.run(until=2.0)
        reply = controller.of_type(GetConfigReply)[0]
        assert reply.miss_send_len == 64
        assert switch.miss_send_len == 64

    def test_barrier(self, rig):
        engine, _switch, controller, _frames = rig
        controller.send(BarrierRequest(xid=9))
        engine.run(until=2.0)
        assert any(m.xid == 9 for m in controller.of_type(BarrierReply))

    def test_desc_stats(self, rig):
        engine, _switch, controller, _frames = rig
        controller.send(StatsRequest(StatsType.DESC, xid=4))
        engine.run(until=2.0)
        reply = controller.of_type(StatsReply)[0]
        assert reply.stats_type == StatsType.DESC
        assert b"OpenFlowSwitch" in reply.body

    def test_handshake_timeout_without_controller_hello(self):
        engine = SimulationEngine()
        switch = OpenFlowSwitch(engine, "s1", 1)
        switch.attach_port(1, lambda data: None)
        controller = ScriptedController(engine, auto_handshake=False)
        switch.set_connect_factory(
            lambda sw: connect_endpoints(engine, sw, controller, latency_s=0.001)[0]
        )
        switch.start()
        engine.run(until=2 * (switch.HANDSHAKE_TIMEOUT + switch.RECONNECT_INTERVAL))
        assert not switch.connected
        assert switch.stats["reconnect_attempts"] >= 2  # it keeps dialing


class TestMissPath:
    def test_miss_sends_buffered_packet_in(self, rig):
        engine, switch, controller, _frames = rig
        data = frame(payload=b"\xcc" * 400)
        switch.frame_received(1, data)
        engine.run(until=2.0)
        packet_in = controller.of_type(PacketIn)[0]
        assert packet_in.in_port == 1
        assert packet_in.total_len == len(data)
        assert packet_in.buffer_id != OFP_NO_BUFFER
        assert len(packet_in.data) == switch.miss_send_len  # truncated

    def test_packet_out_releases_buffer(self, rig):
        engine, switch, controller, frames = rig
        data = frame()
        switch.frame_received(1, data)
        engine.run(until=2.0)
        packet_in = controller.of_type(PacketIn)[0]
        controller.send(PacketOut(buffer_id=packet_in.buffer_id, in_port=1,
                                  actions=[OutputAction(2)]))
        engine.run(until=3.0)
        assert frames[2] == [data]  # full packet, not the truncation

    def test_flow_mod_with_buffer_releases_through_actions(self, rig):
        engine, switch, controller, frames = rig
        data = frame()
        switch.frame_received(1, data)
        engine.run(until=2.0)
        packet_in = controller.of_type(PacketIn)[0]
        controller.send(FlowMod(Match(in_port=1), buffer_id=packet_in.buffer_id,
                                actions=[OutputAction(2)]))
        engine.run(until=3.0)
        assert frames[2] == [data]
        assert len(switch.flow_table) == 1

    def test_installed_flow_forwards_without_packet_in(self, rig):
        engine, switch, controller, frames = rig
        controller.send(FlowMod(Match(in_port=1), actions=[OutputAction(2)]))
        engine.run(until=2.0)
        before = len(controller.of_type(PacketIn))
        switch.frame_received(1, frame())
        engine.run(until=3.0)
        assert len(frames[2]) == 1
        assert len(controller.of_type(PacketIn)) == before

    def test_flood_action(self, rig):
        engine, switch, controller, frames = rig
        controller.send(FlowMod(Match(in_port=1),
                                actions=[OutputAction(Port.FLOOD)]))
        engine.run(until=2.0)
        switch.frame_received(1, frame())
        assert frames[2] and not frames[1]  # never back out the ingress port

    def test_packet_out_with_inline_data(self, rig):
        engine, switch, controller, frames = rig
        data = frame()
        controller.send(PacketOut(in_port=Port.NONE, actions=[OutputAction(1)],
                                  data=data))
        engine.run(until=2.0)
        assert frames[1] == [data]

    def test_unknown_buffer_release_is_counted(self, rig):
        engine, switch, controller, _frames = rig
        controller.send(PacketOut(buffer_id=0x7777, in_port=1,
                                  actions=[OutputAction(2)]))
        engine.run(until=2.0)
        assert switch.stats["dropped_no_buffer_release"] == 1


class TestFailModes:
    def _kill_connection(self, engine, switch, controller):
        controller.channel.close()  # controller-side close
        engine.run(until=engine.now + 1.0)

    def test_fail_secure_drops_misses(self, rig):
        engine, switch, controller, frames = rig
        switch.fail_mode = FailMode.SECURE
        self._kill_connection(engine, switch, controller)
        assert not switch.connected
        switch.frame_received(1, frame())
        assert switch.stats["dropped_no_controller"] == 1
        assert not frames[2]

    def test_fail_secure_existing_flows_keep_working(self, rig):
        engine, switch, controller, frames = rig
        controller.send(FlowMod(Match(in_port=1), actions=[OutputAction(2)]))
        engine.run(until=2.0)
        self._kill_connection(engine, switch, controller)
        switch.frame_received(1, frame())
        assert len(frames[2]) == 1

    def test_fail_safe_standalone_learning(self, rig):
        engine, switch, controller, frames = rig
        switch.fail_mode = FailMode.STANDALONE
        self._kill_connection(engine, switch, controller)
        assert switch.standalone_active
        # Unknown destination: flood.
        switch.frame_received(1, frame(src=MAC_A, dst=MAC_B))
        assert len(frames[2]) == 1
        # Reverse direction: destination was learned, unicast out port 1.
        switch.frame_received(2, frame(src=MAC_B, dst=MAC_A))
        assert len(frames[1]) == 1

    def test_echo_timeout_declares_connection_dead(self, rig):
        engine, switch, controller, _frames = rig
        # Silence the controller: drop its channel's ability to respond by
        # replacing bytes_received with a black hole.
        controller.bytes_received = lambda channel, data: None
        engine.run(until=engine.now + switch.ECHO_TIMEOUT + 3.0)
        assert not switch.connected
        assert switch.stats["echo_requests_sent"] >= 1
        assert switch.stats["connection_deaths"] == 1


class TestFlowRemoved:
    """Every FLOW_REMOVED carries the entry's lifetime and counters."""

    def install_and_use(self, engine, switch, controller, match, packets):
        controller.send(FlowMod(match, actions=[OutputAction(2)],
                                idle_timeout=30,
                                flags=int(FlowModFlags.SEND_FLOW_REM)))
        engine.run(until=2.0)
        data = frame()
        for _ in range(packets):
            switch.frame_received(1, data)
        engine.run(until=3.5)
        return len(data)

    def assert_reports(self, removed, reason, packets, size, duration):
        assert removed.reason == reason
        assert removed.packet_count == packets
        assert removed.byte_count == packets * size
        assert removed.idle_timeout == 30
        assert removed.duration_sec == int(duration)
        assert removed.duration_nsec == pytest.approx(
            (duration - int(duration)) * 1e9, abs=1e3)

    def test_delete_reports_the_entry_statistics(self, rig):
        engine, switch, controller, _frames = rig
        size = self.install_and_use(engine, switch, controller,
                                    Match(in_port=1), packets=2)
        controller.send(FlowMod(Match(in_port=1), FlowModCommand.DELETE))
        engine.run(until=5.0)
        (removed,) = controller.of_type(FlowRemoved)
        # Installed at 1.001 s, deleted at 3.501 s (1 ms control latency).
        self.assert_reports(removed, FlowRemovedReason.DELETE, 2, size, 2.5)

    def test_capacity_eviction_reports_the_entry_statistics(self):
        engine, switch, controller, _frames = build_rig(
            table_capacity=1, table_eviction="lru")
        size = self.install_and_use(engine, switch, controller,
                                    Match(in_port=1), packets=2)
        controller.send(FlowMod(Match(in_port=2), actions=[OutputAction(1)]))
        engine.run(until=5.0)
        (removed,) = controller.of_type(FlowRemoved)
        assert removed.match.in_port == 1
        assert switch.flow_table.capacity_evictions == 1
        self.assert_reports(removed, FlowRemovedReason.DELETE, 2, size, 2.5)


class TestValidation:
    def test_duplicate_port_rejected(self):
        engine = SimulationEngine()
        switch = OpenFlowSwitch(engine, "s1", 1)
        switch.attach_port(1, lambda data: None)
        with pytest.raises(ValueError):
            switch.attach_port(1, lambda data: None)

    def test_reserved_port_number_rejected(self):
        engine = SimulationEngine()
        switch = OpenFlowSwitch(engine, "s1", 1)
        with pytest.raises(ValueError):
            switch.attach_port(int(Port.FLOOD), lambda data: None)
