"""The flow table's tuple-space classifier vs the linear scan.

``FlowTable.lookup`` must return exactly the entry the linear scan oracle
(``flowtable_oracle.linear_lookup``) would, for every mix of fully-specified
and wildcard entries, across adds, replacements, deletes, expiry, and clears.
"""

import pytest

from repro.dataplane.flowtable import FULL_SHAPE, FlowEntry, FlowTable
from repro.netlib import Ipv4Address, MacAddress
from repro.openflow import FlowMod, FlowModCommand, Match, OutputAction
from repro.openflow.constants import OFP_NO_BUFFER, Port
from repro.openflow.match import OFP_VLAN_NONE, extract_packet_fields
from repro.netlib.ethernet import EthernetFrame
from repro.netlib.ipv4 import Ipv4Packet
from repro.netlib.tcp import TcpSegment
from tests.dataplane.flowtable_oracle import linear_lookup


def exact_match(host_octet=2, port=80, in_port=1):
    """A fully-specified twelve-tuple (what Match.from_packet produces)."""
    return Match(
        in_port=in_port,
        dl_src=MacAddress("00:00:00:00:00:01"),
        dl_dst=MacAddress("00:00:00:00:00:02"),
        dl_vlan=OFP_VLAN_NONE,
        dl_vlan_pcp=0,
        dl_type=0x0800,
        nw_tos=0,
        nw_proto=6,
        nw_src=Ipv4Address("10.0.0.1"),
        nw_dst=Ipv4Address(f"10.0.0.{host_octet}"),
        tp_src=1234,
        tp_dst=port,
    )


def fields_for(match):
    """The packet-field dict a packet matching ``match`` exactly yields."""
    return {name: getattr(match, name)
            for name in ("in_port", "dl_src", "dl_dst", "dl_vlan",
                         "dl_vlan_pcp", "dl_type", "nw_tos", "nw_proto",
                         "nw_src", "nw_dst", "tp_src", "tp_dst")}


def add(table, match, priority=0x8000, out_port=2, **kwargs):
    flow_mod = FlowMod(match, command=FlowModCommand.ADD, priority=priority,
                       actions=[OutputAction(out_port)], **kwargs)
    return table.apply_flow_mod(flow_mod, now=0.0)


def shape_of(match):
    return FlowEntry(match, 0x8000, []).shape


class TestExactKey:
    """Only the fully-specified /32 twelve-tuple gets the fast-hit shape."""

    def test_fully_specified_match_is_keyed(self):
        entry = FlowEntry(exact_match(), 0x8000, [])
        assert entry.shape is FULL_SHAPE
        assert entry.key == tuple(fields_for(exact_match()).values())

    def test_wildcarded_field_is_not_keyed(self):
        assert shape_of(Match(in_port=1, tp_dst=80)) == (("in_port", "tp_dst"), 0, 0)
        assert shape_of(Match.wildcard_all()) == ((), 0, 0)
        # A /0 address constrains nothing, so it is not pinned.
        assert shape_of(Match(nw_src=Ipv4Address("10.0.0.1"), nw_src_prefix=0,
                              nw_dst=Ipv4Address("10.0.0.1"),
                              nw_dst_prefix=0)) == ((), 0, 0)

    def test_cidr_prefix_is_not_keyed(self):
        match = exact_match()
        match.nw_src_prefix = 24
        entry = FlowEntry(match, 0x8000, [])
        assert entry.shape is not FULL_SHAPE
        assert entry.shape == (FULL_SHAPE[0], 24, 32)
        # The /24 source contributes its masked network, last in the key.
        assert entry.key[-1] == int(Ipv4Address("10.0.0.0"))


class TestIndexedLookup:
    def test_exact_entry_found_via_hash(self):
        table = FlowTable()
        add(table, exact_match(), out_port=7)
        entry = table.lookup(fields_for(exact_match()))
        assert entry is not None
        assert entry.actions[0].port == 7
        assert table.lookup_fast_hits == 1

    def test_miss_returns_none(self):
        table = FlowTable()
        add(table, exact_match(2))
        assert table.lookup(fields_for(exact_match(3))) is None
        assert table.lookup_fast_hits == 0

    def test_higher_priority_wildcard_beats_exact(self):
        table = FlowTable()
        add(table, exact_match(), priority=100, out_port=2)
        add(table, Match(in_port=1), priority=200, out_port=9)
        winner = table.lookup(fields_for(exact_match()))
        assert winner.actions[0].port == 9
        assert table.lookup_fast_hits == 0

    def test_exact_beats_lower_priority_wildcard(self):
        table = FlowTable()
        add(table, Match(in_port=1), priority=100, out_port=9)
        add(table, exact_match(), priority=200, out_port=2)
        winner = table.lookup(fields_for(exact_match()))
        assert winner.actions[0].port == 2
        assert table.lookup_fast_hits == 1

    def test_priority_tie_resolves_to_earliest_install(self):
        table = FlowTable()
        add(table, Match(in_port=1), priority=100, out_port=3)
        add(table, exact_match(), priority=100, out_port=5)
        winner = table.lookup(fields_for(exact_match()))
        assert winner.actions[0].port == 3  # wildcard installed first

    def test_add_replaces_indexed_entry(self):
        table = FlowTable()
        add(table, exact_match(), out_port=2)
        add(table, exact_match(), out_port=8)  # same match+priority replaces
        assert len(table) == 1
        assert table.lookup(fields_for(exact_match())).actions[0].port == 8

    def test_delete_removes_from_index(self):
        table = FlowTable()
        add(table, exact_match())
        delete = FlowMod(Match.wildcard_all(), command=FlowModCommand.DELETE,
                         out_port=Port.NONE)
        removed, _ = table.apply_flow_mod(delete, now=0.0)
        assert len(removed) == 1
        assert table.lookup(fields_for(exact_match())) is None

    def test_expire_removes_from_index(self):
        table = FlowTable()
        add(table, exact_match(), hard_timeout=5)
        assert table.lookup(fields_for(exact_match())) is not None
        expired = table.expire(now=10.0)
        assert [reason for _, reason in expired] == ["hard"]
        assert table.lookup(fields_for(exact_match())) is None

    def test_clear_empties_index(self):
        table = FlowTable()
        add(table, exact_match())
        add(table, Match(in_port=1))
        table.clear()
        assert table.lookup(fields_for(exact_match())) is None


class TestEquivalenceWithLinearScan:
    def populated(self):
        table = FlowTable()
        # Mix of exact entries, overlapping wildcards, and priorities.
        for octet in range(2, 10):
            add(table, exact_match(octet), priority=100 + octet,
                out_port=octet)
        add(table, Match(in_port=1), priority=50, out_port=20)
        add(table, Match(tp_dst=80), priority=105, out_port=21)
        add(table, Match(nw_dst=Ipv4Address("10.0.0.0"),
                         nw_dst_prefix=24), priority=300, out_port=22)
        add(table, Match.wildcard_all(), priority=1, out_port=23)
        return table

    def probes(self):
        probes = [fields_for(exact_match(octet)) for octet in range(2, 12)]
        no_ip = dict(fields_for(exact_match()),
                     nw_dst=Ipv4Address("192.168.1.1"))
        probes.append(no_ip)
        return probes

    def assert_agrees(self, table):
        for fields in self.probes():
            assert table.lookup(fields) is linear_lookup(table.entries, fields)

    def test_every_probe_agrees(self):
        self.assert_agrees(self.populated())

    def test_agreement_survives_mutation(self):
        table = self.populated()
        delete = FlowMod(Match(in_port=1), command=FlowModCommand.DELETE)
        table.apply_flow_mod(delete, now=0.0)
        self.assert_agrees(table)
        add(table, Match(tp_dst=80), priority=105, out_port=24)  # replace
        self.assert_agrees(table)
        strict = FlowMod(Match.wildcard_all(), priority=1,
                         command=FlowModCommand.DELETE_STRICT)
        table.apply_flow_mod(strict, now=0.0)
        self.assert_agrees(table)


class TestPacketPathStillWorks:
    def test_lookup_from_real_packet_fields(self):
        """End-to-end: extract fields from wire bytes, hit the hash index."""
        payload = TcpSegment(1234, 80, seq=1, ack=0, flags=0x02).pack()
        ip = Ipv4Packet(Ipv4Address("10.0.0.1"), Ipv4Address("10.0.0.2"),
                        6, payload).pack()
        frame = EthernetFrame(MacAddress("00:00:00:00:00:02"),
                              MacAddress("00:00:00:00:00:01"),
                              0x0800, ip).pack()
        fields = extract_packet_fields(frame, in_port=1)
        table = FlowTable()
        add(table, Match.from_packet(frame, in_port=1), out_port=6)
        entry = table.lookup(fields)
        assert entry is not None
        assert entry.actions[0].port == 6
        assert table.lookup_fast_hits == 1
