"""Bounded flow tables: capacity, eviction policies, eviction tracing."""

import pytest

from repro.dataplane.flowtable import EVICTION_POLICIES, FlowTable
from repro.dataplane.network import Network
from repro.netlib import Ipv4Address, MacAddress
from repro.obs import TraceCollector
from repro.openflow import FlowMod, FlowModCommand, Match, OutputAction
from repro.openflow.match import OFP_VLAN_NONE


def exact_match(octet=2, port=80):
    return Match(
        in_port=1,
        dl_src=MacAddress("00:00:00:00:00:01"),
        dl_dst=MacAddress("00:00:00:00:00:02"),
        dl_vlan=OFP_VLAN_NONE,
        dl_vlan_pcp=0,
        dl_type=0x0800,
        nw_tos=0,
        nw_proto=6,
        nw_src=Ipv4Address("10.0.0.1"),
        nw_dst=Ipv4Address(f"10.0.0.{octet}"),
        tp_src=1234,
        tp_dst=port,
    )


def add(table, match, now=0.0, **kwargs):
    flow_mod = FlowMod(match, command=FlowModCommand.ADD,
                       actions=[OutputAction(2)], **kwargs)
    return table.apply_flow_mod(flow_mod, now=now)


def fill(table, count, now=0.0):
    for i in range(count):
        add(table, exact_match(port=1000 + i), now=now)


def entry_for(table, port):
    return next(e for e in table.entries if e.match.tp_dst == port)


class TestCapacity:
    def test_refuse_policy_reports_table_full(self):
        table = FlowTable(max_entries=4, eviction="refuse")
        fill(table, 4)
        removed, full = add(table, exact_match(port=9))
        assert full is True
        assert removed == []
        assert len(table) == 4

    def test_lru_evicts_the_least_recently_used(self):
        table = FlowTable(max_entries=3, eviction="lru")
        fill(table, 3, now=0.0)
        # Traffic keeps two entries warm; the third goes stale.
        entry_for(table, 1000).record_use(5.0, 64)
        entry_for(table, 1002).record_use(6.0, 64)
        removed, full = add(table, exact_match(port=2000), now=7.0)
        assert full is False
        assert [e.match.tp_dst for e in removed] == [1001]
        assert table.capacity_evictions == 1
        assert len(table) == 3

    def test_fifo_evicts_the_earliest_installed_even_if_warm(self):
        table = FlowTable(max_entries=3, eviction="fifo")
        fill(table, 3)
        entry_for(table, 1000).record_use(5.0, 64)
        removed, _ = add(table, exact_match(port=2000), now=6.0)
        assert [e.match.tp_dst for e in removed] == [1000]

    def test_replacement_does_not_evict(self):
        table = FlowTable(max_entries=2, eviction="lru")
        fill(table, 2)
        removed, full = add(table, exact_match(port=1001))  # same match
        assert full is False
        assert table.capacity_evictions == 0
        assert len(table) == 2

    @pytest.mark.parametrize("match", [
        exact_match(port=2000),
        Match(in_port=1, tp_dst=80),
        Match(dl_type=0x0800, nw_dst=Ipv4Address("10.0.1.0"), nw_dst_prefix=24),
    ], ids=["exact", "wildcard", "nw_dst_prefix_24"])
    def test_readd_on_full_lru_table_replaces_without_eviction(self, match):
        table = FlowTable(max_entries=3, eviction="lru")
        fill(table, 2, now=0.0)
        add(table, match, now=1.0)
        kept = table.entries[:2]
        # Re-ADD the most recently used entry: an eviction would take the
        # LRU entry (port 1000), a replacement takes nothing.
        flow_mod = FlowMod(match, command=FlowModCommand.ADD,
                           actions=[OutputAction(9)])
        removed, full = table.apply_flow_mod(flow_mod, now=2.0)
        assert (removed, full) == ([], False)
        assert table.capacity_evictions == 0
        assert table.occupancy_peak == 3
        entries = table.entries
        assert entries[:2] == kept
        assert entries[2].match is match
        assert entries[2].actions == [OutputAction(9)]

    def test_occupancy_peak_tracks_the_high_water_mark(self):
        table = FlowTable(max_entries=8, eviction="lru")
        fill(table, 5)
        delete = FlowMod(Match.wildcard_all(),
                         command=FlowModCommand.DELETE)
        table.apply_flow_mod(delete, now=1.0)
        assert len(table) == 0
        assert table.occupancy_peak == 5

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="eviction"):
            FlowTable(eviction="random")
        assert EVICTION_POLICIES == ("refuse", "lru", "fifo")


class TestSwitchEvictionTracing:
    def test_expiry_emits_flow_evict_with_reason(self, engine,
                                                 small_topology):
        tracer = TraceCollector()
        network = Network(engine, small_topology)
        switch = network.switches["s1"]
        switch.tracer = tracer
        add(switch.flow_table, exact_match(port=80), idle_timeout=1)
        add(switch.flow_table, exact_match(port=81), hard_timeout=2)
        network.start()
        engine.run(until=10.0)
        evicts = [e for e in tracer.events() if e["kind"] == "flow_evict"]
        assert sorted(e["reason"] for e in evicts) == ["hard", "idle"]
        assert all(e["switch"] == "s1" for e in evicts)
        assert all("size" in e for e in evicts)
        assert switch.stats["evictions_idle"] == 1
        assert switch.stats["evictions_hard"] == 1

    def test_capacity_eviction_emits_reason_capacity(self, engine,
                                                     small_topology):
        tracer = TraceCollector()
        network = Network(engine, small_topology, table_capacity=2,
                          table_eviction="fifo")
        switch = network.switches["s1"]
        switch.tracer = tracer
        for i in range(4):
            switch.preinstall_flow(exact_match(port=100 + i),
                                   [OutputAction(2)])
        evicts = [e for e in tracer.events() if e["kind"] == "flow_evict"]
        assert [e["reason"] for e in evicts] == ["capacity", "capacity"]
        assert switch.stats["evictions_capacity"] == 2
        assert len(switch.flow_table) == 2
        assert switch.flow_table.occupancy_peak == 2

    def test_refuse_policy_makes_preinstall_fail_loudly(self, engine,
                                                        small_topology):
        network = Network(engine, small_topology, table_capacity=2)
        switch = network.switches["s1"]
        switch.preinstall_flow(exact_match(port=1), [OutputAction(2)])
        switch.preinstall_flow(exact_match(port=2), [OutputAction(2)])
        with pytest.raises(RuntimeError, match="full"):
            switch.preinstall_flow(exact_match(port=3), [OutputAction(2)])
