"""Injector hot-path fast lane: measured speedups over the paper baseline.

Two headline claims, each asserted at >= 5x:

* **Executor no-fire path** at |Φ| = 64 type-constrained rules: the
  (connection, coarse type) index + compiled conditionals vs the linear
  interpreted scan of Algorithm 1 (``fast_path=False``).
* **Pass-through framing**: length-only frame extraction + zero-copy byte
  reuse vs the decode-then-re-encode round trip.

Speedups are computed from median-of-rounds wall times measured with
``time.perf_counter`` (robust against scheduler noise); the pytest-benchmark
fixture additionally records the fast path for ``--benchmark-json``
trajectories (CI stores them as ``BENCH_fastpath.json``).
"""

import statistics
import time

from benchmarks.conftest import print_table
from repro.core.injector import AttackExecutor
from repro.core.lang import Attack, AttackState, PassMessage, Rule, parse_condition
from repro.core.lang.properties import Direction, InterposedMessage
from repro.core.model import gamma_no_tls
from repro.openflow import FlowMod, Hello, Match, OutputAction, parse_message
from repro.openflow.connection import MessageFramer
from repro.sim import SimulationEngine

CONN = ("c1", "s1")
N_RULES = 64
SPEEDUP_FLOOR = 5.0
ROUNDS = 7
ITERATIONS = 2000


def median_time(fn, rounds=ROUNDS, iterations=ITERATIONS):
    """Median over ``rounds`` of the mean per-call time of ``iterations``."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        samples.append((time.perf_counter() - start) / iterations)
    return statistics.median(samples)


def _executor(fast_path):
    rules = [
        Rule(f"r{index}", CONN, gamma_no_tls(),
             parse_condition("type = FLOW_MOD"), [PassMessage()])
        for index in range(N_RULES)
    ]
    attack = Attack("fastlane", [AttackState("s", rules)], "s")
    return AttackExecutor(attack, SimulationEngine(), fast_path=fast_path)


def test_executor_no_fire_speedup(benchmark):
    """Indexed dispatch beats the linear scan >= 5x when no rule fires."""
    fast = _executor(fast_path=True)
    linear = _executor(fast_path=False)
    raw = Hello().pack()

    def process_fast():
        return fast.handle_message(
            InterposedMessage(CONN, Direction.TO_CONTROLLER, 0.0, raw)
        )

    def process_linear():
        return linear.handle_message(
            InterposedMessage(CONN, Direction.TO_CONTROLLER, 0.0, raw)
        )

    fast_time = median_time(process_fast)
    linear_time = median_time(process_linear)
    speedup = linear_time / fast_time
    print_table(
        f"Fast lane — executor no-fire path at |Φ|={N_RULES}",
        ("variant", "per-message", "speedup"),
        [
            ("linear interpreted", f"{linear_time * 1e6:8.2f} us", "1.0x"),
            ("indexed compiled", f"{fast_time * 1e6:8.2f} us",
             f"{speedup:.1f}x"),
        ],
    )
    assert fast.stats["rules_evaluated"] == 0
    assert fast.stats["rules_skipped_by_index"] > 0
    assert speedup >= SPEEDUP_FLOOR, f"only {speedup:.1f}x"
    result = benchmark(process_fast)
    assert len(result) == 1
    benchmark.extra_info["rules"] = N_RULES
    benchmark.extra_info["speedup_vs_linear"] = round(speedup, 2)


def test_passthrough_framing_speedup(benchmark):
    """Zero-copy frame extraction beats decode+re-encode >= 5x."""
    raw = FlowMod(Match(in_port=1, tp_dst=80), idle_timeout=5,
                  actions=[OutputAction(2)]).pack()

    def zero_copy():
        framer = MessageFramer()
        return framer.feed_frames(raw)[0]

    def decode_reencode():
        return parse_message(raw).pack()

    assert zero_copy() == raw
    assert decode_reencode() == raw
    fast_time = median_time(zero_copy)
    slow_time = median_time(decode_reencode)
    speedup = slow_time / fast_time
    print_table(
        "Fast lane — FLOW_MOD pass-through",
        ("variant", "per-message", "speedup"),
        [
            ("parse + pack", f"{slow_time * 1e6:8.2f} us", "1.0x"),
            ("frame + byte reuse", f"{fast_time * 1e6:8.2f} us",
             f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= SPEEDUP_FLOOR, f"only {speedup:.1f}x"
    result = benchmark(zero_copy)
    assert result == raw
    benchmark.extra_info["speedup_vs_decode"] = round(speedup, 2)


def test_flowtable_lookup_speedup(benchmark):
    """Fully-specified lookup vs the linear-scan oracle at 1k entries."""
    from repro.dataplane.flowtable import FlowTable
    from repro.netlib import Ipv4Address, MacAddress
    from repro.openflow.match import OFP_VLAN_NONE
    from tests.dataplane.flowtable_oracle import linear_lookup

    def exact(index):
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
            nw_dst=Ipv4Address((10 << 24) | index),
            tp_src=1234,
            tp_dst=80,
        )

    n_entries = 1000
    indexed = FlowTable()
    for index in range(n_entries):
        flow_mod = FlowMod(exact(index), actions=[OutputAction(2)])
        indexed.apply_flow_mod(flow_mod, now=0.0)
    entries = indexed.entries
    probe = exact(n_entries - 1)
    fields = {name: getattr(probe, name)
              for name in ("in_port", "dl_src", "dl_dst", "dl_vlan",
                           "dl_vlan_pcp", "dl_type", "nw_tos", "nw_proto",
                           "nw_src", "nw_dst", "tp_src", "tp_dst")}
    assert indexed.lookup(fields) is not None
    assert linear_lookup(entries, fields) is indexed.lookup(fields)

    fast_time = median_time(lambda: indexed.lookup(fields), iterations=500)
    slow_time = median_time(lambda: linear_lookup(entries, fields), iterations=500)
    speedup = slow_time / fast_time
    print_table(
        f"Fast lane — flow-table lookup at {n_entries} exact entries",
        ("variant", "per-lookup", "speedup"),
        [
            ("linear scan", f"{slow_time * 1e6:8.2f} us", "1.0x"),
            ("tuple space", f"{fast_time * 1e6:8.2f} us", f"{speedup:.1f}x"),
        ],
    )
    assert indexed.lookup_fast_hits > 0
    assert speedup >= SPEEDUP_FLOOR, f"only {speedup:.1f}x"
    benchmark(lambda: indexed.lookup(fields))
    benchmark.extra_info["entries"] = n_entries
    benchmark.extra_info["speedup_vs_linear"] = round(speedup, 2)


def test_flowtable_wildcard_lookup_speedup(benchmark):
    """Tuple-space lookup vs the linear scan over 128 ``dl_dst`` routes.

    The proactive fat-tree route shape: one ``Match(dl_dst=mac)`` per
    destination, all in one shape, so a lookup is one hash probe where
    the scan tries every route.  Floor 10x.
    """
    from repro.dataplane.flowtable import FlowTable
    from repro.netlib import Ipv4Address, MacAddress
    from repro.openflow.match import MATCH_FIELD_NAMES, OFP_VLAN_NONE
    from tests.dataplane.flowtable_oracle import linear_lookup

    wildcard_floor = 10.0
    n_routes = 128
    table = FlowTable()
    for index in range(n_routes):
        flow_mod = FlowMod(Match(dl_dst=MacAddress(index + 1)),
                           actions=[OutputAction(index % 4 + 1)])
        table.apply_flow_mod(flow_mod, now=0.0)
    entries = table.entries
    fields = dict.fromkeys(MATCH_FIELD_NAMES)
    fields.update(in_port=1, dl_src=MacAddress(0xFFFF), dl_dst=MacAddress(n_routes),
                  dl_vlan=OFP_VLAN_NONE, dl_vlan_pcp=0, dl_type=0x0800, nw_tos=0,
                  nw_proto=17, nw_src=Ipv4Address("10.0.0.1"),
                  nw_dst=Ipv4Address("10.0.0.2"), tp_src=5001, tp_dst=5001)
    winner = table.lookup(fields)
    assert winner is entries[-1]
    assert linear_lookup(entries, fields) is winner

    fast_time = median_time(lambda: table.lookup(fields), iterations=500)
    slow_time = median_time(lambda: linear_lookup(entries, fields), iterations=500)
    speedup = slow_time / fast_time
    print_table(
        f"Fast lane — flow-table lookup at {n_routes} dl_dst routes",
        ("variant", "per-lookup", "speedup"),
        [
            ("linear scan", f"{slow_time * 1e6:8.2f} us", "1.0x"),
            ("tuple space", f"{fast_time * 1e6:8.2f} us", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= wildcard_floor, f"only {speedup:.1f}x"
    benchmark(lambda: table.lookup(fields))
    benchmark.extra_info["routes"] = n_routes
    benchmark.extra_info["speedup_vs_linear"] = round(speedup, 2)


def test_multihop_forwarding_speedup(benchmark):
    """Data-plane fast lane: >= 3x on a 4-switch multi-hop path.

    A frame crossing a 4-switch chain is key-extracted at every hop.
    Pre-change, each hop ran the full decode-based
    ``extract_packet_fields`` (EthernetFrame -> Ipv4Packet -> TcpSegment
    object construction); with the fast lane, the first arrival computes
    the key once via the single-pass extractor and every later hop — and
    every repeat of the same frame — is a memoized dict fetch on the
    interned FastFrame.
    """
    from repro.dataplane.switch import OpenFlowSwitch
    from repro.netlib import EtherType, EthernetFrame, Ipv4Address, \
        Ipv4Packet, MacAddress, TcpSegment, fastframe
    from tests.netlib.flowkey_oracle import extract_packet_fields_reference

    N_SWITCHES = 4
    FORWARD_FLOOR = 3.0

    segment = TcpSegment(40000, 5001, payload=b"x" * 512)
    packet = Ipv4Packet(Ipv4Address("10.0.0.1"), Ipv4Address("10.0.0.2"),
                        6, segment.pack())
    raw = EthernetFrame(MacAddress("00:00:00:00:00:02"),
                        MacAddress("00:00:00:00:00:01"),
                        EtherType.IPV4, packet.pack()).pack()

    def build_chain():
        """4 switches wired port-2 -> next switch port-1, exact flows."""
        engine = SimulationEngine()
        delivered = []
        switches = [OpenFlowSwitch(engine, f"s{i + 1}", i + 1)
                    for i in range(N_SWITCHES)]
        for i, switch in enumerate(switches):
            switch.attach_port(1, lambda data: None)
            if i + 1 < len(switches):
                nxt = switches[i + 1]
                switch.attach_port(2, lambda data, n=nxt: n.frame_received(1, data))
            else:
                switch.attach_port(2, delivered.append)
            flow_mod = FlowMod(Match.from_packet(raw, 1),
                               actions=[OutputAction(2)])
            switch.flow_table.apply_flow_mod(flow_mod, engine.now)
        return switches, delivered

    switches, delivered = build_chain()

    def send_one():
        # A fresh bytes copy per send models a frame arriving off the
        # wire; interning collapses the copies back to one object.
        switches[0].frame_received(1, bytes(bytearray(raw)))

    send_one()
    assert len(delivered) == 1 and delivered[0] == raw

    fast_time = median_time(send_one, iterations=500)
    assert switches[0].stats["flowkey_cache_hits"] > 0
    assert switches[0].stats["frames_interned"] > 0

    # Pre-change baseline: no interning, no memoization, and the
    # decode-based reference extractor at every hop.
    baseline_switches, baseline_delivered = build_chain()
    fastframe.set_fast_lane(False)
    original_extractor = fastframe.extract_flow_key
    fastframe.extract_flow_key = extract_packet_fields_reference
    try:
        def send_one_baseline():
            baseline_switches[0].frame_received(1, bytes(bytearray(raw)))

        send_one_baseline()
        assert baseline_delivered[0] == raw
        slow_time = median_time(send_one_baseline, iterations=500)
    finally:
        fastframe.extract_flow_key = original_extractor
        fastframe.set_fast_lane(True)
        fastframe.clear_pool()

    speedup = slow_time / fast_time
    print_table(
        f"Fast lane — {N_SWITCHES}-switch multi-hop forwarding",
        ("variant", "per-frame", "speedup"),
        [
            ("decode per hop", f"{slow_time * 1e6:8.2f} us", "1.0x"),
            ("interned + memoized", f"{fast_time * 1e6:8.2f} us",
             f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= FORWARD_FLOOR, f"only {speedup:.1f}x"
    benchmark(send_one)
    benchmark.extra_info["switches"] = N_SWITCHES
    benchmark.extra_info["speedup_vs_decode_per_hop"] = round(speedup, 2)


def test_tracing_disabled_keeps_the_fast_lane(benchmark):
    """Trace instrumentation must cost nothing when no collector is
    attached (the default).  Every emit site is gated on a single
    ``tracer is not None`` check, so the untraced executor still clears
    the same 5x no-fire floor, while an attached collector records the
    work the guard skips."""
    from repro.obs import TraceCollector

    untraced = _executor(fast_path=True)
    traced = _executor(fast_path=True)
    traced.set_tracer(TraceCollector())
    linear = _executor(fast_path=False)
    assert untraced.tracer is None  # the zero-overhead configuration
    raw = Hello().pack()
    fired = FlowMod(Match()).pack()

    def no_fire():
        return untraced.handle_message(
            InterposedMessage(CONN, Direction.TO_CONTROLLER, 0.0, raw)
        )

    def no_fire_linear():
        return linear.handle_message(
            InterposedMessage(CONN, Direction.TO_CONTROLLER, 0.0, raw)
        )

    def fire(executor):
        return lambda: executor.handle_message(
            InterposedMessage(CONN, Direction.TO_CONTROLLER, 0.0, fired)
        )

    untraced_time = median_time(no_fire)
    linear_time = median_time(no_fire_linear)
    speedup = linear_time / untraced_time
    untraced_fire = median_time(fire(untraced), iterations=500)
    traced_fire = median_time(fire(traced), iterations=500)
    print_table(
        "Fast lane — tracing guards on the executor hot path",
        ("variant", "per-message", "note"),
        [
            ("untraced no-fire", f"{untraced_time * 1e6:8.2f} us",
             f"{speedup:.1f}x vs linear"),
            ("untraced rule-fire", f"{untraced_fire * 1e6:8.2f} us", "-"),
            ("traced rule-fire", f"{traced_fire * 1e6:8.2f} us",
             f"{traced.tracer.events_total} events"),
        ],
    )
    # The regression guard: disabled tracing leaves the floor intact.
    assert speedup >= SPEEDUP_FLOOR, f"tracing guards cost the floor: {speedup:.1f}x"
    # And the guard really did skip all trace work on the untraced side.
    assert traced.tracer.events_total > 0
    assert untraced.tracer is None
    benchmark(no_fire)
    benchmark.extra_info["speedup_vs_linear_untraced"] = round(speedup, 2)
