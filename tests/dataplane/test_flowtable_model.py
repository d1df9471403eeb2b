"""Model-based test: FlowTable against an independent reference model.

The reference restricts itself to five match shapes — the match-all
wildcard, an ``in_port``-only wildcard, a ``dl_dst``-only route (the
proactive fabric shape), an ``nw_dst`` /24 prefix, and the fully
specified twelve-tuple of one port's probe packet — where OF 1.0
semantics are unambiguous: highest priority wins, ties go to the
earliest-installed entry, ADD with an identical match+priority replaces,
MODIFY changes the actions of the entries it names or adds when it names
none, non-strict DELETE/MODIFY name subsumed entries, strict ones the
identical one, an ``out_port`` filter narrows a DELETE to entries that
output there, and a full bounded table evicts the LRU or FIFO victim (or
refuses the ADD).  Rules also advance the clock, send packets (which
refresh an entry's idle time) and expire timed-out entries.
"""

import itertools

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dataplane import FlowTable
from repro.netlib import Ipv4Address, MacAddress
from repro.openflow import FlowMod, FlowModCommand, Match, OutputAction
from repro.openflow.constants import Port

PORTS = (1, 2, 3)
PRIORITIES = (0, 1, 2, 3)
OUT_PORTS = st.integers(min_value=10, max_value=12)
TIMEOUTS = st.sampled_from((0, 0, 1, 2))

FIELDS_BY_PORT = {
    port: {
        "in_port": port,
        "dl_src": MacAddress(1),
        "dl_dst": MacAddress(2 if port < 3 else 3),
        "dl_vlan": 0xFFFF,
        "dl_vlan_pcp": 0,
        "dl_type": 0x0800,
        "nw_tos": 0,
        "nw_proto": 6,
        "nw_src": Ipv4Address("10.0.0.1"),
        "nw_dst": Ipv4Address(f"10.0.{port // 2}.{port}"),
        "tp_src": 1,
        "tp_dst": 2,
    }
    for port in PORTS
}

#: Probe destinations: ports 1-2 share a MAC, ports 2-3 a /24 network.
MACS = (MacAddress(2), MacAddress(3))
NETS = (Ipv4Address("10.0.0.0"), Ipv4Address("10.0.1.0"))

#: A match shape: ("all", None), ("port", p), ("dst", mac), ("net", net)
#: or ("exact", p).
SPECS = st.sampled_from(
    [("all", None)]
    + [("port", port) for port in PORTS]
    + [("dst", mac) for mac in MACS]
    + [("net", net) for net in NETS]
    + [("exact", port) for port in PORTS]
)


def match_for(spec):
    kind, value = spec
    if kind == "all":
        return Match.wildcard_all()
    if kind == "port":
        return Match(in_port=value)
    if kind == "dst":
        return Match(dl_dst=value)
    if kind == "net":
        return Match(nw_dst=value, nw_dst_prefix=24)
    return Match(**FIELDS_BY_PORT[value])


def covers(spec, port):
    """True if a ``spec`` match accepts ``port``'s probe packet."""
    kind, value = spec
    fields = FIELDS_BY_PORT[port]
    if kind == "all":
        return True
    if kind == "dst":
        return fields["dl_dst"] == value
    if kind == "net":
        return int(fields["nw_dst"]) >> 8 == int(value) >> 8
    return value == port


def subsumes(spec, other):
    """True if a non-strict command with ``spec`` names an ``other`` entry."""
    if spec[0] == "all" or other == spec:
        return True
    # Apart from match-all, the wildcards only subsume the exact entries
    # whose probe they accept: none pins another's field.
    return spec[0] != "exact" and other[0] == "exact" and covers(spec, other[1])


class _ModelEntry:
    def __init__(self, spec, priority, out_port, now, order,
                 idle_timeout=0, hard_timeout=0):
        self.spec = spec
        self.priority = priority
        self.out_port = out_port
        self.install_time = now
        self.last_used = now
        self.order = order
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout

    def matches(self, port):
        return covers(self.spec, port)

    def expired_reason(self, now):
        if self.hard_timeout and now >= self.install_time + self.hard_timeout:
            return "hard"
        if self.idle_timeout and now >= self.last_used + self.idle_timeout:
            return "idle"
        return None

    def describe(self):
        return (match_for(self.spec).pack(), self.priority, self.out_port)


def describe(entry):
    """A table entry in the model's terms: (packed match, priority, out_port)."""
    (action,) = entry.actions
    return (entry.match.pack(), entry.priority, action.port)


class FlowTableMachine(RuleBasedStateMachine):
    max_entries = 65536
    eviction = "refuse"

    def __init__(self):
        super().__init__()
        self.table = FlowTable(max_entries=self.max_entries, eviction=self.eviction)
        self.model = []
        self.now = 0.0
        self.orders = itertools.count()
        self.peak = 0
        self.evictions = 0

    def _apply(self, spec, command, priority=0x8000, out_port=None,
               filter_port=Port.NONE, **kwargs):
        actions = [OutputAction(out_port)] if out_port is not None else []
        flow_mod = FlowMod(match_for(spec), command, priority=priority,
                           actions=actions, out_port=filter_port, **kwargs)
        return self.table.apply_flow_mod(flow_mod, self.now)

    def _model_add(self, spec, priority, out_port, idle_timeout=0, hard_timeout=0):
        """The model's ADD; returns (evicted, table_full) like the table."""
        self.model = [e for e in self.model
                      if (e.spec, e.priority) != (spec, priority)]
        evicted = []
        if len(self.model) >= self.max_entries:
            if self.eviction == "refuse":
                return [], True
            if self.eviction == "lru":
                victim = min(self.model, key=lambda e: (e.last_used, e.order))
            else:
                victim = min(self.model, key=lambda e: e.order)
            self.model.remove(victim)
            self.evictions += 1
            evicted.append(victim)
        self.model.append(_ModelEntry(spec, priority, out_port, self.now,
                                      next(self.orders), idle_timeout,
                                      hard_timeout))
        self.peak = max(self.peak, len(self.model))
        return evicted, False

    def _named(self, spec, priority, strict):
        if strict:
            return [e for e in self.model
                    if (e.spec, e.priority) == (spec, priority)]
        return [e for e in self.model if subsumes(spec, e.spec)]

    @staticmethod
    def _assert_same(actual, expected):
        removed, full = actual
        expected_removed, expected_full = expected
        assert full is expected_full
        assert [describe(e) for e in removed] == \
            [e.describe() for e in expected_removed]

    @rule(spec=SPECS, priority=st.sampled_from(PRIORITIES), out_port=OUT_PORTS,
          idle_timeout=TIMEOUTS, hard_timeout=TIMEOUTS)
    def add(self, spec, priority, out_port, idle_timeout, hard_timeout):
        actual = self._apply(spec, FlowModCommand.ADD, priority, out_port,
                             idle_timeout=idle_timeout, hard_timeout=hard_timeout)
        self._assert_same(actual, self._model_add(
            spec, priority, out_port, idle_timeout, hard_timeout))

    @rule(spec=SPECS, priority=st.sampled_from(PRIORITIES), out_port=OUT_PORTS,
          strict=st.booleans())
    def modify(self, spec, priority, out_port, strict):
        command = FlowModCommand.MODIFY_STRICT if strict else FlowModCommand.MODIFY
        actual = self._apply(spec, command, priority, out_port)
        named = self._named(spec, priority, strict)
        for entry in named:
            entry.out_port = out_port
        # MODIFY that names nothing behaves as ADD.
        expected = ([], False) if named else self._model_add(spec, priority, out_port)
        self._assert_same(actual, expected)

    @rule(spec=SPECS, priority=st.sampled_from(PRIORITIES),
          filter_port=st.one_of(st.just(Port.NONE), OUT_PORTS),
          strict=st.booleans())
    def delete(self, spec, priority, filter_port, strict):
        command = FlowModCommand.DELETE_STRICT if strict else FlowModCommand.DELETE
        actual = self._apply(spec, command, priority, filter_port=filter_port)
        removed = [e for e in self._named(spec, priority, strict)
                   if filter_port == Port.NONE or e.out_port == filter_port]
        self.model = [e for e in self.model if e not in removed]
        self._assert_same(actual, (removed, False))

    @rule(dt=st.sampled_from((0.5, 1.0)))
    def tick(self, dt):
        self.now += dt

    @rule(port=st.sampled_from(PORTS))
    def packet(self, port):
        actual = self.table.lookup(FIELDS_BY_PORT[port])
        if actual is not None:
            actual.record_use(self.now, 64)
            self._winner(port).last_used = self.now

    @rule()
    def expire(self):
        actual = self.table.expire(self.now)
        reasons = [(e, e.expired_reason(self.now)) for e in self.model]
        self.model = [e for e, reason in reasons if reason is None]
        assert [(describe(e), reason) for e, reason in actual] == \
            [(e.describe(), reason) for e, reason in reasons if reason is not None]

    def _winner(self, port):
        candidates = [e for e in self.model if e.matches(port)]
        if not candidates:
            return None
        return max(candidates, key=lambda e: (e.priority, -e.order))

    @invariant()
    def same_entries_in_install_order(self):
        assert len(self.table) == len(self.model)
        assert [describe(e) for e in self.table.entries] == \
            [e.describe() for e in self.model]

    @invariant()
    def same_counters(self):
        assert self.table.occupancy_peak == self.peak
        assert self.table.capacity_evictions == self.evictions

    @invariant()
    def same_lookup_winner(self):
        for port in PORTS:
            actual = self.table.lookup(FIELDS_BY_PORT[port])
            best = self._winner(port)
            if best is None:
                assert actual is None
                continue
            assert actual is not None
            assert actual.actions == [OutputAction(best.out_port)]

    @invariant()
    def indexes_hold_exactly_the_entries(self):
        table = self.table
        entries = table.entries
        orders = [e.order for e in entries]
        assert orders == sorted(orders)
        assert list(table._strict) == [e.strict_key for e in entries]
        bucketed = []
        for shape, (key_of, buckets) in table._shapes.items():
            assert buckets, "a shape leaves the index with its last entry"
            for key, bucket in buckets.items():
                assert bucket
                assert all(e.shape is shape and e.key == key for e in bucket)
                assert bucket == sorted(bucket, key=lambda e: (-e.priority, e.order))
                bucketed.extend(bucket)
                # A probe lands in this bucket exactly when the entries
                # match it.
                for fields in FIELDS_BY_PORT.values():
                    assert (key_of(fields) == key) is \
                        bucket[0].match.matches_fields(fields)
        assert sorted(bucketed, key=lambda e: e.order) == entries


#: A three-entry table fills within a few steps, so fewer and shorter
#: runs cover its eviction paths.
BOUNDED = settings(max_examples=50, stateful_step_count=30)


class BoundedLruMachine(FlowTableMachine):
    max_entries = 3
    eviction = "lru"


class BoundedFifoMachine(FlowTableMachine):
    max_entries = 3
    eviction = "fifo"


class BoundedRefuseMachine(FlowTableMachine):
    max_entries = 3
    eviction = "refuse"


def bounded_case(machine):
    case = machine.TestCase
    case.settings = BOUNDED
    return case


TestFlowTableAgainstModel = FlowTableMachine.TestCase
TestBoundedLruTableAgainstModel = bounded_case(BoundedLruMachine)
TestBoundedFifoTableAgainstModel = bounded_case(BoundedFifoMachine)
TestBoundedRefuseTableAgainstModel = bounded_case(BoundedRefuseMachine)
