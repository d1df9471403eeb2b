"""Property test: the tuple-space classifier agrees with the linear scan.

Random tables mix every match shape the classifier can hold — any subset
of the ten non-IP fields pinned, ``nw_src``/``nw_dst`` at any prefix from
0 to 32, priorities with ties — under ADD, MODIFY, DELETE and
DELETE_STRICT.  After every step, ``FlowTable.lookup`` must return the very
entry ``flowtable_oracle.linear_lookup`` picks, for probes that include
non-IP frames (no network or transport fields).
"""

from hypothesis import given, settings, strategies as st

from repro.dataplane.flowtable import FULL_SHAPE, FlowTable
from repro.netlib import Ipv4Address, MacAddress
from repro.openflow import FlowMod, FlowModCommand, Match, OutputAction
from tests.dataplane.flowtable_oracle import linear_lookup

#: Two values per non-IP field, so pinned fields collide often.
VALUES = {
    "in_port": (1, 2),
    "dl_src": (MacAddress(1), MacAddress(2)),
    "dl_dst": (MacAddress(3), MacAddress(4)),
    "dl_vlan": (0xFFFF, 7),
    "dl_vlan_pcp": (0, 3),
    "dl_type": (0x0800, 0x0806),
    "nw_tos": (0, 4),
    "nw_proto": (6, 17),
    "tp_src": (1234, 80),
    "tp_dst": (80, 443),
}

#: Addresses differing at the 1st, 5th, 8th, 9th, 24th and 31st-32nd bits,
#: so every prefix length splits some pair; 0.0.0.0/n must still not
#: match a frame without addresses.
ADDRESSES = tuple(Ipv4Address(a) for a in (
    "10.0.0.1", "10.0.0.2", "10.0.1.1", "10.128.0.1", "11.0.0.1",
    "0.0.0.1"))

#: The fields a non-IP frame does not carry.
IP_ONLY = ("nw_tos", "nw_proto", "nw_src", "nw_dst", "tp_src", "tp_dst")

PRIORITIES = st.sampled_from((0, 1, 2))
#: Any prefix length, with the edge lengths 0 and 32 drawn often.
PREFIXES = st.one_of(st.sampled_from((0, 32)), st.integers(0, 32))


@st.composite
def matches(draw):
    """A random shape; one in four is the fully-specified /32 twelve-tuple."""
    full = draw(st.integers(0, 3)) == 0
    pinned = sorted(VALUES) if full else draw(st.sets(st.sampled_from(sorted(VALUES))))
    kwargs = {name: draw(st.sampled_from(VALUES[name])) for name in pinned}
    for name in ("nw_src", "nw_dst"):
        if full or draw(st.booleans()):
            kwargs[name] = draw(st.sampled_from(ADDRESSES))
            kwargs[name + "_prefix"] = 32 if full else draw(PREFIXES)
    return Match(**kwargs)


@st.composite
def probes(draw, installed):
    """Packet fields, often filled in around an installed match."""
    fields = {name: draw(st.sampled_from(values))
              for name, values in VALUES.items()}
    fields["nw_src"] = draw(st.sampled_from(ADDRESSES))
    fields["nw_dst"] = draw(st.sampled_from(ADDRESSES))
    if installed and draw(st.booleans()):
        match = draw(st.sampled_from(installed))
        for name in fields:
            value = getattr(match, name)
            if value is not None:
                fields[name] = value
    if draw(st.integers(0, 3)) == 0:
        fields.update(dict.fromkeys(IP_ONLY))
    return fields


OPS = st.tuples(
    st.sampled_from((FlowModCommand.ADD, FlowModCommand.ADD,
                     FlowModCommand.MODIFY, FlowModCommand.DELETE,
                     FlowModCommand.DELETE_STRICT)),
    matches(),
    PRIORITIES,
    st.integers(min_value=1, max_value=4),
)


def assert_agrees(table, probe_fields):
    for fields in probe_fields:
        expected = linear_lookup(table.entries, fields)
        hits = table.lookup_fast_hits
        assert table.lookup(fields) is expected
        fast = expected is not None and expected.shape is FULL_SHAPE
        assert table.lookup_fast_hits == hits + fast


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=25), data=st.data())
def test_lookup_is_the_linear_scan(ops, data):
    table = FlowTable()
    installed = []
    for command, match, priority, out_port in ops:
        actions = [OutputAction(out_port)] if command != FlowModCommand.DELETE else []
        flow_mod = FlowMod(match, command, priority=priority, actions=actions)
        table.apply_flow_mod(flow_mod, now=0.0)
        installed.append(match)
        probe_fields = data.draw(st.lists(probes(installed), min_size=1, max_size=4))
        assert_agrees(table, probe_fields)


def test_prefix_entry_never_matches_a_frame_without_addresses():
    """A partial prefix keys a frame with no ``nw_dst`` as None: a miss,
    even for the 0.0.0.0 network."""
    fields = {name: values[0] for name, values in VALUES.items()}
    fields.update(dict.fromkeys(IP_ONLY), dl_type=0x88CC)
    table = FlowTable()
    for match, priority, out_port in (
            (Match(dl_type=0x88CC), 1, 1),
            (Match(dl_type=0x88CC, nw_dst=Ipv4Address("0.0.0.0"), nw_dst_prefix=8), 2, 2)):
        table.apply_flow_mod(FlowMod(match, priority=priority,
                                     actions=[OutputAction(out_port)]), now=0.0)
    winner = table.lookup(fields)
    assert winner is linear_lookup(table.entries, fields)
    assert winner.actions == [OutputAction(1)]
