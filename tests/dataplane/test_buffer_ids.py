"""``buffer_id`` allocation drill across the 0x7FFFFFFF wrap.

A switch hands the controller a ``buffer_id`` with every buffered
PACKET_IN and releases the packet when a FLOW_MOD or PACKET_OUT names
that id.  Reissuing an id that is still live would release the wrong
packet — the failure class of an allocator that derives the next id from
the pool size (``len(buffers) + 1``) and so reuses a live id after a
release.  Ids must also never be 0 or ``OFP_NO_BUFFER``.
"""

from hypothesis import given, settings, strategies as st

from repro.dataplane.switch import OpenFlowSwitch
from repro.openflow import OutputAction
from repro.openflow.constants import OFP_NO_BUFFER
from repro.sim import SimulationEngine

ID_MAX = 0x7FFFFFFF

operations = st.lists(
    st.one_of(
        st.just(("buffer", 0)),
        st.tuples(st.just("release"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("release-unknown"),
                  st.integers(min_value=0, max_value=0xFFFFFFFF)),
    ),
    max_size=200,
)


@settings(max_examples=300, deadline=None)
@given(start=st.integers(min_value=ID_MAX - 40, max_value=ID_MAX),
       ops=operations, pool=st.integers(min_value=1, max_value=16))
def test_live_buffer_ids_are_never_reissued(start, ops, pool):
    switch = OpenFlowSwitch(SimulationEngine(), "s1", 1)
    switch.N_BUFFERS = pool  # a small pool so eviction happens too
    switch._next_buffer_id = start
    released = []
    switch.attach_port(2, released.append)
    live = {}  # id -> the frame buffered under it
    issued = []
    serial = 0
    for kind, arg in ops:
        if kind == "buffer":
            serial += 1
            frame = serial.to_bytes(4, "big") * 4
            buffer_id = switch._buffer_packet(frame, 1)
            assert buffer_id not in live
            assert buffer_id not in (0, OFP_NO_BUFFER)
            assert 1 <= buffer_id <= ID_MAX
            issued.append(buffer_id)
            live[buffer_id] = frame
            # The switch may evict its oldest buffer to make room.
            live = {i: f for i, f in live.items() if i in switch._buffers}
        elif kind == "release" and live:
            buffer_id = list(live)[arg % len(live)]
            switch._release_buffer(buffer_id, [OutputAction(2)])
            assert released[-1] == live.pop(buffer_id)
        elif kind == "release-unknown" and arg not in live:
            before = len(released)
            switch._release_buffer(arg, [OutputAction(2)])
            assert len(released) == before
        assert set(live) == set(switch._buffers)
    # Sequential allocation: no id repeats within one lap of the id space.
    assert len(issued) == len(set(issued))
