"""Shared-nothing sharded execution of a partitioned simulation.

The monolithic engine runs every device of a fabric on one event heap.
For generated fabrics (hundreds of switches) this module splits the
simulation into *regions* — disjoint device groups produced by
:func:`repro.dataplane.fabrics.partition_topology` — each with its own
:class:`~repro.sim.engine.SimulationEngine`, its own isolated copies of
every process-global counter, and its own slice of the device graph.
Regions exchange frames and control-plane bytes as explicit messages at
conservative epoch barriers.

Determinism contract
--------------------

The region partition is a pure function of the topology and the requested
region count; the *shard count* (how many worker processes execute the
regions) only groups regions onto execution units.  Every source of
nondeterminism is region-local:

* each region has a private event heap and private sequence counters
  (:class:`RegionContext`), so event tie-breaking never depends on what
  other regions did;
* cross-region messages are delivered through
  :meth:`~repro.sim.engine.SimulationEngine.schedule_message` with a
  canonical ``(arrival, MESSAGE_PRIORITY, (channel, seq))`` heap key that
  is a pure function of the message identity — delivery never draws the
  region's event-sequence counter, so region execution is *windowing
  invariant*: it cannot observe how the barrier grouped deliveries into
  epochs;
* conservative barriers: every boundary channel has latency >= the
  lookahead ``L``, and every epoch ends at least ``L`` before any message
  generated inside it can arrive — no region ever needs to roll back.

Consequently a run's results (metrics, traces) are byte-identical whether
its regions execute inline in one process or spread over any number of
pool workers.

Barrier schedule
----------------

:class:`BarrierSchedule` computes epoch boundaries from global barrier
state (the earliest local event any region holds and the earliest
in-flight message arrival).  Each epoch widens to ``wake + promise``,
where the *promise* is the minimum boundary-channel latency: when every
region is quiescent until ``wake``, no boundary channel can emit anything
arriving before ``wake + promise``, so the barrier is provably safe and
sparse phases (liveness timers, ping intervals, drain tails) collapse
into few rounds.

Exchange
--------

There is one cross-shard execution path.  Pooled execution runs the
whole barrier loop **inside** the workers (``shard_run``): every worker
computes the identical schedule from exchanged control words and ships
its message batches peer-to-peer over
:class:`~repro.sim.mesh.MeshEndpoint` pipes as single packed blobs
(:mod:`repro.sim.codec`), so the coordinator's only involvement is one
task/reply per run.  ``shards <= 1`` runs the same barrier loop inline.
"""

from __future__ import annotations

import itertools
import math
import struct
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dataplane.link import _Direction
from repro.netlib import fastframe
from repro.sim.codec import (
    OP_CLOSE,
    OP_DATA,
    OP_FRAME,
    OP_OPEN,
    BatchDecoder,
    BatchEncoder,
    ShardMessage,
)
from repro.sim.engine import SimulationEngine


class RegionContext:
    """Region-private instances of every process-global counter.

    The simulation's determinism leans on process-global sequences (event
    tie-breaks, ICMP identifiers, OpenFlow xids, the FastFrame intern
    pool).  Sharding gives each region its own copies and swaps them into
    place around every slice of region execution, so the sequences a
    region observes depend only on that region's own history.
    """

    #: Lazily bound targets of the swap — resolving the imports once per
    #: process instead of on every enter/exit keeps the per-epoch context
    #: switch down to a handful of attribute assignments.
    _targets: Optional[tuple] = None

    @classmethod
    def _resolve_targets(cls) -> tuple:
        if cls._targets is None:
            from repro.core.lang.properties import InterposedMessage
            from repro.dataplane.flowtable import FlowEntry
            from repro.dataplane.host import Host
            from repro.openflow import messages as of_messages
            from repro.sim.events import Event

            cls._targets = (
                Event, FlowEntry, Host, InterposedMessage, of_messages)
        return cls._targets

    def __init__(self) -> None:
        self.event_seq = itertools.count()
        self.flow_order = itertools.count()
        self.icmp_id = itertools.count(1)
        self.ephemeral = itertools.count(49152)
        self.msg_id = itertools.count(1)
        self.xid_next = 1
        self.frame_pool: Dict[bytes, object] = {}
        self.frame_counters: Dict[str, int] = {key: 0 for key in fastframe.counters}
        self._saved: Optional[tuple] = None

    def __enter__(self) -> "RegionContext":
        Event, FlowEntry, Host, InterposedMessage, of_messages = (
            self._resolve_targets())
        if self._saved is not None:
            raise RuntimeError("RegionContext is not re-entrant")
        self._saved = (
            Event._seq_counter,
            FlowEntry._order,
            Host._icmp_id,
            Host._ephemeral,
            InterposedMessage._id_counter,
            of_messages._xid_next,
            fastframe._pool,
            fastframe.counters,
        )
        Event._seq_counter = self.event_seq
        FlowEntry._order = self.flow_order
        Host._icmp_id = self.icmp_id
        Host._ephemeral = self.ephemeral
        InterposedMessage._id_counter = self.msg_id
        of_messages._xid_next = self.xid_next
        fastframe._pool = self.frame_pool
        fastframe.counters = self.frame_counters
        return self

    def __exit__(self, *exc_info) -> None:
        Event, FlowEntry, Host, InterposedMessage, of_messages = (
            self._resolve_targets())
        # xids are a plain module int, so read the advanced value back.
        self.xid_next = of_messages._xid_next
        (
            Event._seq_counter,
            FlowEntry._order,
            Host._icmp_id,
            Host._ephemeral,
            InterposedMessage._id_counter,
            of_messages._xid_next,
            fastframe._pool,
            fastframe.counters,
        ) = self._saved
        self._saved = None


# --------------------------------------------------------------------- #
# Boundary plumbing
# --------------------------------------------------------------------- #

class BoundaryTx(_Direction):
    """The local transmit half of a cross-region data link.

    Reuses the stock direction's serialization timeline (busy_until,
    drop-tail queue) byte for byte, but the computed arrival becomes a
    cross-region message instead of a local delivery; a local no-op at
    the arrival instant keeps the queue-occupancy dynamics identical to
    an unsharded link.  Payloads are flattened to plain ``bytes`` at the
    boundary — the receiving region re-interns them into its own
    FastFrame pool at dispatch, so inline and pooled execution observe
    the identical pool history.
    """

    __slots__ = ("emit", "chan")

    def __init__(
        self,
        engine: SimulationEngine,
        bandwidth: float,
        latency: float,
        queue_limit: int,
        emit: Callable[[str, float, str, bytes], None],
        chan: str,
    ) -> None:
        super().__init__(engine, bandwidth, latency, queue_limit)
        self.emit = emit
        self.chan = chan
        self.deliver = self._no_local_delivery  # satisfies transmit()'s guard

    @staticmethod
    def _no_local_delivery(data: bytes) -> None:  # pragma: no cover
        raise AssertionError("boundary direction delivers remotely")

    def _schedule_arrival(self, arrival: float, data: bytes) -> None:
        self.emit(self.chan, arrival, OP_FRAME, bytes(data))
        self.engine.schedule_at(arrival, self._depart)

    def _depart(self) -> None:
        self.queued = max(0, self.queued - 1)


class BoundaryHalf:
    """What a region's :class:`~repro.dataplane.network.Network` sees for
    a link whose far endpoint lives in another region."""

    __slots__ = ("tx", "_deliver")

    def __init__(self, tx: BoundaryTx) -> None:
        self.tx = tx
        self._deliver: Optional[Callable[[bytes], None]] = None

    def transmit(self, data: bytes) -> bool:
        return self.tx.transmit(data)

    def attach(self, deliver: Callable[[bytes], None]) -> None:
        self._deliver = deliver

    def deliver(self, data: bytes) -> None:
        if self._deliver is not None:
            self._deliver(data)


class BoundaryControlChannel:
    """A duck-typed :class:`~repro.dataplane.control.ControlChannel` whose
    peer lives in another region.

    Sends become cross-region messages with arrival ``now + latency`` —
    the same timeline a local channel's ``engine.schedule`` would produce.
    The boundary latency is always >= the sharding lookahead, so these
    arrivals respect the barrier contract.
    """

    __slots__ = ("owner", "latency_s", "name", "label", "peer", "open",
                 "bytes_sent", "bytes_delivered", "_engine", "_emit",
                 "_out_chan")

    def __init__(
        self,
        engine: SimulationEngine,
        owner,
        latency_s: float,
        name: str,
        emit: Callable[[str, float, str, bytes], None],
        out_chan: str,
    ) -> None:
        self._engine = engine
        self.owner = owner
        self.latency_s = latency_s
        self.name = name
        self.label = name
        self.peer = None  # the far half is in another region
        self.open = True
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self._emit = emit
        self._out_chan = out_chan

    def send(self, data: bytes) -> None:
        if not self.open:
            return
        self.bytes_sent += len(data)
        self._emit(self._out_chan, self._engine.now + self.latency_s,
                   OP_DATA, bytes(data))

    def close(self) -> None:
        if not self.open:
            return
        self.open = False
        self._emit(self._out_chan, self._engine.now + self.latency_s,
                   OP_CLOSE, b"")

    # Inbound side, invoked by the region dispatcher at the arrival time.
    def _deliver(self, data: bytes) -> None:
        if not self.open:
            return
        self.bytes_delivered += len(data)
        self.owner.bytes_received(self, data)

    def _peer_closed(self) -> None:
        if not self.open:
            return
        self.open = False
        self.owner.channel_closed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else "closed"
        return f"<BoundaryControlChannel {self.name} {state}>"


# --------------------------------------------------------------------- #
# Region protocol
# --------------------------------------------------------------------- #

class ShardRegion:
    """Base for one shard-executable region of a simulation.

    Subclasses (the fabric builder in :mod:`repro.experiments.fabric`)
    populate the engine/devices inside ``self.ctx``; this base carries the
    message plumbing every region shares.
    """

    def __init__(self, rid: int, total_regions: int) -> None:
        self.rid = rid
        self.ctx = RegionContext()
        self.engine = SimulationEngine()
        self.engine.shards = total_regions
        self.engine.shard_id = rid
        self.outbox: List[Tuple[int, ShardMessage]] = []
        self.messages_received = 0
        self._out_seq = itertools.count()
        #: chan -> BoundaryHalf for inbound boundary-link frames.
        self.link_sinks: Dict[str, BoundaryHalf] = {}
        #: chan -> BoundaryControlChannel for inbound control streams.
        self.ctrl_sinks: Dict[str, BoundaryControlChannel] = {}
        #: chan -> destination region id.
        self.chan_dest: Dict[str, int] = {}

    # -- outbound ------------------------------------------------------ #

    def emit(self, chan: str, arrival: float, op: str, payload: bytes) -> None:
        dest = self.route(chan)
        self.engine.cross_shard_messages += 1
        self.outbox.append(
            (dest, (arrival, chan, next(self._out_seq), op, payload))
        )

    def route(self, chan: str) -> int:
        return self.chan_dest[chan]

    # -- inbound ------------------------------------------------------- #

    def deliver(self, messages: Sequence[ShardMessage]) -> None:
        """Schedule a barrier's worth of inbound messages.

        Delivery goes through ``schedule_message``: the heap key is the
        canonical ``(arrival, MESSAGE_PRIORITY, (chan, seq))`` — a pure
        function of the message, drawing nothing from the region's event
        counter.  Neither the batch order nor how the barrier windowed
        the deliveries can influence region execution, so no pre-sort is
        needed.
        """
        with self.ctx:
            self._deliver_locked(messages)

    def _deliver_locked(self, messages: Sequence[ShardMessage]) -> None:
        engine = self.engine
        dispatch = self._dispatch
        for arrival, chan, seq, op, payload in messages:
            self.messages_received += 1
            engine.schedule_message(arrival, (chan, seq), dispatch,
                                    chan, op, payload)

    def _dispatch(self, chan: str, op: str, payload: bytes) -> None:
        if op == OP_FRAME:
            # Re-intern into this region's pool: repeated payloads (the
            # steady state of any flow) resolve to the same warm FastFrame
            # and are never parsed twice.
            frame, _ = fastframe.intern(payload)
            self.link_sinks[chan].deliver(frame)
            return
        if op == OP_OPEN:
            self.control_opened(chan)
            return
        sink = self.ctrl_sinks.get(chan)
        if sink is None:
            return  # stream raced a teardown; bytes vanish like closed TCP
        if op == OP_DATA:
            sink._deliver(payload)
        elif op == OP_CLOSE:
            sink._peer_closed()

    def control_opened(self, chan: str) -> None:
        """Hook: a far region dialled a control connection (ctrl region)."""
        raise NotImplementedError(
            f"region {self.rid} received an unexpected control dial on {chan!r}"
        )

    # -- execution ----------------------------------------------------- #

    def run_epoch(
        self,
        until: float,
        messages: Optional[Sequence[ShardMessage]] = None,
    ) -> Tuple[List[Tuple[int, ShardMessage]], Optional[float]]:
        """Deliver ``messages`` and advance to ``until`` in one context."""
        with self.ctx:
            if messages:
                self._deliver_locked(messages)
            self.engine.run(until=until)
            out = self.outbox
            self.outbox = []
            next_time = self.engine.next_event_time()
        return out, next_time

    def collect(self) -> Dict[str, Any]:
        """Region results (metrics, workload counters, trace events)."""
        with self.ctx:
            return self._collect()

    def _collect(self) -> Dict[str, Any]:
        return {"engine": self.engine.metrics()}


# --------------------------------------------------------------------- #
# Barrier schedule
# --------------------------------------------------------------------- #

class BarrierSchedule:
    """Deterministic epoch-boundary calculator.

    A pure function of the global barrier state fed to :meth:`advance`
    (earliest pending local event, earliest in-flight arrival), so the
    inline loop and every SPMD worker compute the identical boundary
    sequence independently.

    Each epoch ends at ``wake + promise`` (clamped to the horizon): since
    no region fires an event before ``wake``, no boundary channel can
    emit a message arriving before ``wake + promise``, which keeps the
    no-rollback guarantee while widening epochs well past one lookahead
    grid slot whenever regions are quiescent.  The grid (epochs ending on
    multiples of the lookahead ``L``) is still tracked, for the
    ``epochs_skipped``/``epochs_widened`` counters.

    A message can arrive *exactly on* an epoch boundary (latency equal to
    the promise).  It is delivered at the next barrier and its dispatch
    event fires at its arrival time with the canonical message key, after
    every local event of that instant — the identical order the grid
    produces — so widening never changes results.  The one edge case is
    an arrival landing exactly on the horizon: :meth:`advance` answers
    with a *drain round* (another epoch at the horizon) instead of
    terminating, so the delivery is never dropped.
    """

    __slots__ = ("lookahead", "horizon", "promise",
                 "epochs", "epochs_skipped", "epochs_widened",
                 "_k", "_until")

    def __init__(
        self,
        lookahead: float,
        horizon: float,
        promise: Optional[float] = None,
    ) -> None:
        if lookahead <= 0:
            raise ValueError(f"lookahead must be positive, got {lookahead!r}")
        self.lookahead = float(lookahead)
        self.horizon = float(horizon)
        # The promise may never undercut the lookahead (boundary channels
        # all have latency >= L); math.inf means "no boundary channels at
        # all" and lets the schedule jump straight to the horizon.
        if promise is None:
            self.promise = self.lookahead
        else:
            self.promise = max(float(promise), self.lookahead)
        self.epochs = 0
        self.epochs_skipped = 0
        self.epochs_widened = 0
        self._k = 0
        self._until = min(self.lookahead, self.horizon)

    @property
    def until(self) -> float:
        """The boundary of the epoch to run next."""
        return self._until

    def advance(
        self,
        next_time: Optional[float],
        pending_arrival: Optional[float],
    ) -> bool:
        """Account the epoch just run; compute the next boundary.

        ``next_time`` is the earliest local event still pending in any
        region; ``pending_arrival`` the earliest arrival among messages
        exchanged this epoch (delivered at the next barrier).  Returns
        False when the simulation is complete.
        """
        self.epochs += 1
        horizon = self.horizon
        if self._until >= horizon:
            # Drain round: an exchange can still land a delivery exactly
            # on the horizon (see class docstring); run one more epoch at
            # the horizon so it fires.  Otherwise we are done.
            return pending_arrival is not None and pending_arrival <= horizon
        wake = next_time
        if pending_arrival is not None and (wake is None or pending_arrival < wake):
            wake = pending_arrival
        lookahead = self.lookahead
        if wake is None:
            # Globally idle with nothing in flight: jump to the end so
            # every clock lands on the horizon.
            k_next = max(self._k + 1, int(horizon / lookahead))
            self.epochs_skipped += max(0, k_next - self._k - 1)
            self._k = k_next
            self._until = min((k_next + 1) * lookahead, horizon)
            return True
        promise = self.promise
        target = horizon if math.isinf(promise) else min(horizon, wake + promise)
        if target <= self._until:  # pragma: no cover - defensive clamp
            target = min(horizon, self._until + lookahead)
        # The grid epoch whose (k+1)*L boundary first covers `wake`.
        grid_k = max(self._k + 1, -int(-wake / lookahead) - 1)
        grid_until = min((grid_k + 1) * lookahead, horizon)
        if target > grid_until:
            self.epochs_widened += 1
        k_next = max(grid_k, -int(-target / lookahead) - 1)
        self.epochs_skipped += max(0, k_next - self._k - 1)
        self._k = k_next
        self._until = target
        return True

    def counters(self) -> Dict[str, int]:
        return {
            "epochs": self.epochs,
            "epochs_skipped": self.epochs_skipped,
            "epochs_widened": self.epochs_widened,
        }


# --------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------- #

def _build_regions(config: Dict[str, Any], rids: Sequence[int]) -> Dict[int, ShardRegion]:
    # The builder lives with the experiment (it knows about controllers,
    # workloads, fabrics); imported lazily to keep the sim layer free of
    # upward dependencies at import time.
    from repro.experiments.fabric import build_fabric_regions

    return {region.rid: region for region in build_fabric_regions(config, rids)}


#: SPMD control word exchanged alongside each batch blob: the sender's
#: earliest pending local event time and earliest outbound arrival
#: (``inf`` encodes "none").
_CONTROL = struct.Struct("<dd")


def _pack_optional(value: Optional[float]) -> float:
    return math.inf if value is None else value


def _unpack_optional(value: float) -> Optional[float]:
    return None if math.isinf(value) else value


class ShardWorkerSession:
    """Per-process state behind the pool's ``shard_*`` tasks.

    Lives inside a pool worker.  ``shard_init`` builds this worker's
    regions; ``shard_run`` executes the **entire** barrier loop SPMD-style
    (batches travel peer-to-peer over the pipe mesh, every worker derives
    the identical epoch schedule from exchanged control words, and the
    coordinator sees exactly one reply per run); ``shard_collect``
    returns results.
    """

    def __init__(self, peer_index: int, mesh_matrix) -> None:
        self.regions: Dict[int, ShardRegion] = {}
        self.cpu_s = 0.0
        self._index = peer_index
        self._owner: Dict[int, int] = {}
        self._mesh = None
        if mesh_matrix is not None:
            from repro.sim.mesh import MeshEndpoint

            self._mesh = MeshEndpoint(peer_index, mesh_matrix)

    def handle(self, task: Dict[str, Any]) -> Dict[str, Any]:
        op = task["op"]
        if op == "shard_init":
            started = time.process_time()
            from repro.campaign.runner import reset_run_state

            reset_run_state()
            self.regions = _build_regions(task["config"], task["rids"])
            self._owner = {
                rid: worker
                for worker, rids in enumerate(task.get("assignment") or [])
                for rid in rids
            }
            self.cpu_s += time.process_time() - started
            return {"status": "ok", "rids": sorted(self.regions)}
        if op == "shard_run":
            started = time.process_time()
            reply = self._spmd_run(task)
            self.cpu_s += time.process_time() - started
            return reply
        if op == "shard_collect":
            started = time.process_time()
            results = {rid: region.collect()
                       for rid, region in sorted(self.regions.items())}
            self.cpu_s += time.process_time() - started
            return {"status": "ok", "regions": results, "cpu_s": self.cpu_s}
        raise ValueError(f"unknown shard op {op!r}")

    # -- SPMD barrier loop --------------------------------------------- #

    def _spmd_run(self, task: Dict[str, Any]) -> Dict[str, Any]:
        """Run every barrier of the simulation without coordinator turns.

        Each round: run this worker's regions to the current boundary,
        group the outbox by owning worker, send one control word plus one
        batch blob to every peer, fold the peers' control words into the
        global barrier state, and advance the shared schedule.  All
        workers see the same control information, so all compute the same
        boundary sequence — lock-step without a conductor.
        """
        schedule = BarrierSchedule(task["lookahead"], task["horizon"],
                                   promise=task.get("promise"))
        mesh = self._mesh
        peers = mesh.peers if mesh is not None else []
        encoders = {peer: BatchEncoder() for peer in peers}
        decoders = {peer: BatchDecoder() for peer in peers}
        inbox: Dict[int, List[ShardMessage]] = {}
        sent_total = 0
        exchange_bytes = 0
        exchange_blobs = 0
        while True:
            outbox, next_time = run_region_epoch(
                self.regions, schedule.until, inbox)
            inbox = {}
            grouped: Dict[int, Dict[int, List[ShardMessage]]] = {
                peer: {} for peer in peers}
            min_arrival: Optional[float] = None
            for dest, message in outbox:
                owner = self._owner.get(dest, self._index)
                target = inbox if owner == self._index else grouped[owner]
                target.setdefault(dest, []).append(message)
                if min_arrival is None or message[0] < min_arrival:
                    min_arrival = message[0]
            control = _CONTROL.pack(
                _pack_optional(next_time), _pack_optional(min_arrival))
            for peer in peers:
                batch = grouped[peer]
                blob = encoders[peer].encode(batch)
                mesh.send(peer, control + blob)
                exchange_bytes += _CONTROL.size + len(blob)
                if batch:
                    exchange_blobs += 1
            agg_next = next_time
            agg_arrival = min_arrival
            for peer in peers:
                frame = mesh.recv(peer)
                peer_next, peer_arrival = _CONTROL.unpack_from(frame, 0)
                batch = decoders[peer].decode(frame[_CONTROL.size:])
                for rid, messages in batch.items():
                    inbox.setdefault(rid, []).extend(messages)
                peer_next = _unpack_optional(peer_next)
                peer_arrival = _unpack_optional(peer_arrival)
                if peer_next is not None and (
                        agg_next is None or peer_next < agg_next):
                    agg_next = peer_next
                if peer_arrival is not None and (
                        agg_arrival is None or peer_arrival < agg_arrival):
                    agg_arrival = peer_arrival
            if mesh is not None:
                mesh.flush_all()
            sent_total += len(outbox)
            if not schedule.advance(agg_next, agg_arrival):
                break
        reply = {"status": "ok", "sent": sent_total,
                 "exchange_bytes": exchange_bytes,
                 "exchange_blobs": exchange_blobs}
        reply.update(schedule.counters())
        return reply


def run_region_epoch(
    regions: Dict[int, ShardRegion],
    until: float,
    inbox: Dict[int, List[ShardMessage]],
) -> Tuple[List[Tuple[int, ShardMessage]], Optional[float]]:
    """Deliver one barrier's messages and run every region to ``until``."""
    outbox: List[Tuple[int, ShardMessage]] = []
    next_time: Optional[float] = None
    for rid in sorted(regions):
        region = regions[rid]
        out, region_next = region.run_epoch(until, inbox.get(rid))
        outbox.extend(out)
        if region_next is not None:
            next_time = region_next if next_time is None else min(next_time, region_next)
    return outbox, next_time


def assign_regions(
    region_ids: Sequence[int],
    weights: Dict[int, int],
    shards: int,
) -> List[List[int]]:
    """Pack regions onto ``shards`` workers, heaviest first (LPT).

    Purely an execution-grouping decision: any assignment produces the
    same simulation results.
    """
    shards = max(1, min(shards, len(region_ids)))
    bins: List[List[int]] = [[] for _ in range(shards)]
    loads = [0] * shards
    for rid in sorted(region_ids, key=lambda r: (-weights.get(r, 1), r)):
        target = min(range(shards), key=lambda b: (loads[b], b))
        bins[target].append(rid)
        loads[target] += weights.get(rid, 1)
    return [sorted(b) for b in bins]


class ShardedSimulation:
    """The conservative barrier coordinator.

    ``shards <= 1`` executes every region inline (no IPC); ``shards > 1``
    spreads regions over a persistent pool of worker processes (the
    campaign runner's worker loop) and runs the whole barrier loop SPMD
    inside them, exchanging batches over the pipe mesh.
    """

    def __init__(
        self,
        config: Dict[str, Any],
        region_ids: Sequence[int],
        weights: Dict[int, int],
        lookahead: float,
        horizon: float,
        shards: int = 1,
        promise: Optional[float] = None,
    ) -> None:
        if lookahead <= 0:
            raise ValueError(f"lookahead must be positive, got {lookahead!r}")
        self.config = config
        self.region_ids = list(region_ids)
        self.weights = dict(weights)
        self.lookahead = float(lookahead)
        self.horizon = float(horizon)
        self.shards = max(1, int(shards))
        self.promise = promise
        self.epochs = 0
        self.messages = 0
        self.epochs_skipped = 0
        self.epochs_widened = 0
        self.exchange_bytes = 0
        self.exchange_blobs = 0

    def run(self) -> Dict[str, Any]:
        wall_started = time.perf_counter()
        cpu_started = time.process_time()
        if self.shards <= 1:
            payload = self._run_inline()
        else:
            payload = self._run_pooled()
        payload["wall_s"] = time.perf_counter() - wall_started
        payload["coordinator_cpu_s"] = time.process_time() - cpu_started
        payload["epochs"] = self.epochs
        payload["messages"] = self.messages
        payload["shards"] = self.shards
        payload["regions_count"] = len(self.region_ids)
        payload["epochs_skipped"] = self.epochs_skipped
        payload["epochs_widened"] = self.epochs_widened
        payload["exchange_bytes"] = self.exchange_bytes
        payload["exchange_blobs"] = self.exchange_blobs
        return payload

    # -- inline -------------------------------------------------------- #

    def _run_inline(self) -> Dict[str, Any]:
        """The barrier loop in this process: every region, one schedule."""
        regions = _build_regions(self.config, self.region_ids)
        schedule = BarrierSchedule(self.lookahead, self.horizon,
                                   promise=self.promise)
        inbox: Dict[int, List[ShardMessage]] = {}
        while True:
            outbox, next_time = run_region_epoch(
                regions, schedule.until, inbox)
            inbox = {}
            pending_arrival: Optional[float] = None
            for dest, message in outbox:
                inbox.setdefault(dest, []).append(message)
                if pending_arrival is None or message[0] < pending_arrival:
                    pending_arrival = message[0]
            self.messages += len(outbox)
            if not schedule.advance(next_time, pending_arrival):
                break
        self.epochs = schedule.epochs
        self.epochs_skipped = schedule.epochs_skipped
        self.epochs_widened = schedule.epochs_widened
        results = {rid: region.collect()
                   for rid, region in sorted(regions.items())}
        return {"regions": results, "worker_cpu_s": []}

    # -- pooled -------------------------------------------------------- #

    def _run_pooled(self) -> Dict[str, Any]:
        """One task per worker; the barrier loop runs inside the pool."""
        from repro.campaign.runner import ShardWorkerPool

        assignment = assign_regions(self.region_ids, self.weights, self.shards)
        pool = ShardWorkerPool(len(assignment))
        try:
            pool.init(self.config, assignment)
            replies = pool.run_barrier(lookahead=self.lookahead,
                                       horizon=self.horizon,
                                       promise=self.promise)
            epochs = {reply["epochs"] for reply in replies}
            if len(epochs) != 1:  # pragma: no cover - protocol invariant
                raise RuntimeError(
                    f"shard workers disagreed on the epoch count: "
                    f"{sorted(epochs)}"
                )
            first = replies[0]
            self.epochs = first["epochs"]
            self.epochs_skipped = first["epochs_skipped"]
            self.epochs_widened = first["epochs_widened"]
            self.messages = sum(reply["sent"] for reply in replies)
            self.exchange_bytes = sum(reply["exchange_bytes"]
                                      for reply in replies)
            self.exchange_blobs = sum(reply["exchange_blobs"]
                                      for reply in replies)
            collected = pool.collect()
            results: Dict[int, Dict[str, Any]] = {}
            worker_cpu = []
            for reply in collected:
                results.update(reply["regions"])
                worker_cpu.append(reply["cpu_s"])
            return {
                "regions": dict(sorted(results.items())),
                "worker_cpu_s": worker_cpu,
                "assignment": assignment,
            }
        finally:
            pool.shutdown()
