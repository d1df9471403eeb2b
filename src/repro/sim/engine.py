"""The discrete-event simulation engine."""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import Event, MESSAGE_PRIORITY


class SimulationError(Exception):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class SimulationEngine:
    """A single-clock discrete-event simulator.

    All network elements in the reproduction share one engine instance.  The
    engine guarantees a deterministic total order over events: ties on
    simulated time are broken first by priority and then by scheduling
    sequence number.  This mirrors the paper's single-threaded, centralized
    runtime injector, which "imposes a total ordering on messages seen by
    the runtime injector" (Section VI-C).

    The heap holds flat ``(time, priority, seq, event)`` entries rather than
    ``Event`` objects, so every sift during push/pop compares native tuples
    in C instead of invoking ``Event.__lt__``.  Sequence numbers are unique
    within a priority band (monotone integers for local events, message-key
    tuples in the :data:`MESSAGE_PRIORITY` band), so the trailing event
    object is never reached by a comparison.
    """

    #: Tombstone compaction thresholds: compact when the heap holds at
    #: least the current floor of events and fewer than half are live.
    #: Below the floor a compaction saves nothing; above it the 50% rule
    #: keeps total compaction work amortized O(1) per cancel (each
    #: compaction removes at least as many tombstones as live events
    #: retained).  The floor itself scales with the live-event count: a
    #: large fabric legitimately holds tens of thousands of live timers,
    #: and a fixed floor of 64 would re-heapify that entire population on
    #: nearly every cancel.  After each sweep the floor is raised to twice
    #: the surviving live count (never below COMPACT_MIN_QUEUE), so the
    #: next sweep happens only after the tombstones again outnumber the
    #: live events.
    COMPACT_MIN_QUEUE = 64
    COMPACT_LIVE_NUM = 1
    COMPACT_LIVE_DEN = 2

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Any, Event]] = []
        self._running = False
        self._processed = 0
        self._live = 0
        self._compact_min = self.COMPACT_MIN_QUEUE
        self.heap_compactions = 0
        #: Tombstones physically removed from the heap so far, whether by a
        #: compaction sweep or popped at the head by step/run/_peek.  Along
        #: with ``_live`` this keeps ``pending_events`` exact at all times:
        #: heap_size == pending_events + (tombstones created - swept).
        self.heap_tombstones_swept = 0
        #: Sharded execution bookkeeping (see :mod:`repro.sim.shard`).  A
        #: standalone engine is its own single shard; a region engine run
        #: under a ShardedSimulation is stamped with its place in the
        #: partition and counts the messages it exchanged across shard
        #: boundaries, so ``metrics()`` stays accurate at scale.
        self.shards = 1
        self.shard_id = 0
        self.cross_shard_messages = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still in the queue.

        Maintained as a counter on schedule/cancel/fire — O(1), not a queue
        scan, so metrics snapshots stay cheap on large simulations.
        """
        return self._live

    def _event_cancelled(self) -> None:
        # Called by Event.cancel(); the tombstone stays heap-resident until
        # popped or compacted away, but stops counting as pending
        # immediately.
        self._live -= 1
        queue = self._queue
        if (
            len(queue) >= self._compact_min
            and self._live * self.COMPACT_LIVE_DEN
            < len(queue) * self.COMPACT_LIVE_NUM
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and re-heapify.

        In-place (``queue[:] =``) so the local heap alias held by a
        ``run()`` in progress keeps seeing the compacted list; cancel-heavy
        workloads (liveness probes, expiry timers) otherwise degrade every
        heap operation with dead weight.
        """
        queue = self._queue
        before = len(queue)
        queue[:] = [entry for entry in queue if not entry[3].cancelled]
        heapq.heapify(queue)
        self.heap_compactions += 1
        self.heap_tombstones_swept += before - len(queue)
        # Scale the floor with the surviving population (and let it decay
        # back toward the static minimum as the simulation empties out).
        self._compact_min = max(self.COMPACT_MIN_QUEUE, 2 * self._live)

    @property
    def processed_events(self) -> int:
        """Total number of events fired so far."""
        return self._processed

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} before current time t={self._now!r}"
            )
        event = Event(time, callback, args, priority=priority)
        event._engine = self
        heapq.heappush(self._queue, (event.time, priority, event.seq, event))
        self._live += 1
        return event

    def schedule_message(
        self,
        time: float,
        seq: Any,
        callback: Callable[..., Any],
        *args: Any,
    ) -> Event:
        """Schedule a cross-shard message delivery with a canonical key.

        The event sorts in the :data:`MESSAGE_PRIORITY` band under ``seq``
        (a message-identity tuple such as ``(channel, sender_seq)``) and
        does **not** consume the engine's event sequence counter.  Region
        execution therefore produces identical event orderings no matter
        how the barrier grouped deliveries into epochs — the invariant that
        lets widened barrier epochs stay byte-identical to fixed-width ones.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot deliver at t={time!r} before current time t={self._now!r}"
            )
        event = Event(time, callback, args, priority=MESSAGE_PRIORITY, seq=seq)
        event._engine = self
        heapq.heappush(self._queue, (event.time, MESSAGE_PRIORITY, seq, event))
        self._live += 1
        return event

    def step(self) -> Optional[Event]:
        """Fire the single next non-cancelled event; return it (or None)."""
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)[3]
            if event.cancelled:
                self.heap_tombstones_swept += 1
                continue
            self._live -= 1
            event._engine = None  # late cancel() must not re-decrement
            self._now = event.time
            self._processed += 1
            event.fire()
            return event
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` passes, or the budget ends.

        Returns the number of events fired by this call.  ``until`` is an
        absolute simulated time; events scheduled exactly at ``until`` are
        fired.  After the run the clock is advanced to ``until`` if it was
        provided and the queue drained early.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        limit = until if until is not None else float("inf")
        budget = max_events if max_events is not None else (1 << 62)
        fired = 0
        try:
            while queue:
                entry = queue[0]
                t = entry[0]
                if t > limit or fired >= budget:
                    # Beyond the horizon (or out of budget): leave the head
                    # in place — the heap is only ever popped for events
                    # that actually fire.
                    break
                # Batch every due event at this timestamp: time is monotone
                # within the batch, so the horizon needs no re-test.
                self._now = t
                while True:
                    heappop(queue)
                    event = entry[3]
                    if event.cancelled:
                        self.heap_tombstones_swept += 1
                    else:
                        self._live -= 1
                        event._engine = None  # late cancel() must not re-decrement
                        self._processed += 1
                        event.callback(*event.args)
                        fired += 1
                        if fired >= budget:
                            break
                    if not queue:
                        break
                    entry = queue[0]
                    if entry[0] != t:
                        break
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
        return fired

    def _peek(self) -> Optional[Event]:
        """Return the next live event without firing it (drops cancelled).

        Tombstones popped here are credited to ``heap_tombstones_swept``,
        the same ledger the compaction sweep uses, so ``pending_events``
        and the heap-size metrics stay exact regardless of which path
        removed a cancelled entry.
        """
        queue = self._queue
        while queue:
            entry = queue[0]
            if entry[3].cancelled:
                heapq.heappop(queue)
                self.heap_tombstones_swept += 1
                continue
            return entry[3]
        return None

    def next_event_time(self) -> Optional[float]:
        """The time of the next live event, or None when the queue is empty.

        Used by the sharded coordinator to fast-forward epoch barriers
        over globally idle stretches of simulated time.
        """
        event = self._peek()
        return event.time if event is not None else None

    def drain(self, horizon: float = 1e9, max_events: int = 10_000_000) -> int:
        """Run to completion with a generous safety budget (for tests)."""
        return self.run(until=horizon, max_events=max_events)

    def snapshot(self) -> Tuple[float, int, int]:
        """Return ``(now, pending, processed)`` for debugging/metrics."""
        return (self._now, self.pending_events, self._processed)

    def metrics(self) -> dict:
        """Engine health counters for metrics snapshots and reports."""
        return {
            "now": self._now,
            "pending_events": self._live,
            "processed_events": self._processed,
            "heap_size": len(self._queue),
            "heap_tombstones": len(self._queue) - self._live,
            "heap_compactions": self.heap_compactions,
            "heap_tombstones_swept": self.heap_tombstones_swept,
            "shards": self.shards,
            "shard_id": self.shard_id,
            "cross_shard_messages": self.cross_shard_messages,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimulationEngine t={self._now:.6f} pending={self.pending_events} "
            f"processed={self._processed}>"
        )
