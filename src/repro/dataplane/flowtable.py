"""OpenFlow 1.0 flow table with priorities, timeouts, and statistics.

Semantics follow the OF 1.0 specification as implemented by OVS v1.9:
highest-priority matching entry wins; exact ties resolve to the
earliest-installed entry; idle and hard timeouts expire entries and can emit
FLOW_REMOVED notifications.

Write index: OF 1.0 allows one entry per ``(priority, packed match)`` —
an ADD with the same pair replaces the installed entry — so the entries
live in one insertion-ordered dict keyed by that pair (``strict_key``,
computed once when the entry is built).  ADD-replace, MODIFY_STRICT and
DELETE_STRICT are dict probes, the FIFO eviction victim is the dict's
first item, and ``entries`` lists the table in install order.

Lookup index: a tuple-space classifier, the design Open vSwitch uses
(Srinivasan, Suri & Varghese, SIGCOMM 1999; Pfaff et al., NSDI 2015).  An
entry's *shape* is the set of fields its match pins plus its effective
``nw_src``/``nw_dst`` prefix lengths (0 when the address is wildcarded).
Within one shape, matching is equality on a key — the pinned values, with
a partial prefix reduced to its masked network — so each shape is one
hash table from key to a bucket kept best rank first.  A lookup computes
each installed shape's key from the packet fields once and keeps the best
bucket head: O(shapes) instead of O(entries).  A learning controller's
fully-specified /32 entries share one shape whose key is the memoized
twelve-tuple (``field_tuple``); a proactive fabric's ``dl_dst`` routes
share another.  ``lookup_fast_hits`` counts lookups won by a
fully-specified entry.

Installed matches must not be mutated: both indexes key on them.
"""

from __future__ import annotations

import itertools
from bisect import insort
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.openflow.actions import Action
from repro.openflow.constants import FlowModCommand, FlowModFlags, Port
from repro.openflow.match import MATCH_FIELD_NAMES, Match, field_tuple
from repro.openflow.messages import FlowMod

#: ``(priority, Match.pack())`` — the identity strict flow-mods compare.
StrictKey = Tuple[int, bytes]

#: ``(pinned field names, nw_src prefix, nw_dst prefix)`` — what a match
#: constrains.  Names follow ``MATCH_FIELD_NAMES`` order; an address with
#: an effective prefix of 0 is not pinned.
Shape = Tuple[Tuple[str, ...], int, int]

#: The shape of a fully-specified twelve-tuple with /32 addresses.
FULL_SHAPE: Shape = (MATCH_FIELD_NAMES, 32, 32)

KeyFunction = Callable[[Dict[str, Any]], Any]


class FlowEntry:
    """One installed flow rule."""

    _order = itertools.count()

    __slots__ = (
        "match",
        "priority",
        "actions",
        "cookie",
        "idle_timeout",
        "hard_timeout",
        "flags",
        "install_time",
        "last_used",
        "packet_count",
        "byte_count",
        "order",
        "strict_key",
        "shape",
        "key",
    )

    def __init__(
        self,
        match: Match,
        priority: int,
        actions: List[Action],
        cookie: int = 0,
        idle_timeout: int = 0,
        hard_timeout: int = 0,
        flags: int = 0,
        install_time: float = 0.0,
    ) -> None:
        self.match = match
        self.priority = priority
        self.actions = list(actions)
        self.cookie = cookie
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout
        self.flags = flags
        self.install_time = install_time
        self.last_used = install_time
        self.packet_count = 0
        self.byte_count = 0
        self.order = next(FlowEntry._order)
        self.strict_key: StrictKey = (priority, match.pack())
        self.shape, self.key = _classify(match)

    @property
    def sends_flow_removed(self) -> bool:
        return bool(self.flags & FlowModFlags.SEND_FLOW_REM)

    def outputs_to(self, port: int) -> bool:
        """True if any action outputs to ``port`` (for out_port filtering)."""
        from repro.openflow.actions import OutputAction

        return any(isinstance(a, OutputAction) and a.port == port for a in self.actions)

    def record_use(self, now: float, byte_count: int) -> None:
        self.last_used = now
        self.packet_count += 1
        self.byte_count += byte_count

    def expired_reason(self, now: float) -> Optional[str]:
        """Return ``"idle"``/``"hard"`` when the entry has timed out."""
        if self.hard_timeout and now >= self.install_time + self.hard_timeout:
            return "hard"
        if self.idle_timeout and now >= self.last_used + self.idle_timeout:
            return "idle"
        return None

    def __repr__(self) -> str:
        return (
            f"<FlowEntry prio={self.priority} {self.match!r} "
            f"actions={self.actions} idle={self.idle_timeout} hard={self.hard_timeout}>"
        )


def _classify(match: Match) -> Tuple[Shape, Any]:
    """The shape of ``match`` and its key within that shape."""
    pinned = {}
    for name in MATCH_FIELD_NAMES:
        value = getattr(match, name)
        if value is not None:
            pinned[name] = value
    src_prefix = match.nw_src_prefix if "nw_src" in pinned else 0
    dst_prefix = match.nw_dst_prefix if "nw_dst" in pinned else 0
    if src_prefix == 0:
        pinned.pop("nw_src", None)
    if dst_prefix == 0:
        pinned.pop("nw_dst", None)
    shape = (tuple(pinned), src_prefix, dst_prefix)
    known = _SHAPES.get(shape)
    if known is None:
        known = _SHAPES[shape] = (shape, _key_function(shape))
    shape, key_of = known
    # The match's own pinned values, read through the shape's key function,
    # are the key a matching packet's fields produce.
    return shape, key_of(pinned)


#: shape -> (the interned shape, its key function), shared by every table.
#: A pure memo: both values depend on the shape alone, so a run's results
#: never depend on what earlier tables in the process installed.
_SHAPES: Dict[Shape, Tuple[Shape, KeyFunction]] = {
    FULL_SHAPE: (FULL_SHAPE, field_tuple),
}


def _key_function(shape: Shape) -> KeyFunction:
    """The function mapping packet fields to their key in ``shape``.

    Fields a shape pins whole are compared by value; a partial
    ``nw_src``/``nw_dst`` prefix contributes the masked network (None
    when the packet carries no such field, which no entry key holds).
    A one-field shape (a fabric's ``dl_dst`` routes) keys on the bare
    value.  Keys are built from lists, not ``tuple(map(...))``: a tuple
    grown from an iterator is resized on every call, which parks up to
    2000 freed tuples per size in the interpreter's free list.
    """
    names, src_prefix, dst_prefix = shape
    masked = tuple(
        (name, ((1 << prefix) - 1) << (32 - prefix))
        for name, prefix in (("nw_src", src_prefix), ("nw_dst", dst_prefix))
        if 0 < prefix < 32
    )
    partial = {name for name, _ in masked}
    whole = tuple(name for name in names if name not in partial)
    if not masked and len(whole) == 1:
        (only,) = whole

        def key_of(fields: Dict[str, Any]) -> Any:
            return fields.get(only)
    elif not masked:
        def key_of(fields: Dict[str, Any]) -> Tuple[Any, ...]:
            return tuple([fields.get(name) for name in whole])
    else:
        def key_of(fields: Dict[str, Any]) -> Tuple[Any, ...]:
            values = [fields.get(name) for name in whole]
            for name, mask in masked:
                address = fields.get(name)
                values.append(None if address is None else int(address) & mask)
            return tuple(values)
    return key_of


def _bucket_rank(entry: FlowEntry) -> Tuple[int, int]:
    """Bucket order: best rank first (higher priority, then earlier install)."""
    return (-entry.priority, entry.order)


#: How a full table treats a new ADD.  ``refuse`` mirrors stock OVS v1.9
#: (OFPFMFC_ALL_TABLES_FULL error); ``lru``/``fifo`` model the eviction
#: behaviour overflow attacks probe for ("An Inference Attack Model for
#: Flow Table Capacity and Usage").
EVICTION_POLICIES = ("refuse", "lru", "fifo")


class FlowTable:
    """A single OF 1.0 flow table (OVS v1.9 exposed one to OpenFlow 1.0)."""

    def __init__(self, max_entries: int = 65536, eviction: str = "refuse") -> None:
        if eviction not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {eviction!r}; choose from {EVICTION_POLICIES}"
            )
        self.max_entries = max_entries
        self.eviction = eviction
        self.lookups = 0
        self.matched = 0
        self.lookup_fast_hits = 0
        self.capacity_evictions = 0
        self.occupancy_peak = 0
        # The strict index doubles as the install-ordered entry store.
        self._strict: Dict[StrictKey, FlowEntry] = {}
        # shape -> (key function, {key -> bucket sorted best rank first});
        # a shape leaves the index with its last entry.
        self._shapes: Dict[Shape, Tuple[KeyFunction, Dict[Any, List[FlowEntry]]]] = {}
        self._subtables = self._shapes.values()  # a live view, for lookup

    @property
    def entries(self) -> List[FlowEntry]:
        """The installed entries in install order (a fresh list)."""
        return list(self._strict.values())

    def __len__(self) -> int:
        return len(self._strict)

    def reset_stats(self) -> None:
        """Zero the cumulative counters (``occupancy_peak``,
        ``capacity_evictions``, lookup stats) without touching entries.

        Campaign workers rebuild every :class:`FlowTable` per run, so
        run records never inherit a previous run's peaks — but any
        harness that *does* pool a network across runs must call this
        alongside :func:`repro.campaign.runner.reset_run_state`, which
        only resets process-global counters, not per-table stats.
        """
        self.lookups = 0
        self.matched = 0
        self.lookup_fast_hits = 0
        self.capacity_evictions = 0
        self.occupancy_peak = 0

    # ------------------------------------------------------------------ #
    # Index maintenance
    # ------------------------------------------------------------------ #

    def _install(self, entry: FlowEntry) -> None:
        self._strict[entry.strict_key] = entry
        subtable = self._shapes.get(entry.shape)
        if subtable is None:
            subtable = self._shapes[entry.shape] = (_SHAPES[entry.shape][1], {})
        buckets = subtable[1]
        bucket = buckets.get(entry.key)
        if bucket is None:
            buckets[entry.key] = [entry]
        else:
            insort(bucket, entry, key=_bucket_rank)

    def _discard(self, removed: Iterable[FlowEntry]) -> None:
        """Drop installed entries from every index."""
        for entry in removed:
            del self._strict[entry.strict_key]
            buckets = self._shapes[entry.shape][1]
            bucket = buckets[entry.key]
            bucket.remove(entry)
            if not bucket:
                del buckets[entry.key]
                if not buckets:
                    del self._shapes[entry.shape]

    # ------------------------------------------------------------------ #
    # Flow-mod application
    # ------------------------------------------------------------------ #

    def apply_flow_mod(self, flow_mod: FlowMod, now: float) -> Tuple[List[FlowEntry], bool]:
        """Apply a FLOW_MOD; return (removed_entries, table_full).

        Removed entries are returned so the switch can emit FLOW_REMOVED
        messages when entries requested it.  For DELETE commands they are
        the deleted entries; for ADD against a full table under an
        ``lru``/``fifo`` policy they are the capacity-eviction victims.
        ``table_full`` is only ever True under the ``refuse`` policy.
        """
        command = flow_mod.command
        if command == FlowModCommand.ADD:
            return self._add(flow_mod, now)
        if command in (FlowModCommand.MODIFY, FlowModCommand.MODIFY_STRICT):
            return self._modify(flow_mod, now, strict=command == FlowModCommand.MODIFY_STRICT)
        if command in (FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT):
            return self._delete(flow_mod, strict=command == FlowModCommand.DELETE_STRICT)
        raise ValueError(f"unsupported flow-mod command {command!r}")

    def _add(self, flow_mod: FlowMod, now: float) -> Tuple[List[FlowEntry], bool]:
        entry = FlowEntry(
            flow_mod.match,
            flow_mod.priority,
            flow_mod.actions,
            cookie=flow_mod.cookie,
            idle_timeout=flow_mod.idle_timeout,
            hard_timeout=flow_mod.hard_timeout,
            flags=flow_mod.flags,
            install_time=now,
        )
        # OF 1.0: ADD with an identical match+priority replaces the entry.
        replaced = self._strict.get(entry.strict_key)
        if replaced is not None:
            self._discard((replaced,))
        evicted: List[FlowEntry] = []
        while len(self._strict) >= self.max_entries:
            victim = self._eviction_victim()
            if victim is None:
                return [], True
            self._discard((victim,))
            self.capacity_evictions += 1
            evicted.append(victim)
        self._install(entry)
        if len(self._strict) > self.occupancy_peak:
            self.occupancy_peak = len(self._strict)
        return evicted, False

    def _eviction_victim(self) -> Optional[FlowEntry]:
        """The entry a full table sacrifices for a new ADD, or None (refuse).

        LRU picks the least-recently-used entry (install time counts as a
        use); FIFO the earliest-installed.  Ties break on install order,
        so the choice is deterministic for a deterministic workload.
        """
        if self.eviction == "refuse" or not self._strict:
            return None
        if self.eviction == "lru":
            return min(self._strict.values(), key=lambda e: (e.last_used, e.order))
        return next(iter(self._strict.values()))

    def _modify(self, flow_mod: FlowMod, now: float, strict: bool) -> Tuple[List[FlowEntry], bool]:
        # Only actions/cookie change — match and priority stay, so the
        # indexes need no maintenance here.
        targets = self._targets(flow_mod, strict)
        if not targets:
            return self._add(flow_mod, now)
        for entry in targets:
            entry.actions = list(flow_mod.actions)
            entry.cookie = flow_mod.cookie
        return [], False

    def _delete(self, flow_mod: FlowMod, strict: bool) -> Tuple[List[FlowEntry], bool]:
        removed = self._targets(flow_mod, strict)
        if flow_mod.out_port != Port.NONE:
            removed = [entry for entry in removed if entry.outputs_to(flow_mod.out_port)]
        self._discard(removed)
        return removed, False

    def _targets(self, flow_mod: FlowMod, strict: bool) -> List[FlowEntry]:
        """Entries a MODIFY/DELETE names, in install order.

        Strict commands name the one entry with the same priority and
        match; non-strict ones every entry the match subsumes.
        """
        if strict:
            entry = self._strict.get((flow_mod.priority, flow_mod.match.pack()))
            return [] if entry is None else [entry]
        match = flow_mod.match
        return [entry for entry in self._strict.values() if match.subsumes(entry.match)]

    # ------------------------------------------------------------------ #
    # Lookup / expiry
    # ------------------------------------------------------------------ #

    def lookup(self, fields: Dict[str, Any]) -> Optional[FlowEntry]:
        """Highest-priority entry matching extracted packet fields."""
        self.lookups += 1
        best: Optional[FlowEntry] = None
        for key_of, buckets in self._subtables:
            bucket = buckets.get(key_of(fields))
            if bucket is not None:
                head = bucket[0]
                if best is None or head.priority > best.priority or (
                        head.priority == best.priority and head.order < best.order):
                    best = head
        if best is not None:
            self.matched += 1
            if best.shape is FULL_SHAPE:
                self.lookup_fast_hits += 1
        return best

    def expire(self, now: float) -> List[Tuple[FlowEntry, str]]:
        """Remove and return timed-out entries with their expiry reason."""
        expired: List[Tuple[FlowEntry, str]] = []
        for entry in self._strict.values():
            reason = entry.expired_reason(now)
            if reason is not None:
                expired.append((entry, reason))
        self._discard(entry for entry, _ in expired)
        return expired

    def clear(self) -> List[FlowEntry]:
        """Remove all entries (connection reset semantics)."""
        removed = self.entries
        self._strict.clear()
        self._shapes.clear()
        return removed

    def __repr__(self) -> str:
        return f"<FlowTable entries={len(self)} lookups={self.lookups}>"
