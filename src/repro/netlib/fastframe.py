"""Frame interning and flow-key memoization (the packet fast lane).

A frame in this simulator is an immutable ``bytes`` object that travels
unchanged from the sending host through every switch hop to the
receiver.  Historically each hop re-ran the full twelve-field extraction
on those same bytes; iperf streams additionally retransmit *identical*
byte windows, so the same content was parsed dozens of times.

:class:`FastFrame` is a ``bytes`` subclass that carries its parsed flow
key alongside the payload:

* ``_base`` — the eleven port-independent fields, computed once per
  distinct frame content (``extract_flow_base``).
* ``_by_port`` — per-ingress-port field dicts (the base plus
  ``in_port``), each carrying a precomputed ``"__tuple__"`` hash key so
  :meth:`FlowTable.lookup` skips ``field_tuple`` entirely.
* ``_macs`` — the ``(src, dst)`` MAC pair for standalone learning and
  host NIC filtering, which need no other field.

The bounded intern pool maps frame content to its ``FastFrame`` so a
retransmitted window resolves to the *same object* — its key caches are
already warm, and CPython's ``bytes`` hash caching makes re-hashing it
for buffering O(1).

Set-field actions do not invalidate the whole key: ``derive_frame``
builds the rewritten frame's key from the parent's by replacing only the
touched field (see ``OpenFlowSwitch._rewrite_dl``/``_rewrite_nw``).

Two entry points serve the ends of the path rather than switch hops:

* :func:`flow_base` reads the memoized eleven-field base of a frame.  End
  hosts dispatch on it (NIC filter, ethertype, destination IP, protocol,
  ports) instead of decoding the frame into layer objects.
* :func:`keyed_frame` is the one way to emit a frame born with its key.
  ``FrameTemplate.emit``, the host send path and ``derive_frame`` all use
  it, so the first hop never parses a frame the simulator built itself.

``set_fast_lane(False)`` disables interning and memoization globally —
every call falls back to a fresh single-pass extraction — which is what
the A/B semantics tests and benchmark baselines toggle.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.netlib.addresses import MacAddress
from repro.netlib.flowkey import (
    FIELD_TUPLE_KEY as TUPLE_KEY,
    MATCH_FIELD_NAMES,
    extract_flow_base,
    extract_flow_key,
    mac_pair_of,
)

#: Intern pool size bound.  Eviction is wholesale (``clear``): the pool
#: re-warms in one round-trip and the bookkeeping stays O(1) per frame.
POOL_MAX = 4096

_BASE_NAMES = MATCH_FIELD_NAMES[1:]  # every field except in_port

_enabled = True
_pool: Dict[bytes, "FastFrame"] = {}

counters: Dict[str, int] = {
    "flowkey_cache_hits": 0,
    "flowkey_cache_misses": 0,
    "frames_interned": 0,
    "pool_evictions": 0,
}


class FastFrame(bytes):
    """Raw Ethernet bytes plus lazily-attached parse caches.

    ``bytes`` subclasses cannot declare nonempty ``__slots__``, so the
    caches live in the instance ``__dict__`` with class-level ``None``
    defaults; an untouched FastFrame costs one empty dict.
    """

    _base: Optional[Dict[str, Any]] = None
    _base_tuple: Optional[Tuple[Any, ...]] = None
    _by_port: Optional[Dict[int, Dict[str, Any]]] = None
    _macs: Any = None  # (src, dst) | False (runt) | None (not yet parsed)


def set_fast_lane(enabled: bool) -> None:
    """Globally enable/disable interning + memoization (A/B switch)."""
    global _enabled
    _enabled = bool(enabled)
    if not _enabled:
        _pool.clear()


def fast_lane_enabled() -> bool:
    return _enabled


def clear_pool() -> None:
    """Drop the intern pool (between experiment runs / in tests)."""
    _pool.clear()


def reset_counters() -> None:
    for name in counters:
        counters[name] = 0


def intern(data: bytes) -> Tuple[bytes, bool]:
    """Resolve ``data`` to its pooled :class:`FastFrame`.

    Returns ``(frame, pooled)`` where ``pooled`` is True when the content
    was already in the pool (a dedup win: the returned frame's caches are
    warm).  With the fast lane off, returns ``(data, False)`` untouched.
    """
    if not _enabled:
        return data, False
    if type(data) is FastFrame:
        return data, False
    cached = _pool.get(data)
    if cached is not None:
        counters["frames_interned"] += 1
        return cached, True
    frame = FastFrame(data)
    if len(_pool) >= POOL_MAX:
        _pool.clear()
        counters["pool_evictions"] += 1
    _pool[frame] = frame
    return frame, False


def flow_key(data: bytes, in_port: int) -> Tuple[Dict[str, Any], bool]:
    """The twelve-field dict for ``data`` on ``in_port``, memoized.

    Returns ``(fields, cache_hit)``.  Memoized dicts carry
    :data:`TUPLE_KEY`; treat them as read-only — they are shared across
    every lookup of this frame at this port number.  Raises exactly what
    ``extract_packet_fields`` raises (nothing is cached on failure).
    """
    if _enabled and type(data) is FastFrame:
        by_port = data._by_port
        if by_port is not None:
            fields = by_port.get(in_port)
            if fields is not None:
                counters["flowkey_cache_hits"] += 1
                return fields, True
        else:
            by_port = data._by_port = {}
        base = data._base
        if base is None:
            base = flow_base(data)
        counters["flowkey_cache_misses"] += 1
        fields = dict(base)
        fields["in_port"] = in_port
        fields[TUPLE_KEY] = (in_port,) + data._base_tuple
        by_port[in_port] = fields
        return fields, False
    return extract_flow_key(data, in_port), False


def flow_base(data: bytes) -> Dict[str, Any]:
    """The eleven port-independent key fields of ``data``, memoized.

    On a :class:`FastFrame` this is ``_base``, computed (with
    ``_base_tuple``) on first use; on plain bytes or with the fast lane
    off it is a fresh ``extract_flow_base``.  Raises exactly what
    ``extract_flow_base`` raises, and nothing is cached on failure.
    Treat the result as read-only: it is shared by every reader of the
    frame (and, for host-built frames, by every frame with the same key).
    """
    if _enabled and type(data) is FastFrame:
        base = data._base
        if base is None:
            base = extract_flow_base(data)
            data._base = base
            data._base_tuple = tuple(base[name] for name in _BASE_NAMES)
        return base
    return extract_flow_base(data)


def keyed_frame(
    data: bytes, base: Dict[str, Any], base_tuple: Tuple[Any, ...]
) -> bytes:
    """``data`` as a FastFrame born with its flow key already attached.

    ``base`` must be what ``extract_flow_base(data)`` returns and
    ``base_tuple`` its values in :data:`MATCH_FIELD_NAMES` order (minus
    ``in_port``); the caller vouches for both.  With the fast lane off
    the bytes go out plain and every hop extracts on demand.
    """
    if not _enabled:
        return data
    frame = FastFrame(data)
    frame._base = base
    frame._base_tuple = base_tuple
    return frame


def mac_pair(data: bytes) -> Optional[Tuple[MacAddress, MacAddress]]:
    """Memoized ``(src, dst)`` MACs; ``None`` for a sub-14-byte runt."""
    if _enabled and type(data) is FastFrame:
        macs = data._macs
        if macs is None:
            base = data._base
            if base is not None:
                macs = (base["dl_src"], base["dl_dst"])
            else:
                macs = mac_pair_of(data)
                if macs is None:
                    macs = False
            data._macs = macs
        return macs or None
    return mac_pair_of(data)


def derive_frame(new_data: bytes, parent: bytes, field: str, value: Any) -> bytes:
    """Attach a key to a rewritten frame without re-parsing it.

    ``new_data`` is the set-field action's output, which differs from
    ``parent`` only in ``field`` (plus recomputed checksums); its flow
    key is therefore the parent's key with that one field replaced.
    Only fires when the parent's key was already computed — otherwise the
    rewritten bytes go out plain and parse on demand downstream.
    """
    if not _enabled or type(parent) is not FastFrame or parent._base is None:
        return new_data
    base = dict(parent._base)
    base[field] = value
    return keyed_frame(new_data, base, tuple(base[name] for name in _BASE_NAMES))
