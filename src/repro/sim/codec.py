"""Packed binary codec for cross-shard message batches.

The sharded executor (:mod:`repro.sim.shard`) exchanges batches of
``(arrival, chan, seq, op, payload)`` messages between workers at every
epoch barrier.  Pickling those tuples is the dominant serial tax of the
exchange path: every message re-emits its channel string, every payload
ships in full even when the same frame bytes cross the same boundary
link thousands of times (the steady state of any flow), and each batch
pays a pickler walk over its tuples.

This codec packs a batch into **one** ``bytes`` blob and keeps
**per-stream state** so repetition never crosses the wire twice:

* **channel registry** — a channel's name and destination region id are
  sent once per stream, the first blob they appear in; afterwards
  messages carry a 2-byte index.
* **payload reference table** — per channel, previously sent payloads
  are remembered (up to :data:`PAYLOAD_CACHE` entries); a payload seen
  before is encoded as a 2-byte reference instead of its bytes.  When a
  table is full it is cleared before the next insert — both sides apply
  the rule at the same point in the stream, so the tables never diverge.
* **sequence deltas** — per channel, the sender's sequence number is
  monotone; messages carry the 2-byte delta from the previous message
  on that channel (with a wide escape for rare large gaps).

The blob is sectioned so each side runs **one** bulk ``struct`` call
per blob instead of one per message: a fixed-stride header array
(``<dHBHH`` per message: arrival f64, channel index, op/flags byte,
seq delta, payload ref-or-length), then a u32 extras array holding the
rare wide values (``FLAG_WIDE_SEQ`` / ``FLAG_WIDE_LEN`` escapes for
deltas or literal lengths that overflow 16 bits, consumed in message
order), then the literal payload bytes concatenated.

Encoders/decoders are **stateful per directed worker pair**: state
persists across the blobs of one stream and must never be shared
between streams.  Both ends of a stream process its blobs in the same
round order (the barrier is lock-step), which is what makes the
mirrored state sound.

This module also owns the boundary vocabulary — :data:`ShardMessage`
and the ``OP_*`` channel ops — that :mod:`repro.sim.shard` emits.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

#: A cross-region message: (arrival_time, channel, seq, op, payload).
#: Tuples sort naturally into the deterministic delivery order.
ShardMessage = Tuple[float, str, int, str, bytes]

#: A batch: destination region id -> ordered messages.
Batch = Dict[int, List[ShardMessage]]

#: Channel-op vocabulary.
OP_FRAME = "frame"   # a data-plane frame crossing a boundary link
OP_DATA = "data"     # control-plane stream bytes
OP_OPEN = "open"     # control-plane dial
OP_CLOSE = "close"   # control-plane teardown

# Wire op codes: an op's index in this tuple.
_OPS = (OP_FRAME, OP_DATA, OP_OPEN, OP_CLOSE)
_OP_CODE = {name: code for code, name in enumerate(_OPS)}

#: Per-channel payload table bound.  Big enough that every flow crossing
#: one boundary link keeps its frame resident; small enough that streams
#: of never-repeating payloads (control-plane messages with fresh xids)
#: stay O(1) in memory.
PAYLOAD_CACHE = 256

FLAG_REF = 0x10        # payload field is a table reference, not a length
FLAG_WIDE_SEQ = 0x20   # u32 seq delta appended after the fixed struct
FLAG_WIDE_LEN = 0x40   # u32 payload length appended after the fixed struct
_OP_MASK = 0x03

_HEAD = struct.Struct("<HII")   # new-channel count, message count, wide count
_CHAN = struct.Struct("<HH")    # destination region id, name length
_MSG = struct.Struct("<dHBHH")  # arrival, chan, op/flags, seq delta, ref/len
_MSG_FIELDS = "dHBHH"
MESSAGE_HEADER_BYTES = _MSG.size
_struct_pack = struct.pack
_struct_unpack_from = struct.unpack_from


class BatchEncoder:
    """Stateful encoder for one directed exchange stream.

    Per-channel stream state lives in parallel lists indexed by channel
    id (payload table, payload index, last sequence number) — index
    loads beat attribute loads in the per-message hot loop.
    """

    __slots__ = ("_chan_ids", "_payloads", "_indexes", "_last_seqs")

    def __init__(self) -> None:
        self._chan_ids: Dict[str, int] = {}
        self._payloads: List[List[bytes]] = []
        self._indexes: List[Dict[bytes, int]] = []
        self._last_seqs: List[int] = []

    def encode(self, batch: Batch) -> bytes:
        if not batch:
            # Most directed worker pairs share no boundary link most
            # epochs; their exchange is pure barrier control.  Zero bytes
            # on the wire for that case — the frame length already says
            # everything.
            return b""
        chan_ids = self._chan_ids
        payload_tables = self._payloads
        payload_indexes = self._indexes
        last_seqs = self._last_seqs
        new_chans: List[bytes] = []
        header_vals: List = []
        extend = header_vals.extend
        extras: List[int] = []
        payloads: List[bytes] = []
        count = 0
        for rid in sorted(batch):
            for arrival, chan, seq, op, payload in batch[rid]:
                index = chan_ids.get(chan)
                if index is None:
                    index = chan_ids[chan] = len(last_seqs)
                    payload_tables.append([])
                    payload_indexes.append({})
                    last_seqs.append(0)
                    encoded = chan.encode("utf-8")
                    new_chans.append(_CHAN.pack(rid, len(encoded)) + encoded)
                flags = _OP_CODE[op]
                delta = seq - last_seqs[index]
                last_seqs[index] = seq
                if delta > 0xFFFF or delta < 0:
                    flags |= FLAG_WIDE_SEQ
                    extras.append(delta & 0xFFFFFFFF)
                    delta = 0
                payload = bytes(payload)
                ref = payload_indexes[index].get(payload)
                if ref is not None:
                    extend((arrival, index, flags | FLAG_REF, delta, ref))
                else:
                    table = payload_tables[index]
                    if len(table) >= PAYLOAD_CACHE:
                        table.clear()
                        payload_indexes[index].clear()
                    payload_indexes[index][payload] = len(table)
                    table.append(payload)
                    length = len(payload)
                    if length > 0xFFFF:
                        flags |= FLAG_WIDE_LEN
                        extras.append(length)
                        length = 0
                    extend((arrival, index, flags, delta, length))
                    payloads.append(payload)
                count += 1
        parts = [_HEAD.pack(len(new_chans), count, len(extras))]
        parts += new_chans
        if count:
            parts.append(_struct_pack("<" + _MSG_FIELDS * count, *header_vals))
        if extras:
            parts.append(_struct_pack("<%dI" % len(extras), *extras))
        parts += payloads
        return b"".join(parts)


class BatchDecoder:
    """Stateful decoder mirroring :class:`BatchEncoder` exactly."""

    __slots__ = ("_payloads", "_last_seqs", "_names", "_rids")

    def __init__(self) -> None:
        self._payloads: List[List[bytes]] = []
        self._last_seqs: List[int] = []
        self._names: List[str] = []
        self._rids: List[int] = []

    def decode(self, blob: bytes) -> Batch:
        if not blob:
            return {}
        view = memoryview(blob)
        n_new, count, n_wide = _HEAD.unpack_from(view, 0)
        offset = _HEAD.size
        for _ in range(n_new):
            rid, length = _CHAN.unpack_from(view, offset)
            offset += _CHAN.size
            name = bytes(view[offset:offset + length]).decode("utf-8")
            offset += length
            self._names.append(name)
            self._rids.append(rid)
            self._payloads.append([])
            self._last_seqs.append(0)
        batch: Batch = {}
        if not count:
            return batch
        vals = _struct_unpack_from("<" + _MSG_FIELDS * count, view, offset)
        offset += MESSAGE_HEADER_BYTES * count
        if n_wide:
            wides = iter(
                _struct_unpack_from("<%dI" % n_wide, view, offset)
            )
            offset += 4 * n_wide
        payload_tables = self._payloads
        last_seqs = self._last_seqs
        names = self._names
        rids = self._rids
        ops = _OPS
        position = offset
        fields = iter(vals)
        for arrival, index, flags, delta, extra in zip(
            fields, fields, fields, fields, fields
        ):
            if flags & FLAG_WIDE_SEQ:
                delta = next(wides)
            seq = (last_seqs[index] + delta) & 0xFFFFFFFF
            last_seqs[index] = seq
            if flags & FLAG_REF:
                payload = payload_tables[index][extra]
            else:
                if flags & FLAG_WIDE_LEN:
                    extra = next(wides)
                end = position + extra
                payload = bytes(view[position:end])
                position = end
                table = payload_tables[index]
                if len(table) >= PAYLOAD_CACHE:
                    table.clear()
                table.append(payload)
            rid = rids[index]
            messages = batch.get(rid)
            if messages is None:
                messages = batch[rid] = []
            messages.append(
                (arrival, names[index], seq, ops[flags & _OP_MASK], payload)
            )
        return batch

