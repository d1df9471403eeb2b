"""Host speed, from a fixed pure-Python reference kernel.

On a host shared with other tenants the same Python code runs up to
twice as fast at one moment as at the next, and the swings last from
a fraction of a second to minutes.  The program slows down with the
host in step with any other Python code, so :class:`CellClock` times
each cell of a workload between two samples of :func:`kernel` and
scales the cell to the speed of a host that runs the kernel in
:data:`NOMINAL_S` seconds.  A change to the program moves the scaled
time as much as the raw one; a change in the host's speed cancels out.

A workload that keeps two processes busy is slowed by what runs on
either CPU, so its samples run the kernel in as many processes at once
(:class:`HostSpeed` ``processes``).

The kernel uses nothing from the program: dictionaries, small
``__slots__`` objects, a heap, ``struct`` packing and byte slicing, as
the simulator does.
"""

from __future__ import annotations

import heapq
import multiprocessing
import resource
import statistics
import struct
import time
from contextlib import contextmanager
from typing import Iterator, List

#: Kernel seconds at the host speed the scaled times are given for.
NOMINAL_S = 0.040
#: Kernel runs per sample; a sample is their mean.
REPS = 3
#: What :func:`kernel` returns when it ran correctly.
KERNEL_CHECKSUM = 48375

_HEADER = struct.Struct("!BBHI")


class _Event:
    __slots__ = ("time", "seq", "data")

    def __init__(self, when: float, seq: int, data: bytes) -> None:
        self.time = when
        self.seq = seq
        self.data = data


def kernel() -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    heap: list = []
    table: dict = {}
    total = 0
    for seq in range(9000):
        payload = (_HEADER.pack(1, seq & 0xFF, 8 + (seq & 63), seq)
                   + bytes(seq & 31))
        heapq.heappush(heap, ((seq * 7919) % 1000 / 1000.0, seq,
                              _Event(seq * 0.001, seq, payload)))
        if len(heap) > 64:
            event = heapq.heappop(heap)[2]
            _version, kind, length, xid = _HEADER.unpack_from(event.data)
            key = (kind, length, event.data[4:8])
            entry = table.get(key)
            if entry is None:
                table[key] = [event.seq, 1]
                if len(table) > 512:
                    table.pop(next(iter(table)))
            else:
                entry[1] += 1
            total += xid & 3
        total += len(str(seq)) + (seq % 97 == 0)
    return total


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _kernel_times() -> List[float]:
    times = []
    for _ in range(REPS):
        started = time.perf_counter()
        checksum = kernel()
        times.append(time.perf_counter() - started)
        if checksum != KERNEL_CHECKSUM:
            raise RuntimeError(f"reference kernel returned {checksum}, "
                               f"not {KERNEL_CHECKSUM}")
    return times


def _helper(conn) -> None:
    """Runs the kernel each time the driver asks, until it sends None."""
    while conn.recv() is not None:
        conn.send(_kernel_times())
    conn.close()


class HostSpeed:
    """Samples the kernel's time in ``processes`` processes at once: the
    driver and ``processes - 1`` helpers, started at the first sample
    and stopped by :meth:`close`.  Keeps every sample of a run."""

    def __init__(self, processes: int = 1) -> None:
        self.processes = processes
        self.samples: List[float] = []
        self._helpers: List[tuple] = []

    def _start_helpers(self) -> None:
        # Fork, not spawn: spawning also starts multiprocessing's resource
        # tracker, a process that outlives the run.  Neither the driver nor
        # the program runs threads, so forking the driver is safe.
        ctx = multiprocessing.get_context("fork")
        for _ in range(self.processes - 1):
            ours, theirs = ctx.Pipe()
            process = ctx.Process(target=_helper, args=(theirs,), daemon=True)
            process.start()
            theirs.close()
            self._helpers.append((process, ours))

    def sample(self) -> float:
        if self.processes > 1 and not self._helpers:
            self._start_helpers()
        for _process, conn in self._helpers:
            conn.send(True)
        times = _kernel_times()
        for _process, conn in self._helpers:
            times.extend(conn.recv())
        value = statistics.fmean(times)
        self.samples.append(value)
        return value

    def last(self) -> float:
        return self.samples[-1] if self.samples else self.sample()

    def close(self) -> None:
        while self._helpers:
            process, conn = self._helpers.pop()
            try:
                conn.send(None)
            except OSError:
                pass  # the helper is gone already
            conn.close()
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join()


class Cell:
    """One timed cell: set-up times are added while it runs."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.setup_s: List[float] = []


class CellClock:
    """Sums the times of a unit's cells, each scaled to nominal host
    speed by the kernel samples taken just before and just after it."""

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.raw_wall_s = 0.0
        self.setup_s: List[float] = []

    @contextmanager
    def cell(self) -> Iterator[Cell]:
        before = self.host.last()
        started_cpu = cpu_seconds()
        cell = Cell()
        yield cell
        wall = time.perf_counter() - cell.started
        cpu = cpu_seconds() - started_cpu
        scale = NOMINAL_S / ((before + self.host.sample()) / 2.0)
        self.raw_wall_s += wall
        self.wall_s += wall * scale
        self.cpu_s += cpu * scale
        self.setup_s.extend(s * scale for s in cell.setup_s)
