"""The campaign runner: a persistent pool of reusable worker processes.

Workers are long-lived: each executes run descriptors one after another
off a duplex pipe, resetting per-run global state (sequence counters,
frame caches) between cells so a run behaves bit-identically to one in a
fresh process.  Amortizing the interpreter start + import cost over many
runs is where campaign wall-clock goes on wide matrices — the summary's
``processes_spawned`` should come out well below the number of runs.

Fault semantics are unchanged from the process-per-run model:

* a run exceeding the wall-clock timeout gets its worker terminated (the
  only way to preempt a hung simulation) and a fresh worker is spawned
  on demand;
* a worker that dies without reporting (hard crash, kill) fails only the
  run it was executing, which is retried up to ``retries`` extra
  attempts — on a replacement worker;
* the parent is the only writer to the result store.

The pool loop itself lives in :mod:`repro.campaign.scheduler`;
``CampaignRunner`` is the one-shot facade over it, and this module keeps
the process-level primitives (``_worker_loop``, ``reset_run_state``,
``ShardWorkerPool``) that both the scheduler and the sharded simulator
share.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore

#: How often the scheduler polls its active workers (seconds).
_POLL_INTERVAL_S = 0.01

#: How long the parent waits for a worker to exit after a shutdown
#: request before terminating it.
_SHUTDOWN_GRACE_S = 2.0


def reset_run_state() -> None:
    """Reset process-global counters so repeated runs stay deterministic.

    A fresh process starts every itertools sequence at its seed value;
    a reused worker (or any caller running experiments back to back in
    one process) must do the same before each run or frame contents
    (ICMP identifiers, ephemeral ports, OpenFlow xids, event tie-breaks)
    would depend on how many runs the process executed before this one.

    Per-object statistics (e.g. ``FlowTable`` occupancy peaks and
    eviction counters) are NOT process-global: every run builds fresh
    networks, so they cannot leak between cells.  A harness pooling a
    network across runs must additionally call each table's
    ``reset_stats()``.
    """
    import itertools

    from repro.core.lang.properties import InterposedMessage
    from repro.dataplane.flowtable import FlowEntry
    from repro.dataplane.host import Host
    from repro.netlib import fastframe
    from repro.openflow import messages as of_messages
    from repro.sim.events import Event

    Event._seq_counter = itertools.count()
    FlowEntry._order = itertools.count()
    Host._icmp_id = itertools.count(1)
    Host._ephemeral = itertools.count(49152)
    InterposedMessage._id_counter = itertools.count(1)
    of_messages.reset_xid_counter()
    fastframe.clear_pool()
    fastframe.reset_counters()


def _worker_loop(conn, peer_index: int = 0, mesh_matrix=None) -> None:
    """Persistent worker: execute descriptors until told to shut down.

    Two task shapes share the pipe: legacy ``(descriptor, attempt,
    trace_enabled)`` tuples run one campaign cell to completion, and
    ``{"op": "shard_*"}`` dicts drive a slice of a sharded simulation
    (see :mod:`repro.sim.shard`).  ``mesh_matrix`` (inherited pipe fds)
    connects shard worker ``peer_index`` to its peers for the SPMD
    barrier loop.
    """
    from repro.campaign.executors import execute_descriptor

    runs_executed = 0
    shard_session = None
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        if isinstance(task, dict):
            if shard_session is None:
                from repro.sim.shard import ShardWorkerSession

                shard_session = ShardWorkerSession(peer_index, mesh_matrix)
            try:
                reply = shard_session.handle(task)
            except BaseException:
                reply = {"status": "error",
                         "error": traceback.format_exc(limit=8)}
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
            continue
        descriptor, attempt, trace_enabled = task
        reset_run_state()
        tracer = None
        if trace_enabled:
            from repro.obs import TraceCollector

            tracer = TraceCollector()
        try:
            metrics = execute_descriptor(descriptor, attempt=attempt,
                                         tracer=tracer)
            runs_executed += 1
            outcome = {"status": "ok", "metrics": metrics,
                       "worker_runs": runs_executed}
            if tracer is not None:
                outcome["trace_jsonl"] = tracer.to_jsonl()
                outcome["trace_events"] = tracer.events_total
        except BaseException:
            runs_executed += 1
            outcome = {"status": "error",
                       "error": traceback.format_exc(limit=8),
                       "worker_runs": runs_executed}
        try:
            conn.send(outcome)
        except (BrokenPipeError, OSError):
            break
    conn.close()


@dataclass
class CampaignSummary:
    """What one ``run_campaign`` invocation did."""

    campaign: str
    total: int
    skipped: int = 0
    executed: int = 0
    succeeded: int = 0
    failed: int = 0
    retries_used: int = 0
    duration_s: float = 0.0
    failed_run_ids: List[str] = field(default_factory=list)
    processes_spawned: int = 0
    worker_runs: Dict[str, int] = field(default_factory=dict)
    lint_rejected: int = 0

    @property
    def complete(self) -> bool:
        return self.failed == 0

    def render(self) -> str:
        rejected = (
            f", {self.lint_rejected} rejected by lint pre-flight"
            if self.lint_rejected else ""
        )
        return (
            f"campaign {self.campaign}: {self.total} runs — "
            f"{self.skipped} already complete, {self.executed} executed "
            f"({self.succeeded} ok, {self.failed} failed, "
            f"{self.retries_used} retries{rejected}) in {self.duration_s:.1f}s "
            f"across {self.processes_spawned} worker process(es)"
        )


class CampaignRunner:
    """Schedules a spec's pending runs over a persistent process pool.

    One-shot facade over :class:`~repro.campaign.scheduler.
    CampaignScheduler`: ``run()`` submits the spec as a single job,
    drains it, and shuts the pool down.  Service users (multiple specs,
    streaming, aggregation) drive the scheduler directly.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore,
        workers: int = 1,
        timeout_s: Optional[float] = None,
        retries: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
        mp_context: Optional[str] = None,
        trace: bool = False,
        preflight: bool = True,
    ) -> None:
        self.spec = spec
        self.store = store
        self.workers = max(1, int(workers))
        self.timeout_s = float(timeout_s if timeout_s is not None
                               else spec.timeout_s)
        self.retries = int(retries if retries is not None else spec.retries)
        self.trace = bool(trace)
        self.preflight = bool(preflight)
        self._progress = progress or (lambda line: None)
        self._ctx = multiprocessing.get_context(mp_context)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def run(self) -> CampaignSummary:
        from repro.campaign.scheduler import CampaignScheduler

        started = time.perf_counter()
        scheduler = CampaignScheduler(
            self.store, workers=self.workers, mp_context=self._ctx,
            progress=self._progress,
        )
        try:
            job = scheduler.submit(
                self.spec, timeout_s=self.timeout_s, retries=self.retries,
                trace=self.trace, preflight=self.preflight)
            scheduler.run_until_idle()
        finally:
            scheduler.shutdown()
        summary = job.summary
        summary.processes_spawned = scheduler.processes_spawned
        summary.worker_runs = dict(scheduler.worker_runs)
        summary.duration_s = time.perf_counter() - started
        return summary


class ShardWorkerPool:
    """A fixed set of persistent workers executing simulation shards.

    Reuses the campaign ``_worker_loop`` processes but drives them with
    ``shard_*`` dict tasks: :meth:`run_barrier` hands every worker the
    whole barrier loop, and workers exchange cross-shard batches directly
    over a pipe mesh.  The mesh's fds are inherited across ``fork``, so
    the pool always forks, whatever the interpreter's default start
    method.  Campaign workers are daemonic and cannot spawn children, so
    fabric cells inside a campaign fall back to the inline executor.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers!r}")
        ctx = multiprocessing.get_context("fork")
        self._slots: List[Tuple[multiprocessing.Process, object]] = []
        # The pipe mesh must exist before any worker forks so every child
        # inherits the full fd matrix; each worker closes the fds it does
        # not own, and the parent closes its copies below.
        from repro.sim.mesh import close_mesh, create_mesh

        mesh_matrix = create_mesh(workers)
        for index in range(workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_loop,
                args=(child_conn, index, mesh_matrix),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._slots.append((process, parent_conn))
        close_mesh(mesh_matrix)

    @property
    def workers(self) -> int:
        return len(self._slots)

    def _call_all(self, tasks: List[dict]) -> List[dict]:
        for (_process, conn), task in zip(self._slots, tasks):
            conn.send(task)
        replies = []
        for process, conn in self._slots:
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                raise RuntimeError(
                    f"shard worker pid {process.pid} died mid-epoch "
                    f"(exit code {process.exitcode})"
                )
            if reply.get("status") != "ok":
                raise RuntimeError(
                    "shard worker failed:\n" + str(reply.get("error"))
                )
            replies.append(reply)
        return replies

    def init(self, config: dict, assignment: List[List[int]]) -> List[dict]:
        """Build each worker's regions; ``assignment[i]`` lists worker
        ``i``'s region ids."""
        if len(assignment) != len(self._slots):
            raise ValueError(
                f"assignment covers {len(assignment)} workers, "
                f"pool has {len(self._slots)}"
            )
        return self._call_all([
            {"op": "shard_init", "config": config, "rids": rids,
             "assignment": assignment}
            for rids in assignment
        ])

    def run_barrier(
        self,
        lookahead: float,
        horizon: float,
        promise: Optional[float] = None,
    ) -> List[dict]:
        """Run the whole SPMD barrier loop inside the workers.

        One task and one reply per worker for the entire simulation;
        batches travel over the pipe mesh and every worker derives the
        identical epoch schedule from exchanged control words.  Returns
        per-worker ``{"epochs", "epochs_skipped", "epochs_widened",
        "sent", "exchange_bytes", "exchange_blobs"}``."""
        return self._call_all([
            {"op": "shard_run", "lookahead": lookahead, "horizon": horizon,
             "promise": promise}
            for _ in self._slots
        ])

    def collect(self) -> List[dict]:
        """Fetch per-region results and per-worker CPU accounting."""
        return self._call_all([
            {"op": "shard_collect"} for _ in self._slots
        ])

    def shutdown(self) -> None:
        for _process, conn in self._slots:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE_S
        for process, _conn in self._slots:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join()
        self._slots = []


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    workers: int = 1,
    timeout_s: Optional[float] = None,
    retries: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    trace: bool = False,
    preflight: bool = True,
) -> CampaignSummary:
    """Convenience wrapper: build a :class:`CampaignRunner` and run it."""
    return CampaignRunner(
        spec, store, workers=workers, timeout_s=timeout_s,
        retries=retries, progress=progress, trace=trace,
        preflight=preflight,
    ).run()
