"""The four benchmark workloads.

Each workload runs one fixed amount of work per *unit* through the
program's public experiment entry points and times it from outside with
``time.perf_counter()``.  A unit returns its timings, the counts of cells
or runs it attempted and failed (an output check that does not hold is a
failure), and a digest of its simulated statistics, which must repeat
exactly for a given seed.  Every workload is closed loop with a single
driver; none uses more than two processes besides the driver.

Every time is scaled to nominal host speed (see ``hostspeed.py``), with
the kernel run in as many processes as the workload keeps busy.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from hostspeed import CellClock, HostSpeed

CONTROLLERS = ("floodlight", "pox", "ryu")


@dataclass
class UnitResult:
    """What one unit of a workload did and how long it took.

    ``wall_s``, ``cpu_s`` and ``setup_s`` are scaled to nominal host
    speed; ``raw_wall_s`` is as measured.
    """

    wall_s: float
    cpu_s: float
    setup_s: List[float]
    raw_wall_s: float
    sim_s: float
    attempted: int
    failures: List[str]
    digest: str
    #: Workload-specific end-to-end figures: name -> (value, unit).
    rates: Dict[str, tuple] = field(default_factory=dict)
    #: Per-layer numbers read from the program's public results.
    public: Dict[str, float] = field(default_factory=dict)


def digest_of(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class SetupProbe:
    """Marks the end of a cell's set-up: the first ``SimulationEngine.run``
    (inline) or ``ShardWorkerPool.run_barrier`` (pooled) call.

    The probe wraps both methods only until the first call, so the rest
    of the cell runs on the original code.
    """

    def __init__(self) -> None:
        self.at: Optional[float] = None
        self.target: Any = None
        self._restore: List[tuple] = []

    def arm(self) -> None:
        from repro.campaign.runner import ShardWorkerPool
        from repro.sim.engine import SimulationEngine

        self.at = None
        self.target = None
        for owner, attr in ((SimulationEngine, "run"),
                            (ShardWorkerPool, "run_barrier")):
            original = owner.__dict__[attr]

            def first_call(obj, *args, _original=original, **kwargs):
                if self.at is None:
                    self.at = time.perf_counter()
                    self.target = obj
                self.disarm()
                return _original(obj, *args, **kwargs)

            self._restore.append((owner, attr, original))
            setattr(owner, attr, first_call)

    def disarm(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def setup_since(self, started: float) -> float:
        if self.at is None:
            raise RuntimeError("the cell never reached its first event")
        return self.at - started


def _reset() -> None:
    from repro.campaign.runner import reset_run_state

    reset_run_state()


def _fabric_record(result) -> Dict[str, Any]:
    """A fabric run's record without its host-time fields."""
    record = result.record()
    for key in ("wall_s", "coordinator_cpu_s", "worker_cpu_s",
                "wall_packets_per_sec", "capacity_packets_per_sec"):
        record.pop(key)
    return record


def _shard_metrics(result) -> Dict[str, float]:
    """The ``sim.shard`` layer, read from a public ``FabricResult``."""
    workers = result.worker_cpu_s
    busiest = max(workers, default=0.0)
    mean = sum(workers) / len(workers) if workers else 0.0
    return {
        "engine.events": result.processed_events,
        "engine.heap_compactions": sum(
            region["heap_compactions"] for region in result.region_metrics),
        "shard.epochs": result.epochs,
        "shard.cross_msgs": result.cross_shard_messages,
        "shard.exchange_bytes": result.exchange_bytes,
        "shard.coord_cpu_s": result.coordinator_cpu_s,
        "shard.worker_cpu_max_s": busiest,
        "shard.barrier_wait_s": result.wall_s - busiest if workers else 0.0,
        "shard.skew": busiest / mean if mean else 0.0,
    }


class Workload:
    name = ""
    why = ""
    #: Parameters at the benchmark's size and at the self-test's size.
    FULL: Dict[str, Any] = {}
    SMOKE: Dict[str, Any] = {}
    #: Processes the workload keeps busy: the driver, or its 2 workers.
    PROCESSES = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.params = dict(self.SMOKE if smoke else self.FULL)
        self.workdir = workdir
        self.host = HostSpeed(self.PROCESSES)

    def close(self) -> None:
        """Stops the host-speed helper processes."""
        self.host.close()

    def unit(self, probe: SetupProbe) -> UnitResult:
        raise NotImplementedError


class Fig11(Workload):
    name = "fig11"
    why = ("the paper's headline experiment: data-plane bound without the "
           "attack, control-plane bound under flow-mod suppression")
    FULL = dict(ping_trials=3, iperf_trials=1, iperf_duration_s=0.25,
                iperf_gap_s=0.5, warmup_s=1.0)
    SMOKE = dict(ping_trials=2, iperf_trials=1, iperf_duration_s=0.05,
                 iperf_gap_s=0.1, warmup_s=0.5)

    def unit(self, probe: SetupProbe) -> UnitResult:
        from repro.experiments import run_suppression_experiment

        results = {}
        events = []
        clock = CellClock(self.host)
        for controller in CONTROLLERS:
            for attacked in (False, True):
                with clock.cell() as cell:
                    _reset()
                    probe.arm()
                    try:
                        result = run_suppression_experiment(
                            controller, attacked, seed=self.seed,
                            **self.params)
                    finally:
                        probe.disarm()
                    cell.setup_s.append(probe.setup_since(cell.started))
                events.append(probe.target.processed_events)
                results[controller, attacked] = result
        return UnitResult(
            wall_s=clock.wall_s, cpu_s=clock.cpu_s, setup_s=clock.setup_s,
            raw_wall_s=clock.raw_wall_s,
            sim_s=sum(r.sim_duration_s for r in results.values()),
            attempted=len(results),
            failures=self.check(results),
            digest=digest_of({
                "events": events,
                "cells": [r.record() for r in results.values()],
            }),
        )

    @staticmethod
    def check(results) -> List[str]:
        failures = []
        pox = results["pox", True]
        if not (pox.mean_throughput_mbps == 0.0 and pox.ping_loss_rate == 1.0):
            failures.append("fig11: pox under attack is not a denial of service")
        for controller in ("floodlight", "ryu"):
            clean, attacked = results[controller, False], results[controller, True]
            if not (attacked.mean_throughput_mbps < clean.mean_throughput_mbps
                    and attacked.flow_mods_dropped > 0):
                failures.append(f"fig11: {controller} throughput did not drop "
                                "under flow-mod suppression")
        return failures


class _FabricWorkload(Workload):
    """One ``run_fabric_experiment`` cell per unit."""

    def run_kwargs(self) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, result) -> List[str]:
        raise NotImplementedError

    def rates(self, result, wall: float) -> Dict[str, tuple]:
        raise NotImplementedError

    def unit(self, probe: SetupProbe) -> UnitResult:
        from repro.experiments.fabric import run_fabric_experiment

        clock = CellClock(self.host)
        with clock.cell() as cell:
            _reset()
            probe.arm()
            try:
                result = run_fabric_experiment(seed=self.seed,
                                               **self.run_kwargs())
            finally:
                probe.disarm()
            cell.setup_s.append(probe.setup_since(cell.started))
        return UnitResult(
            wall_s=clock.wall_s, cpu_s=clock.cpu_s, setup_s=clock.setup_s,
            raw_wall_s=clock.raw_wall_s,
            sim_s=result.sim_duration_s, attempted=1,
            failures=self.check(result),
            digest=digest_of(_fabric_record(result)),
            rates=self.rates(result, clock.wall_s),
            public=_shard_metrics(result),
        )


class Flood(_FabricWorkload):
    name = "flood"
    why = ("PACKET_IN storm into a bounded LRU flow table: the write-heavy "
           "use of the table, next to fig11's lookups")
    FULL = dict(capacity=128, schedule="constant:4000", senders=4,
                duration_s=0.02)
    SMOKE = dict(capacity=16, schedule="constant:2000", senders=2,
                 duration_s=0.02)

    def run_kwargs(self) -> Dict[str, Any]:
        params = self.params
        return dict(
            topology="fat-tree-k4", controller="floodlight",
            workload="packetin-flood", shards=1,
            table_capacity=params["capacity"], table_eviction="lru",
            workload_params={key: params[key] for key in
                             ("schedule", "senders", "duration_s")})

    def check(self, result) -> List[str]:
        capacity = self.params["capacity"]
        failures = []
        if result.packet_ins <= 0:
            failures.append("flood: no PACKET_IN reached the controller")
        if result.table_occupancy_peak != capacity:
            failures.append(f"flood: table peak {result.table_occupancy_peak} "
                            f"!= capacity {capacity}")
        if result.evictions_capacity <= 0:
            failures.append("flood: the table never evicted")
        return failures

    def rates(self, result, wall: float) -> Dict[str, tuple]:
        return {"pktin_per_s": (result.packet_ins / wall, "1/s")}


class FabricK8(_FabricWorkload):
    name = "fabric-k8"
    why = ("controllerless UDP on fat-tree-k8 over 2 shard workers: the only "
           "workload that crosses the shard exchange")
    PROCESSES = 2
    FULL = dict(topology="fat-tree-k8", pairs=64, packets=125)
    SMOKE = dict(topology="fat-tree-k4", pairs=8, packets=20)

    def run_kwargs(self) -> Dict[str, Any]:
        return dict(self.params, workload="udp", shards=2)

    def check(self, result) -> List[str]:
        expected = self.params["pairs"] * self.params["packets"]
        if result.packets_delivered == result.packets_sent == expected:
            return []
        return [f"fabric-k8: sent {result.packets_sent}, delivered "
                f"{result.packets_delivered}, expected {expected}"]

    def rates(self, result, wall: float) -> Dict[str, tuple]:
        return {"wall_pps": (result.packets_delivered / wall, "1/s")}


#: Table II outcome per (controller, fail mode):
#: (unauthorized access, denial of service).
TABLE2_EXPECTED = {
    ("floodlight", "standalone"): (True, False),
    ("floodlight", "secure"): (False, True),
    ("pox", "standalone"): (True, False),
    ("pox", "secure"): (False, True),
    ("ryu", "standalone"): (False, False),
    ("ryu", "secure"): (False, False),
}


class Table2Campaign(Workload):
    name = "table2-campaign"
    why = ("the Table II matrix as a campaign on a 2-worker pool with a "
           "sharded store, then a resume and a report over that store")
    FULL = dict(seeds=10, time_scale=0.5)
    SMOKE = dict(seeds=1, time_scale=0.5)
    WORKERS = PROCESSES = 2

    def unit(self, probe: SetupProbe) -> UnitResult:
        from repro.campaign import report as campaign_report
        from repro.campaign.scheduler import CampaignScheduler
        from repro.campaign.shardstore import ShardedResultStore
        from repro.campaign.spec import CampaignSpec

        del probe  # set-up ends at the first dispatched run instead
        base = self.seed * 1000
        spec = CampaignSpec(
            name=f"table2-{self.seed}",
            attacks=["connection-interruption"],
            controllers=list(CONTROLLERS),
            fail_modes=["standalone", "secure"],
            seeds=[base + i for i in range(self.params["seeds"])],
            baseline=None,
            params={"time_scale": self.params["time_scale"]},
        )
        runs = len(spec.expand())
        self.workdir.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="table2-", dir=self.workdir))
        path = root / "store.jsonl"
        dispatched: List[float] = []

        def progress(line: str) -> None:
            if not dispatched and " started " in line:
                dispatched.append(time.perf_counter())

        clock = CellClock(self.host)
        try:
            with clock.cell() as cell:
                _reset()
                started = cell.started
                scheduler = CampaignScheduler(
                    ShardedResultStore(path), workers=self.WORKERS,
                    progress=progress)
                try:
                    job = scheduler.submit(spec)
                    scheduler.run_until_idle()
                finally:
                    scheduler.shutdown()
                ran = time.perf_counter()
                resumer = CampaignScheduler(ShardedResultStore(path),
                                            workers=self.WORKERS)
                try:
                    resumed = resumer.submit(spec)
                    resumer.run_until_idle()
                finally:
                    resumer.shutdown()
                resumed_at = time.perf_counter()
                report = campaign_report.build_report(
                    spec, ShardedResultStore(path).records())
                finished = time.perf_counter()
                cell.setup_s.extend(at - started for at in dispatched)
            cold = ShardedResultStore(path)
            read_started = time.perf_counter()
            completed = cold.completed_ids()
            resume_read = time.perf_counter() - read_started
            records = sorted(cold.ok_records(), key=lambda r: r["run_id"])
        finally:
            shutil.rmtree(root, ignore_errors=True)

        run_wall = ran - started
        scale = clock.wall_s / clock.raw_wall_s
        failures = self.check(job, resumed, report, records, runs, completed)
        busy = sum(record["duration_s"] for record in records)
        return UnitResult(
            wall_s=clock.wall_s, cpu_s=clock.cpu_s, setup_s=clock.setup_s,
            raw_wall_s=clock.raw_wall_s,
            sim_s=sum(record["sim_duration_s"] for record in records),
            attempted=runs, failures=failures,
            digest=digest_of({
                "runs": [[r["run_id"], r["metrics"]] for r in records],
                "cells": [cell.to_dict() for cell in report.cells],
            }),
            rates={
                "runs_per_s": (len(records) / (run_wall * scale), "1/s"),
                "resume_s": ((resumed_at - ran) * scale, "s"),
                "report_s": ((finished - resumed_at) * scale, "s"),
            },
            public={
                "scheduler.dispatch_overhead_s":
                    (run_wall * self.WORKERS - busy) / runs,
                "scheduler.worker_busy_ratio":
                    busy / (run_wall * self.WORKERS),
                "scheduler.processes_spawned": scheduler.processes_spawned,
                "store.resume_read_s": resume_read,
            },
        )

    @staticmethod
    def check(job, resumed, report, records, runs, completed) -> List[str]:
        failures = []
        summary = job.summary
        if summary.succeeded != runs or summary.failed:
            failures.append(f"table2: {summary.succeeded}/{runs} runs ok, "
                            f"{summary.failed} failed")
        if resumed.summary.executed != 0 or resumed.summary.skipped != runs:
            failures.append(f"table2: resume executed "
                            f"{resumed.summary.executed} run(s)")
        if len(completed) != runs or len(records) != runs:
            failures.append(f"table2: store holds {len(completed)} completed "
                            f"of {runs} runs")
        for record in records:
            key = (record["controller"], record["fail_mode"])
            metrics = record["metrics"]
            outcome = (metrics["unauthorized_access"],
                       metrics["denial_of_service"])
            if outcome != TABLE2_EXPECTED[key]:
                failures.append(f"table2: {key} gave (unauthorized, dos) = "
                                f"{outcome}")
        if len(report.cells) != len(TABLE2_EXPECTED):
            failures.append(f"table2: report has {len(report.cells)} cells")
        return failures


WORKLOADS = {cls.name: cls for cls in (Fig11, Flood, FabricK8, Table2Campaign)}
