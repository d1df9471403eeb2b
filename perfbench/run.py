"""End-to-end benchmark of the ATTAIN reproduction.

Run one workload and print its metrics; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``::

    python3 perfbench/run.py --workload fig11 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all             # every workload

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run plus the tracing overhead.  The
program is imported from ``src/`` beside this directory; see
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from spans import SpanRecorder, install_layers, layer_metrics
from workloads import WORKLOADS, SetupProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: campaign stores and span dumps.
WORKDIR = ROOT / ".perfbench"

#: The measured phase runs at least this many units, so medians exist.
MIN_UNITS = 3

E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "sim_s_per_wall_s": "s/s",
}

LAYER_METRICS = {
    "engine.events": "count",
    "engine.self_s": "s",
    "engine.heap_compactions": "count",
    "link.frames": "count",
    "link.bytes": "B",
    "link.drops": "count",
    "link.self_s": "s",
    "switch.frames_in": "count",
    "switch.data_self_s": "s",
    "switch.ctrl_msgs_in": "count",
    "switch.ctrl_self_s": "s",
    "switch.packet_ins": "count",
    "flowtable.lookups": "count",
    "flowtable.lookup_s": "s",
    "flowtable.hit_ratio": "ratio",
    "flowtable.fast_hit_ratio": "ratio",
    "flowtable.flow_mods": "count",
    "flowtable.flow_mod_s": "s",
    "flowtable.occupancy_peak": "count",
    "flowtable.evictions": "count",
    "host.frames_in": "count",
    "host.rx_self_s": "s",
    "host.tx_calls": "count",
    "host.tx_self_s": "s",
    "openflow.decodes": "count",
    "openflow.decode_s": "s",
    "openflow.encodes": "count",
    "openflow.encode_s": "s",
    "proxy.msgs": "count",
    "proxy.self_s": "s",
    "proxy.decode_avoided_ratio": "ratio",
    "executor.msgs": "count",
    "executor.self_s": "s",
    "executor.rules_fired": "count",
    "executor.dropped": "count",
    "controller.msgs_in": "count",
    "controller.self_s": "s",
    "workload.frames": "count",
    "workload.synth_s": "s",
    "shard.epochs": "count",
    "shard.cross_msgs": "count",
    "shard.exchange_bytes": "B",
    "shard.coord_cpu_s": "s",
    "shard.worker_cpu_max_s": "s",
    "shard.barrier_wait_s": "s",
    "shard.skew": "ratio",
    "scheduler.dispatch_overhead_s": "s",
    "scheduler.worker_busy_ratio": "ratio",
    "scheduler.processes_spawned": "count",
    "store.appends": "count",
    "store.append_s": "s",
    "store.checkpoint_s": "s",
    "store.resume_read_s": "s",
    "report.build_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def import_program():
    """Put the checkout's ``src/`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def environment() -> Dict[str, object]:
    """CPU count, Python version, commit and a digest of ``src/``."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "src_sha256": source.hexdigest()[:16]}


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any reaped child, MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


class Run:
    """One workload measured for a fixed time: plain units, and with
    ``trace`` traced units interleaved with them."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> None:
        self.workload = WORKLOADS[name](seed, smoke, WORKDIR)
        self.probe = SetupProbe()
        self.seconds = seconds
        self.trace = trace
        self.plain: List = []
        self.traced: List = []
        self.layers: List[Dict[str, float]] = []
        self.recorder = None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.digest = None

    def _unit(self, traced: bool):
        gc.collect()
        recorder = None
        if traced:
            # Before the unit builds any network: links keep bound methods.
            recorder = SpanRecorder()
            install_layers(recorder)
        try:
            result = self.workload.unit(self.probe)
        finally:
            if recorder is not None:
                recorder.uninstall()
        failures = list(result.failures)
        failed = min(result.attempted, len(failures))
        if result.digest != self.digest:
            failures.append(f"digest {result.digest[:12]} differs from the "
                            f"warm-up's {self.digest[:12]}")
            failed = result.attempted
        self.attempted += result.attempted
        self.failed += failed
        self.failures.extend(failures)
        if traced:
            self.recorder = recorder
            self.layers.append(layer_metrics(recorder))
            self.traced.append(result)
        else:
            self.plain.append(result)

    def measure(self) -> None:
        # Untimed warm-up; every measured unit must repeat its digest.
        self.digest = self.workload.unit(self.probe).digest
        deadline = time.perf_counter() + self.seconds
        while len(self.plain) < MIN_UNITS or time.perf_counter() < deadline:
            self._unit(traced=False)
            if self.trace:
                self._unit(traced=True)

    def end_to_end(self) -> Dict[str, float]:
        plain = self.plain
        return {
            "setup_s": statistics.median(
                s for unit in plain for s in unit.setup_s),
            "wall_s": statistics.median(u.wall_s for u in plain),
            "cpu_s": statistics.median(u.cpu_s for u in plain),
            "peak_rss_mb": peak_rss_mb(),
            "sim_s_per_wall_s": statistics.median(
                u.sim_s / u.wall_s for u in plain),
        }

    def rates(self) -> Dict[str, tuple]:
        names = self.plain[0].rates
        return {
            name: (statistics.median(u.rates[name][0] for u in self.plain),
                   unit)
            for name, (_value, unit) in names.items()
        }

    def per_layer(self) -> Dict[str, float]:
        metrics = {
            name: statistics.median(layer[name] for layer in self.layers)
            for name in self.layers[0]
        }
        for name in self.plain[0].public:
            metrics[name] = statistics.median(u.public[name] for u in self.plain)
        plain_wall = statistics.median(u.wall_s for u in self.plain)
        traced_wall = statistics.median(u.wall_s for u in self.traced)
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
        return {name: metrics.get(name, 0.0) for name in LAYER_METRICS}


def report(run: Run, args, env) -> Dict[str, object]:
    """Print the human-readable block; return the metrics for JSON."""
    print(f"# perfbench workload={run.workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={int(run.trace)} "
          + " ".join(f"{key}={value}" for key, value in env.items()))
    print(f"# units={len(run.plain)} traced_units={len(run.traced)} "
          f"attempted={run.attempted} failed={run.failed} "
          f"error_rate={run.failed / run.attempted:.4f} "
          f"digest={run.digest} "
          f"kernel_processes={run.workload.host.processes}")
    for failure in run.failures:
        print(f"# FAILED {failure}")
    if run.trace:
        values, units = run.per_layer(), LAYER_METRICS
        run.recorder.write(
            WORKDIR / f"spans-{run.workload.name}-seed{args.seed}.json")
    else:
        values, units = run.end_to_end(), E2E_METRICS
        extra = run.rates()
        extra["error_rate"] = (run.failed / run.attempted, "ratio")
        extra["raw_wall_s"] = (
            statistics.median(u.raw_wall_s for u in run.plain), "s")
        extra["host_kernel_s"] = (
            statistics.median(run.workload.host.samples), "s")
        for name, (value, unit) in extra.items():
            print(f"{name:<32} {value:>16.6f} {unit}  (not gated)")
    for name, value in values.items():
        print(f"{name:<32} {value:>16.6f} {units[name]}")
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs (the self-test's size)")
    args = parser.parse_args(argv)

    import_program()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    env = environment()
    attempted = failed = 0
    metrics: Dict[str, object] = {}
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        try:
            run.measure()
            values = report(run, args, env)
        finally:
            run.workload.close()
        attempted += run.attempted
        failed += run.failed
        if len(names) == 1:
            metrics = values
        else:
            metrics.update({f"{name}.{key}": value
                            for key, value in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
