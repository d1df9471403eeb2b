"""Shard-count invariance: the tentpole determinism contract.

The same fabric run must produce byte-identical merged trace exports and
identical metrics whether its regions execute inline in one process or
spread across any number of pool workers (1/2/4 shards).  A second proof
covers the barrier schedule: replaying a run on the fixed lookahead grid
(``barrier_oracle``) must not change a byte either, because epoch
widening may never reorder deliveries.

Suppression and interruption attacks are both exercised — the injector,
proxies, and control-plane boundary channels all sit on the sharded path.
"""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

import repro
from repro.campaign import reset_run_state
from repro.experiments.fabric import run_fabric_experiment
from repro.sim.shard import BarrierSchedule

from tests.sim.barrier_oracle import fixed_grid_advance

#: ``record()`` keys that legitimately differ between executions of the
#: same scenario: timing, CPU accounting, and the wire-level exchange
#: counters (inline runs exchange nothing; blob sizes depend on the
#: worker assignment).
EXECUTION_KEYS = (
    "shards", "wall_s", "wall_packets_per_sec", "capacity_packets_per_sec",
    "coordinator_cpu_s", "worker_cpu_s", "exchange_bytes", "exchange_blobs",
)

#: Additionally schedule-dependent: epoch counts differ between the
#: fixed grid and the widening schedule (that is the point of widening).
SCHEDULE_KEYS = ("epochs", "epochs_skipped", "epochs_widened")

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0", "false")


def _run(shards, **kwargs):
    reset_run_state()
    return run_fabric_experiment(
        "fat-tree-k4", controller="floodlight", pairs=4, packets=3,
        shards=shards, trace=True, **kwargs,
    )


def _comparable(result, across_schedules=False):
    metrics = result.record()
    for key in EXECUTION_KEYS:
        metrics.pop(key)
    if across_schedules:
        for key in SCHEDULE_KEYS:
            metrics.pop(key)
    return metrics


def test_shard_count_matrix_is_byte_identical():
    """Every shard count replays the same run, epoch for epoch."""
    shard_counts = (1, 2) if QUICK else (1, 2, 4)
    reference = _run(shard_counts[0])
    assert reference.trace_events > 0
    for shards in shard_counts[1:]:
        result = _run(shards)
        tag = f"shards={shards}"
        assert result.trace_jsonl == reference.trace_jsonl, tag
        assert _comparable(result) == _comparable(reference), tag


def test_fixed_grid_oracle_replays_the_widened_run(monkeypatch):
    """Windowing invariance: the fixed-grid schedule runs more, narrower
    epochs and produces the identical trace and metrics."""
    widened = _run(1)
    with monkeypatch.context() as patch:
        patch.setattr(BarrierSchedule, "advance", fixed_grid_advance)
        fixed = _run(1)
    assert fixed.trace_jsonl == widened.trace_jsonl
    assert (_comparable(fixed, across_schedules=True)
            == _comparable(widened, across_schedules=True))
    assert widened.epochs_widened > 0
    assert fixed.epochs_widened == 0
    assert fixed.epochs > widened.epochs


def test_suppression_attack_is_shard_invariant():
    inline = _run(1, attack="flow-mod-suppression")
    pooled = _run(3, attack="flow-mod-suppression")
    assert inline.trace_jsonl == pooled.trace_jsonl
    assert inline.trace_events == pooled.trace_events > 0
    assert _comparable(inline) == _comparable(pooled)
    assert inline.flow_mods_dropped > 0  # the attack actually fired


def test_interruption_attack_is_shard_invariant():
    # The Fig. 12 interruption attack, retargeted at the first workload
    # pair's edge switch: FLOW_MODs for pings from p00e00h00 toward its
    # partner trip the state machine.
    from repro.dataplane.fabrics import generate_fabric

    hosts = generate_fabric("fat-tree-k4").topology.hosts
    params = {
        "connection": ("c1", "p00e00"),
        "trigger_source_ip": str(hosts["p00e00h00"].ip),
        "protected_destination_ips": [str(hosts["p02e00h00"].ip)],
    }
    inline = _run(1, attack="connection-interruption", attack_params=params)
    pooled = _run(4, attack="connection-interruption", attack_params=params)
    assert inline.trace_jsonl == pooled.trace_jsonl
    assert _comparable(inline) == _comparable(pooled)
    assert inline.flow_mods_dropped > 0  # the state machine reached phi2


def test_unattacked_controller_run_is_shard_invariant():
    inline = _run(1)
    pooled = _run(2)
    assert inline.trace_jsonl == pooled.trace_jsonl
    assert inline.ping_received == inline.ping_sent > 0


def test_controllerless_udp_run_is_shard_invariant():
    reset_run_state()
    inline = run_fabric_experiment("fat-tree-k4", pairs=4, packets=10,
                                   shards=1, trace=True)
    reset_run_state()
    pooled = run_fabric_experiment("fat-tree-k4", pairs=4, packets=10,
                                   shards=2, trace=True)
    assert inline.trace_jsonl == pooled.trace_jsonl
    assert _comparable(inline) == _comparable(pooled)
    assert inline.packets_delivered == inline.packets_sent == 40


def test_rerun_same_config_is_byte_identical():
    first = _run(2)
    second = _run(2)
    assert first.trace_jsonl == second.trace_jsonl


def test_exchange_counters_are_populated_on_pooled_runs():
    pooled = _run(2)
    assert pooled.exchange_bytes > 0
    assert pooled.exchange_blobs > 0
    assert pooled.cross_shard_messages > 0
    inline = _run(1)
    assert inline.exchange_bytes == inline.exchange_blobs == 0


#: Runs a 2-shard fabric in a fresh interpreter whose default start
#: method is ``spawn``; prints the exchange counters and the trace.
_SPAWN_SCRIPT = """
import json, multiprocessing
if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    from repro.experiments.fabric import run_fabric_experiment
    result = run_fabric_experiment(
        "fat-tree-k4", controller="floodlight", pairs=4, packets=3,
        shards=2, trace=True)
    print(json.dumps({"shards": result.shards,
                      "exchange_bytes": result.exchange_bytes,
                      "exchange_blobs": result.exchange_blobs,
                      "trace": result.trace_jsonl}))
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the shard pool needs fork")
def test_pool_exchanges_over_the_mesh_under_spawn_default(tmp_path):
    """The pool forks whatever the default start method is, so a spawn
    (or forkserver) interpreter still exchanges over the pipe mesh."""
    script = tmp_path / "spawn_run.py"
    script.write_text(_SPAWN_SCRIPT)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True,
        text=True, timeout=300, check=True)
    pooled = json.loads(completed.stdout.strip().splitlines()[-1])
    assert pooled["shards"] == 2
    assert pooled["exchange_bytes"] > 0
    assert pooled["exchange_blobs"] > 0
    assert pooled["trace"] == _run(1).trace_jsonl


def test_no_fork_platform_runs_inline(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn", "forkserver"])
    result = _run(2)
    assert result.shards == 1
    assert result.exchange_bytes == result.exchange_blobs == 0
    assert result.trace_jsonl == _run(1).trace_jsonl
