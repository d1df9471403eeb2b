"""A/B equivalence: the packet fast lane must be invisible to results.

Runs real experiment cells — Fig. 11 suppression and Table II
interruption — twice each, fast lane on and off, and asserts that every
frame delivered to every host is byte-identical and that the recorded
metrics match exactly.  The fast lane is a pure performance layer; any
divergence here is a correctness bug, not a tuning difference.
"""

from typing import Dict, List, Tuple

import pytest

from repro.campaign.runner import reset_run_state
from repro.dataplane.host import Host
from repro.experiments import run_interruption_cell, run_suppression_cell
from repro.netlib import fastframe

FAST_PARAMS = {"ping_trials": 3, "iperf_trials": 1, "iperf_duration_s": 0.5,
               "iperf_gap_s": 0.5, "warmup_s": 2.0}


def run_with_capture(monkeypatch, enabled, cell, **kwargs):
    """Run one cell with the fast lane toggled, capturing host deliveries."""
    delivered: List[Tuple[str, bytes]] = []
    original = Host.frame_received

    def capturing(self, data):
        delivered.append((self.name, bytes(data)))
        return original(self, data)

    with monkeypatch.context() as patch:
        patch.setattr(Host, "frame_received", capturing)
        # Reseed process-global counters (ICMP ids, event sequence
        # numbers, ...) exactly as the campaign worker pool does between
        # runs, so A and B start from identical state.
        reset_run_state()
        fastframe.set_fast_lane(enabled)
        fastframe.clear_pool()
        try:
            metrics = cell(**kwargs)
        finally:
            fastframe.set_fast_lane(True)
    return metrics, delivered


def assert_ab_identical(monkeypatch, cell, **kwargs):
    metrics_on, frames_on = run_with_capture(monkeypatch, True, cell, **kwargs)
    metrics_off, frames_off = run_with_capture(monkeypatch, False, cell,
                                               **kwargs)
    assert len(frames_on) == len(frames_off)
    assert frames_on == frames_off  # byte-identical, in delivery order
    assert metrics_on == metrics_off
    return metrics_on, frames_on


class TestSuppressionAB:
    def test_attacked_cell_is_fastlane_invariant(self, monkeypatch):
        metrics, frames = assert_ab_identical(
            monkeypatch, run_suppression_cell,
            controller="pox", attack="flow-mod-suppression", seed=3,
            **FAST_PARAMS,
        )
        assert metrics["denial_of_service"] is True
        assert frames  # the hosts actually exchanged traffic

    def test_baseline_cell_is_fastlane_invariant(self, monkeypatch):
        metrics, _ = assert_ab_identical(
            monkeypatch, run_suppression_cell,
            controller="pox", attack=None, seed=3, **FAST_PARAMS,
        )
        assert metrics["throughput_mbps"] > 10.0


class TestInterruptionAB:
    def test_attacked_cell_is_fastlane_invariant(self, monkeypatch):
        metrics, frames = assert_ab_identical(
            monkeypatch, run_interruption_cell,
            controller="floodlight", attack="connection-interruption",
            seed=1, time_scale=0.5,
        )
        assert metrics["interruption_happened"] is True
        assert frames

    def test_baseline_cell_is_fastlane_invariant(self, monkeypatch):
        metrics, _ = assert_ab_identical(
            monkeypatch, run_interruption_cell,
            controller="floodlight", attack=None, seed=1, time_scale=0.5,
        )
        assert metrics["interruption_happened"] is False


def test_fastlane_counters_stay_out_of_experiment_metrics(monkeypatch):
    """The new observability counters are operational telemetry; they
    must never enter a cell's recorded metrics (or A/B equality —
    and cross-machine reproducibility — would be unachievable)."""
    metrics, _ = run_with_capture(
        monkeypatch, True, run_suppression_cell,
        controller="pox", attack=None, seed=0, **FAST_PARAMS,
    )
    for key in ("flowkey_cache_hits", "frames_interned", "heap_compactions"):
        assert key not in metrics
