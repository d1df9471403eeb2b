"""Layer spans recorded from outside the program.

A :class:`SpanRecorder` replaces the public entry points of each layer
with wrappers that append one span (name, start, end, parent) to flat
in-memory arrays.  Nothing inside ``src/`` knows it is being traced.

Links capture bound methods when a network is wired (``host.attach(
link.send_from_a)``), so :func:`install_layers` must run before any
network of the traced run is built; :meth:`SpanRecorder.uninstall`
restores every original attribute.

Spans taken in pooled worker processes stay in those processes and are
lost; the workloads that use workers report per-worker numbers from the
program's public results instead.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple


class SpanRecorder:
    """Wraps layer functions and records their spans in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("H")
        self.parents = array("l")
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str, Any]] = []
        #: Counts gathered at the span boundaries (bytes sent, drops...).
        self.counters: Dict[str, float] = {}
        #: Objects built while installed, by kind, for their own counters.
        self.instances: Dict[str, List[Any]] = {}

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner: Any, attr: str, name: str,
             observe: Optional[Callable[[tuple, Any], None]] = None) -> Callable:
        """Replace ``owner.attr`` (a class or module attribute) with a
        span-recording wrapper; ``observe(args, result)`` updates
        counters after each successful call."""
        original = owner.__dict__[attr]
        nid = self._name_id(name)
        starts, ends = self.starts, self.ends
        name_ids, parents, stack = self.name_ids, self.parents, self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        functools.update_wrapper(span, original)
        self._replace(owner, attr, span)
        return span

    def wrap_function(self, module: Any, attr: str, name: str) -> None:
        """Wrap a module-level function everywhere it was imported by name."""
        original = module.__dict__[attr]
        span = self.wrap(module, attr, name)
        for other in list(sys.modules.values()):
            if (other is not module
                    and getattr(other, "__name__", "").startswith("repro")
                    and other.__dict__.get(attr) is original):
                self._replace(other, attr, span)

    def register(self, owner: type, kind: str) -> None:
        """Collect every ``owner`` instance constructed while installed."""
        original = owner.__dict__["__init__"]
        bucket = self.instances.setdefault(kind, [])

        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            bucket.append(obj)

        functools.update_wrapper(init, original)
        self._replace(owner, "__init__", init)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls`` (outermost only, so a wrapped function
        calling another of the same name counts once), ``total_s`` and
        ``self_s`` (duration minus the part its child spans cover)."""
        starts, ends, name_ids, parents = (
            self.starts, self.ends, self.name_ids, self.parents)
        covered = [0.0] * len(starts)
        for index, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[index] - starts[index]
        stats = [{"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for _ in self.names]
        for index, nid in enumerate(name_ids):
            duration = ends[index] - starts[index]
            entry = stats[nid]
            entry["self_s"] += duration - covered[index]
            parent = parents[index]
            if parent < 0 or name_ids[parent] != nid:
                entry["calls"] += 1
                entry["total_s"] += duration
        return dict(zip(self.names, stats))

    def write(self, path: Path) -> None:
        """Write every span as JSON: names plus rows of
        ``[name, start_s, end_s, parent]`` relative to the first span."""
        origin = self.starts[0] if self.starts else 0.0
        rows = [
            [self.name_ids[i], round(self.starts[i] - origin, 9),
             round(self.ends[i] - origin, 9), self.parents[i]]
            for i in range(len(self.starts))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": self.names, "spans": rows},
                                   separators=(",", ":")))


def install_layers(recorder: SpanRecorder) -> None:
    """Wrap the public entry points of every layer."""
    from repro.campaign import report as campaign_report
    from repro.campaign.shardstore import ShardedResultStore
    from repro.controllers.base import Controller
    from repro.core.injector.executor import AttackExecutor
    from repro.core.injector.proxy import ConnectionProxy
    from repro.dataplane.flowtable import FlowTable
    from repro.dataplane.host import Host
    from repro.dataplane.link import DataLink
    from repro.dataplane.switch import OpenFlowSwitch
    from repro.openflow import messages
    from repro.sim.engine import SimulationEngine
    from repro.workloads.frames import FrameTemplate

    def engine_ran(args, fired):
        recorder.count("engine.events", fired)

    def link_sent(args, queued):
        recorder.count("link.bytes", len(args[1]))
        if not queued:
            recorder.count("link.drops")

    recorder.wrap(SimulationEngine, "run", "engine", engine_ran)
    recorder.wrap(DataLink, "send_from_a", "link", link_sent)
    recorder.wrap(DataLink, "send_from_b", "link", link_sent)
    recorder.wrap(OpenFlowSwitch, "frame_received", "switch.data")
    recorder.wrap(OpenFlowSwitch, "bytes_received", "switch.ctrl")
    recorder.wrap(FlowTable, "lookup", "flowtable.lookup")
    recorder.wrap(FlowTable, "apply_flow_mod", "flowtable.flow_mod")
    recorder.wrap(Host, "frame_received", "host.rx")
    for name in ("send_ip", "send_udp", "inject_frame"):
        recorder.wrap(Host, name, "host.tx")
    recorder.wrap_function(messages, "parse_message", "openflow.decode")
    recorder.wrap(messages.OpenFlowMessage, "pack", "openflow.encode")
    recorder.wrap(ConnectionProxy, "bytes_received", "proxy")
    recorder.wrap(AttackExecutor, "handle_message", "executor")
    # bytes_received only frames the stream; the service queue runs the
    # applications later in _process, so both count as controller time.
    recorder.wrap(Controller, "bytes_received", "controller")
    recorder.wrap(Controller, "_process", "controller")
    recorder.wrap(FrameTemplate, "emit", "workload.synth")
    recorder.wrap(ShardedResultStore, "append", "store.append")
    recorder.wrap(ShardedResultStore, "checkpoint", "store.checkpoint")
    recorder.wrap_function(campaign_report, "build_report", "report.build")
    for owner, kind in ((SimulationEngine, "engine"),
                        (OpenFlowSwitch, "switch"), (FlowTable, "flowtable"),
                        (ConnectionProxy, "proxy"),
                        (AttackExecutor, "executor"),
                        (Controller, "controller")):
        recorder.register(owner, kind)


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced unit."""
    spans = recorder.summary()
    counters = recorder.counters
    objects = recorder.instances

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def total(kind, read):
        return sum(read(obj) for obj in objects.get(kind, ()))

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    lookups = total("flowtable", lambda t: t.lookups)
    forwarded = total("proxy", lambda p: p.stats["forwarded"])
    return {
        "engine.events": counters.get("engine.events", 0),
        "engine.self_s": self_s("engine"),
        "engine.heap_compactions": total("engine",
                                         lambda e: e.heap_compactions),
        "link.frames": calls("link"),
        "link.bytes": counters.get("link.bytes", 0),
        "link.drops": counters.get("link.drops", 0),
        "link.self_s": self_s("link"),
        "switch.frames_in": calls("switch.data"),
        "switch.data_self_s": self_s("switch.data"),
        "switch.ctrl_msgs_in": total(
            "switch", lambda s: s.stats["control_messages_received"]),
        "switch.ctrl_self_s": self_s("switch.ctrl"),
        "switch.packet_ins": total(
            "switch", lambda s: s.stats["packet_ins_sent"]),
        "flowtable.lookups": lookups,
        "flowtable.lookup_s": self_s("flowtable.lookup"),
        "flowtable.hit_ratio": ratio(total("flowtable", lambda t: t.matched),
                                     lookups),
        "flowtable.fast_hit_ratio": ratio(
            total("flowtable", lambda t: t.lookup_fast_hits), lookups),
        "flowtable.flow_mods": calls("flowtable.flow_mod"),
        "flowtable.flow_mod_s": self_s("flowtable.flow_mod"),
        "flowtable.occupancy_peak": max(
            (t.occupancy_peak for t in objects.get("flowtable", ())),
            default=0),
        "flowtable.evictions": total("flowtable",
                                     lambda t: t.capacity_evictions),
        "host.frames_in": calls("host.rx"),
        "host.rx_self_s": self_s("host.rx"),
        "host.tx_calls": calls("host.tx"),
        "host.tx_self_s": self_s("host.tx"),
        "openflow.decodes": calls("openflow.decode"),
        "openflow.decode_s": self_s("openflow.decode"),
        "openflow.encodes": calls("openflow.encode"),
        "openflow.encode_s": self_s("openflow.encode"),
        "proxy.msgs": total("proxy", lambda p: (
            p.stats["to_controller_messages"] + p.stats["to_switch_messages"])),
        "proxy.self_s": self_s("proxy"),
        "proxy.decode_avoided_ratio": ratio(
            total("proxy", lambda p: p.stats["decode_avoided"]), forwarded),
        "executor.msgs": calls("executor"),
        "executor.self_s": self_s("executor"),
        "executor.rules_fired": total(
            "executor", lambda e: e.stats["rules_fired"]),
        "executor.dropped": total(
            "executor", lambda e: e.stats["messages_dropped"]),
        "controller.msgs_in": total(
            "controller", lambda c: c.stats["messages_received"]),
        "controller.self_s": self_s("controller"),
        "workload.frames": calls("workload.synth"),
        "workload.synth_s": self_s("workload.synth"),
        "store.appends": calls("store.append"),
        "store.append_s": self_s("store.append"),
        "store.checkpoint_s": self_s("store.checkpoint"),
        "report.build_s": spans.get("report.build", {}).get("total_s", 0.0),
    }
