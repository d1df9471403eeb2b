"""Fabric-scale experiments: sharded packet workloads on generated fabrics.

The paper's evaluation runs a 4-switch enterprise network; this harness
runs the same attack machinery against generated datacenter fabrics
(:mod:`repro.dataplane.fabrics`) with hundreds of switches, executed as a
sharded simulation (:mod:`repro.sim.shard`): the fabric is partitioned
into regions (fat-tree pods, leaf-spine leaves), each region runs on its
own engine, and cross-region frames/control bytes are exchanged at
conservative epoch barriers.

Two workloads:

* ``udp`` — controllerless throughput: proactive routes are preinstalled
  on every switch along the (deterministic BFS) path of each host pair,
  ARP tables are pre-populated, and each source streams fixed-size UDP
  datagrams.  This is the packets/sec scaling workload of
  ``benchmarks/test_fabric_scaling.py``.
* ``ping`` — control-plane-reactive ICMP series through a modelled
  controller (:class:`~repro.controllers.apps.FabricRoutingApp` — MAC
  learning floods, and a multi-path fabric turns a flood into a broadcast
  storm, so the controller routes instead).  With an ``attack``, the
  runtime injector and its proxies interpose every control connection in
  a dedicated *controller region*, preserving the paper's single
  total-ordering injector while the data plane is sharded.

Determinism: the region partition is a pure function of the config, so
results — including merged trace exports — are byte-identical for any
worker grouping (``shards``).  ``tests/sim/test_shard_determinism.py``
pins this down.
"""

from __future__ import annotations

import math
import multiprocessing
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.dataplane.fabrics import (
    FABRIC_CONTROL_LATENCY,
    FABRIC_LINK_LATENCY,
    Fabric,
    cut_links,
    generate_fabric,
    partition_topology,
)
from repro.dataplane.link import DataLink
from repro.dataplane.network import Network
from repro.dataplane.switch import FailMode
from repro.dataplane.topology import Topology
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.sim.shard import (
    BoundaryControlChannel,
    BoundaryHalf,
    BoundaryTx,
    ShardRegion,
    ShardedSimulation,
)

UDP_SRC_PORT = 40000
UDP_DST_PORT = 40001

#: Proxy <-> controller latency inside the controller region (the
#: switch <-> proxy leg crosses the shard boundary at
#: FABRIC_CONTROL_LATENCY).
INTRA_CONTROL_LATENCY = 0.00025


# --------------------------------------------------------------------- #
# Config
# --------------------------------------------------------------------- #

def fabric_config(
    topology: str = "fat-tree-k4",
    controller: Optional[str] = None,
    attack: Optional[str] = None,
    fail_mode: str = FailMode.SECURE.value,
    seed: int = 0,
    regions: Optional[int] = None,
    workload: Optional[str] = None,
    pairs: int = 4,
    packets: Optional[int] = None,
    interval_s: Optional[float] = None,
    payload_len: int = 64,
    start_s: Optional[float] = None,
    horizon_s: Optional[float] = None,
    attack_params: Optional[Dict[str, Any]] = None,
    workload_params: Optional[Dict[str, Any]] = None,
    table_capacity: Optional[int] = None,
    table_eviction: str = "refuse",
    trace: bool = False,
    trace_capacity: int = 262_144,
    sketch: bool = False,
    sketch_window_s: Optional[float] = None,
    detectors: Optional[Any] = None,
    detector_params: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Normalize experiment arguments into the picklable config dict that
    shard workers rebuild their regions from.

    Every derived default (horizon, workload, region count) is resolved
    here, so each worker sees the identical fully-specified config.

    ``workload`` is ``udp``/``ping`` (the PR 6 built-ins) or any name
    from the :mod:`repro.workloads` source registry; registered sources
    take ``workload_params`` (``schedule``, ``senders``, ``duration_s``,
    source-specific keys).  ``table_capacity``/``table_eviction`` bound
    every switch's flow table (the overflow campaigns' lever).
    """
    from repro.workloads import source_info, source_names

    if controller in (None, "", "none"):
        controller = None
    fabric = generate_fabric(topology)  # validates the name eagerly
    if regions is None:
        regions = len(fabric.groups) if fabric.groups else min(
            4, fabric.switch_count
        )
    if workload is None:
        workload = "ping" if controller else "udp"
    registered = workload not in ("udp", "ping")
    if registered and workload not in source_names():
        raise ValueError(
            f"unknown workload {workload!r}; built-ins are 'udp'/'ping', "
            f"registered sources: {source_names()}"
        )
    if workload == "ping" and controller is None:
        raise ValueError("the ping workload needs a controller "
                         "(reactive flow setup); use workload='udp'")
    if registered and controller is None and source_info(workload).needs_controller:
        raise ValueError(f"workload {workload!r} needs a controller "
                         "(it provokes reactive control-plane load)")
    if packets is None:
        packets = 5 if workload == "ping" else 50
    if interval_s is None:
        interval_s = 1.0 if workload == "ping" else 0.002
    if start_s is None:
        start_s = 0.25 if controller else 0.05
    workload_params = dict(workload_params or {})
    if registered:
        # Resolve source defaults here so every shard worker builds the
        # identical source, and the horizon covers the emission window.
        workload_params.setdefault("senders", pairs)
        workload_params.setdefault("duration_s", 1.0)
        workload_params["start_s"] = start_s
        from repro.workloads import parse_schedule

        parse_schedule(workload_params.get("schedule", "constant:100"))
    if horizon_s is None:
        if registered:
            horizon_s = start_s + float(workload_params["duration_s"]) + (
                1.0 if controller else 0.15
            )
        else:
            tail = 2.5 if workload == "ping" else 0.15
            horizon_s = start_s + packets * interval_s + tail
    FailMode(fail_mode)  # validate eagerly
    if table_capacity is not None:
        table_capacity = int(table_capacity)
        if table_capacity <= 0:
            raise ValueError(f"table_capacity must be positive, got {table_capacity}")
    from repro.dataplane.flowtable import EVICTION_POLICIES

    if table_eviction not in EVICTION_POLICIES:
        raise ValueError(f"unknown table_eviction {table_eviction!r}; "
                         f"choose from {EVICTION_POLICIES}")
    # Defense plane: detectors imply sketch telemetry; names may arrive
    # as a comma-separated string (XML campaign params) or a sequence.
    if isinstance(detectors, str):
        detectors = [d.strip() for d in detectors.split(",") if d.strip()]
    detectors = list(detectors or [])
    if detectors:
        from repro.defense import detector_info

        for name in detectors:
            detector_info(name)  # validate eagerly
        sketch = True
    if sketch_window_s is None:
        from repro.defense.tap import DEFAULT_WINDOW_S

        sketch_window_s = DEFAULT_WINDOW_S
    elif sketch_window_s <= 0:
        raise ValueError(
            f"sketch_window_s must be positive, got {sketch_window_s}"
        )
    return {
        "topology": topology,
        "controller": controller,
        "attack": attack,
        "attack_params": dict(attack_params or {}),
        "fail_mode": fail_mode,
        "seed": int(seed),
        "regions": int(regions),
        "workload": workload,
        "pairs": int(pairs),
        "packets": int(packets),
        "interval_s": float(interval_s),
        "payload_len": int(payload_len),
        "start_s": float(start_s),
        "horizon_s": float(horizon_s),
        "workload_params": workload_params,
        "table_capacity": table_capacity,
        "table_eviction": table_eviction,
        "trace": bool(trace),
        "trace_capacity": int(trace_capacity),
        "sketch": bool(sketch),
        "sketch_window_s": float(sketch_window_s),
        "detectors": detectors,
        "detector_params": dict(detector_params or {}),
    }


# --------------------------------------------------------------------- #
# Deterministic routing helpers (pure functions of the topology)
# --------------------------------------------------------------------- #

def _switch_adjacency(topo: Topology) -> Dict[str, List[str]]:
    adjacency: Dict[str, List[str]] = {name: [] for name in topo.switches}
    for link in topo.links:
        if link.a in topo.switches and link.b in topo.switches:
            adjacency[link.a].append(link.b)
            adjacency[link.b].append(link.a)
    for neighbors in adjacency.values():
        neighbors.sort()
    return adjacency


def _port_map(topo: Topology) -> Dict[Tuple[str, str], int]:
    """``(switch, attached peer) -> switch port`` for every link."""
    ports: Dict[Tuple[str, str], int] = {}
    for link in topo.links:
        if link.a in topo.switches:
            ports[(link.a, link.b)] = link.a_port
        if link.b in topo.switches:
            ports[(link.b, link.a)] = link.b_port
    return ports


def _host_attach(topo: Topology) -> Dict[str, str]:
    """``host -> its edge switch`` (hosts have exactly one link)."""
    attach: Dict[str, str] = {}
    for link in topo.links:
        if link.a in topo.hosts and link.b in topo.switches:
            attach[link.a] = link.b
        elif link.b in topo.hosts and link.a in topo.switches:
            attach[link.b] = link.a
    return attach


def _bfs_parents(
    adjacency: Dict[str, List[str]], root: str
) -> Dict[str, List[str]]:
    """BFS shortest-path DAG toward ``root``: ``parents[s]`` is every
    neighbor of ``s`` one hop closer to the root (sorted).

    Keeping ALL equal-cost predecessors instead of the first-found one is
    what makes ECMP spreading possible: a fat-tree has (k/2)^2 shortest
    paths between cross-pod edge switches, and routing every flow down
    the lexicographically first one would funnel the whole workload
    through a single aggregation/core column.  Sorted adjacency makes the
    DAG a pure function of the topology.
    """
    depth = {root: 0}
    parents: Dict[str, List[str]] = {}
    frontier = [root]
    while frontier:
        next_frontier: List[str] = []
        for node in frontier:
            for neighbor in adjacency[node]:
                if neighbor not in depth:
                    depth[neighbor] = depth[node] + 1
                    parents[neighbor] = [node]
                    next_frontier.append(neighbor)
                elif depth[neighbor] == depth[node] + 1:
                    parents[neighbor].append(node)
        frontier = next_frontier
    for options in parents.values():
        options.sort()
    return parents


def _ecmp_pick(options: List[str], *key: object) -> str:
    """Deterministic equal-cost choice: a stable CRC32 of the flow key
    (``hash()`` is salted per process, which would break shard-count
    invariance) indexes into the sorted candidate list."""
    if len(options) == 1:
        return options[0]
    digest = zlib.crc32("|".join(str(part) for part in key).encode())
    return options[digest % len(options)]


def workload_pairs(fabric: Fabric, count: int) -> List[Tuple[str, str]]:
    """The first ``count`` cross-fabric host pairs, deterministically.

    Hosts sort by name (pod-major on a fat-tree), so pairing index ``i``
    with ``i + n/2`` yields far-apart pairs whose paths exercise the
    core — and the shard boundaries.
    """
    hosts = sorted(fabric.topology.hosts)
    half = len(hosts) // 2
    return [(hosts[i], hosts[i + half]) for i in range(min(count, half))]


def proactive_routes(
    topo: Topology, pairs: Sequence[Tuple[str, str]]
) -> Dict[str, List[Tuple[Any, int]]]:
    """Per-switch ``(dst_mac, out_port)`` entries covering both directions
    of every pair's BFS path (the controllerless workload's flow tables)."""
    adjacency = _switch_adjacency(topo)
    ports = _port_map(topo)
    attach = _host_attach(topo)
    entries: Dict[str, Dict[Any, int]] = {name: {} for name in topo.switches}

    def install(src: str, dst: str) -> None:
        dst_mac = topo.hosts[dst].mac
        path = _switch_path(adjacency, attach[src], attach[dst])
        for i, switch in enumerate(path):
            if i + 1 < len(path):
                out = ports[(switch, path[i + 1])]
            else:
                out = ports[(switch, dst)]
            entries[switch].setdefault(dst_mac, out)

    for a, b in pairs:
        install(a, b)
        install(b, a)
    return {
        switch: sorted(table.items(), key=lambda item: int(item[0]))
        for switch, table in entries.items()
    }


def _switch_path(
    adjacency: Dict[str, List[str]], src: str, dst: str
) -> List[str]:
    """A shortest switch path from ``src`` to ``dst``, ECMP-spread:
    each hop picks among the equal-cost predecessors by a stable hash of
    ``(src, dst, hop)``, so distinct flows fan out over distinct
    aggregation and core switches instead of piling onto one."""
    if src == dst:
        return [src]
    parents = _bfs_parents(adjacency, src)
    if dst not in parents:
        raise ValueError(f"no switch path from {src!r} to {dst!r}")
    path = [dst]
    while path[-1] != src:
        path.append(_ecmp_pick(parents[path[-1]], src, dst, len(path)))
    path.reverse()
    return path


def controller_routes(topo: Topology) -> Dict[int, Dict[Any, int]]:
    """Full next-hop tables for :class:`FabricRoutingApp`:
    ``datapath_id -> {host MAC -> out_port}`` toward every host."""
    adjacency = _switch_adjacency(topo)
    ports = _port_map(topo)
    attach = _host_attach(topo)
    dpid = {name: spec.datapath_id for name, spec in topo.switches.items()}
    routes: Dict[int, Dict[Any, int]] = {d: {} for d in dpid.values()}
    by_edge: Dict[str, List[str]] = {}
    for host, edge in attach.items():
        by_edge.setdefault(edge, []).append(host)
    for edge, hosts in sorted(by_edge.items()):
        parents = _bfs_parents(adjacency, edge)
        for host in sorted(hosts):
            mac = topo.hosts[host].mac
            for switch in topo.switches:
                if switch == edge:
                    routes[dpid[switch]][mac] = ports[(edge, host)]
                elif switch in parents:
                    # Per-(switch, destination) ECMP: every hop strictly
                    # decreases the distance to the edge, so independent
                    # per-switch choices still compose into loop-free
                    # paths.
                    choice = _ecmp_pick(parents[switch], switch, str(mac))
                    routes[dpid[switch]][mac] = ports[(switch, choice)]
    return routes


# --------------------------------------------------------------------- #
# The execution plan
# --------------------------------------------------------------------- #

@dataclass
class FabricPlan:
    """Everything the coordinator and every worker derive from a config —
    a pure function of the config dict, recomputed identically anywhere."""

    fabric: Fabric
    partition: List[List[str]]
    owner: Dict[str, int]          # device name -> region id
    region_ids: List[int]
    ctrl_rid: Optional[int]
    lookahead: float
    weights: Dict[int, int]
    pairs: List[Tuple[str, str]]
    cut: int
    #: Minimum boundary-channel latency — the barrier schedule's safe
    #: widening promise (``inf`` when nothing crosses a region boundary).
    promise: float = FABRIC_LINK_LATENCY
    _routes: Optional[Dict[str, List[Tuple[Any, int]]]] = field(
        default=None, repr=False, compare=False)

    def proactive_route_tables(self) -> Dict[str, List[Tuple[Any, int]]]:
        """Per-switch proactive routes, computed once per plan.

        Every region built from this plan shares the object, so a worker
        holding N regions pays one BFS/ECMP pass instead of N.
        """
        if self._routes is None:
            self._routes = proactive_routes(self.fabric.topology, self.pairs)
        return self._routes


def _boundary_promise(
    fabric: Fabric, owner: Dict[str, int], has_controller: bool
) -> float:
    """The smallest latency of any channel that crosses a region cut."""
    promise = math.inf
    for link in fabric.topology.links:
        if owner.get(link.a) != owner.get(link.b):
            promise = min(promise, link.latency_s)
    if has_controller:
        promise = min(promise, FABRIC_CONTROL_LATENCY)
    return promise


def plan_fabric(config: Dict[str, Any]) -> FabricPlan:
    fabric = generate_fabric(config["topology"])
    partition = partition_topology(
        fabric.topology, config["regions"], groups=fabric.groups or None
    )
    owner = {
        name: rid
        for rid, devices in enumerate(partition)
        for name in devices
    }
    region_ids = list(range(len(partition)))
    ctrl_rid: Optional[int] = None
    weights = {rid: len(devices) for rid, devices in enumerate(partition)}
    if config["controller"]:
        ctrl_rid = len(partition)
        region_ids.append(ctrl_rid)
        # The controller region services every PACKET_IN; weight it like
        # half the fabric so LPT packing gives it room.
        weights[ctrl_rid] = max(1, fabric.switch_count // 2)
    return FabricPlan(
        fabric=fabric,
        partition=partition,
        owner=owner,
        region_ids=region_ids,
        ctrl_rid=ctrl_rid,
        lookahead=FABRIC_LINK_LATENCY,
        weights=weights,
        pairs=workload_pairs(fabric, config["pairs"]),
        cut=cut_links(fabric.topology, partition),
        promise=_boundary_promise(fabric, owner, bool(config["controller"])),
    )


# --------------------------------------------------------------------- #
# Regions
# --------------------------------------------------------------------- #

def _link_chan(index: int, side: str) -> str:
    return f"link:{index:06d}:{side}"


def _ctrl_chan(controller: str, switch: str, instance: int, tail: str) -> str:
    return f"ctl:{controller}:{switch}:{instance:06d}:{tail}"


class _FabricDataRegion(ShardRegion):
    """One fabric region: a subset of switches/hosts plus its workload."""

    def __init__(self, rid: int, config: Dict[str, Any], plan: FabricPlan) -> None:
        super().__init__(rid, len(plan.region_ids))
        self.config = config
        self.plan = plan
        self.workload: Dict[str, int] = {
            "udp_sent": 0, "udp_received": 0, "packets_synthesized": 0,
        }
        self.ping_monitor = None
        self.tracer = None
        self.sketch_tap = None
        self._drivers = []
        self._dial_instances: Dict[Tuple[str, str], int] = {}
        self._payload = b"\x00" * config["payload_len"]
        with self.ctx:
            self._build()

    # -- construction -------------------------------------------------- #

    def _build(self) -> None:
        config, plan = self.config, self.plan
        include = set(plan.partition[self.rid])
        topo = plan.fabric.topology

        def boundary(index: int, link_spec, side: str):
            if link_spec.latency_s < plan.lookahead:
                raise ValueError(
                    f"boundary link {link_spec.a}-{link_spec.b} latency "
                    f"{link_spec.latency_s} below lookahead {plan.lookahead}"
                )
            far = link_spec.b if side == "a" else link_spec.a
            out_chan = _link_chan(index, side)
            in_chan = _link_chan(index, "b" if side == "a" else "a")
            tx = BoundaryTx(
                self.engine, link_spec.bandwidth_bps, link_spec.latency_s,
                DataLink.DEFAULT_QUEUE_LIMIT, self.emit, out_chan,
            )
            half = BoundaryHalf(tx)
            self.chan_dest[out_chan] = plan.owner[far]
            self.link_sinks[in_chan] = half
            return half

        self.network = Network(
            self.engine, topo,
            fail_mode=FailMode(config["fail_mode"]),
            include=include,
            boundary=boundary,
            table_capacity=config["table_capacity"],
            table_eviction=config["table_eviction"],
        )

        if config["controller"]:
            for name in sorted(self.network.switches):
                switch = self.network.switches[name]
                switch.set_connect_factory(self._boundary_dialer(name))
        else:
            self._preinstall_routes()

        if config.get("sketch"):
            from repro.defense.tap import SketchTap

            # One tap per region, shared by its switches; payloads merge
            # deterministically at collection in sorted-region order.
            self.sketch_tap = SketchTap(window_s=config["sketch_window_s"])
            for switch in self.network.switches.values():
                switch.sketches = self.sketch_tap

        if config["trace"]:
            from repro.obs import TraceCollector, wire_run

            self.tracer = TraceCollector(capacity=config["trace_capacity"])
            monitors = ()
            if config["workload"] == "ping":
                monitors = (self._ping_monitor(),)
            wire_run(self.tracer, self.engine,
                     switches=self.network.switches.values(),
                     monitors=monitors)

        self._build_workload()
        self.network.start()

    def _preinstall_routes(self) -> None:
        routes = self.plan.proactive_route_tables()
        for name in sorted(self.network.switches):
            switch = self.network.switches[name]
            for dst_mac, out_port in routes[name]:
                switch.preinstall_flow(
                    Match(dl_dst=dst_mac), [OutputAction(out_port)]
                )

    def _boundary_dialer(self, switch_name: str):
        controller = self.config["controller"]
        plan = self.plan
        connection = ("c1", switch_name)

        def dial(switch):
            instance = self._dial_instances.get(connection, 0) + 1
            self._dial_instances[connection] = instance
            out_chan = _ctrl_chan("c1", switch_name, instance, "c")
            in_chan = _ctrl_chan("c1", switch_name, instance, "s")
            chan = BoundaryControlChannel(
                self.engine, switch, FABRIC_CONTROL_LATENCY,
                name=f"bctl-{switch_name}-{instance}",
                emit=self.emit, out_chan=out_chan,
            )
            self.chan_dest[out_chan] = plan.ctrl_rid
            self.ctrl_sinks[in_chan] = chan
            # The far side learns of the dial at one connection-setup
            # latency, exactly like connect_endpoints' notify; the local
            # side starts its handshake at the same instant.
            self.emit(out_chan, self.engine.now + FABRIC_CONTROL_LATENCY,
                      "open", b"")
            self.engine.schedule(FABRIC_CONTROL_LATENCY,
                                 switch.channel_opened, chan)
            return chan

        del controller  # the system model names it c1 regardless of kind
        return dial

    # -- workload ------------------------------------------------------ #

    def _ping_monitor(self):
        if self.ping_monitor is None:
            from repro.core.monitors import PingMonitor

            self.ping_monitor = PingMonitor()
        return self.ping_monitor

    def _build_workload(self) -> None:
        config, plan = self.config, self.plan
        topo = plan.fabric.topology
        local = self.network.hosts
        # Pre-populate ARP both ways: the routing layers never flood, so
        # an ARP broadcast would die — and real fabrics proxy/suppress
        # ARP anyway.
        for a, b in plan.pairs:
            if a in local:
                local[a].arp_table[topo.hosts[b].ip] = topo.hosts[b].mac
            if b in local:
                local[b].arp_table[topo.hosts[a].ip] = topo.hosts[a].mac
        if config["workload"] == "udp":
            for src, dst in plan.pairs:
                if dst in local:
                    local[dst].register_udp_handler(
                        UDP_DST_PORT, self._udp_received
                    )
                if src in local:
                    dst_ip = topo.hosts[dst].ip
                    for i in range(config["packets"]):
                        self.engine.schedule_at(
                            config["start_s"] + i * config["interval_s"],
                            self._udp_send, local[src], dst_ip,
                        )
        elif config["workload"] == "ping":
            monitor = self._ping_monitor()
            for src, dst in plan.pairs:
                if src in local:
                    self.engine.schedule_at(
                        config["start_s"],
                        monitor.start_series,
                        local[src], topo.hosts[dst].ip,
                        config["packets"], config["interval_s"],
                    )
        else:
            from repro.workloads import DEFAULT_TICK_S, build_source, drive_source
            from repro.workloads.sources import BENIGN_UDP_PORT, FLOOD_UDP_PORT

            # Each region builds the identical source (a pure function of
            # the config) and drives only the emitters it owns.
            source = build_source(
                config["workload"], topo, config["seed"],
                config["workload_params"],
            )
            for host in local.values():
                for port in (BENIGN_UDP_PORT + 1, FLOOD_UDP_PORT + 1):
                    host.register_udp_handler(port, self._udp_received)
            self._drivers = drive_source(
                self.engine, local, source,
                tick_s=float(config["workload_params"].get(
                    "tick_s", DEFAULT_TICK_S
                )),
            )

    def _udp_send(self, host, dst_ip) -> None:
        self.workload["udp_sent"] += 1
        host.send_udp(dst_ip, UDP_SRC_PORT, UDP_DST_PORT, self._payload)

    def _udp_received(self, src_ip, datagram) -> None:
        self.workload["udp_received"] += 1

    # -- results ------------------------------------------------------- #

    def _collect(self) -> Dict[str, Any]:
        result = super()._collect()
        self.workload["packets_synthesized"] = sum(
            driver.emitter.emitted for driver in self._drivers
        )
        result["workload"] = dict(self.workload)
        result["switch"] = {
            key: self.network.total_stat(key)
            for key in ("packet_ins_sent", "flow_mods_received",
                        "table_misses", "evictions_idle", "evictions_hard",
                        "evictions_capacity", "evictions_delete")
        }
        result["tables"] = {
            "occupancy_peak": max(
                (s.flow_table.occupancy_peak
                 for s in self.network.switches.values()), default=0
            ),
            "entries": sum(
                len(s.flow_table) for s in self.network.switches.values()
            ),
        }
        if self.ping_monitor is not None:
            results = self.ping_monitor.results
            result["ping"] = {
                "sent": sum(r.sent for r in results),
                "received": sum(r.received for r in results),
                "rtts": self.ping_monitor.all_rtts(),
            }
        if self.tracer is not None:
            result["trace"] = [
                dict(event, region=self.rid) for event in self.tracer.events()
            ]
        if self.sketch_tap is not None:
            result["sketch"] = self.sketch_tap.collect()
        return result


class _ControllerRegion(ShardRegion):
    """The controller region: controller + runtime injector + proxies.

    The paper's injector is "a single-threaded, centralized runtime
    injector instance" imposing a total order on interposed messages —
    sharding keeps that literal by giving the whole control plane one
    region (and therefore one engine), while the data plane spreads over
    the others.
    """

    def __init__(self, rid: int, config: Dict[str, Any], plan: FabricPlan) -> None:
        super().__init__(rid, len(plan.region_ids))
        self.config = config
        self.plan = plan
        self.tracer = None
        with self.ctx:
            self._build()

    def _build(self) -> None:
        from repro.attacks import build_attack
        from repro.controllers import CONTROLLER_FACTORIES
        from repro.controllers.apps import FabricRoutingApp
        from repro.core import RuntimeInjector
        from repro.core.model import AttackModel, SystemModel
        from repro.core.monitors import ControlPlaneMonitor
        from repro.sim.rng import SeededRng

        config, plan = self.config, self.plan
        topo = plan.fabric.topology
        factory = CONTROLLER_FACTORIES[config["controller"]]
        self.controller = factory(self.engine, name="c1")
        self.controller.apps.insert(
            0,
            FabricRoutingApp(controller_routes(topo), self.controller.behavior),
        )

        system = SystemModel.from_topology(topo, ["c1"])
        attack_model = AttackModel.no_tls_everywhere(system)
        attack = None
        if config["attack"]:
            attack = build_attack(
                config["attack"],
                connections=system.connection_keys(),
                **config["attack_params"],
            )
        self.injector = RuntimeInjector(
            self.engine, attack_model, attack, rng=SeededRng(config["seed"])
        )
        self.control_monitor = ControlPlaneMonitor()
        self.injector.add_observer(self.control_monitor)
        self._ports = {}
        for connection in system.connection_keys():
            self._ports[connection] = self.injector.port_for(
                connection, self.controller, latency_s=INTRA_CONTROL_LATENCY
            )

        if config["trace"]:
            from repro.obs import TraceCollector, wire_run

            self.tracer = TraceCollector(capacity=config["trace_capacity"])
            wire_run(self.tracer, self.engine, injector=self.injector,
                     monitors=(self.control_monitor,))

    def control_opened(self, chan_name: str) -> None:
        """A switch region dialled: hand the boundary channel to the
        connection's proxy port, which adopts it and dials the controller
        (in-region, through the normal connect_endpoints path)."""
        _tag, controller, switch, instance, _tail = chan_name.split(":")
        connection = (controller, switch)
        port = self._ports[connection]
        out_chan = _ctrl_chan(controller, switch, int(instance), "s")
        chan = BoundaryControlChannel(
            self.engine, port, FABRIC_CONTROL_LATENCY,
            name=f"bctl-{switch}-{instance}-ctrl",
            emit=self.emit, out_chan=out_chan,
        )
        self.chan_dest[out_chan] = self.plan.owner[switch]
        self.ctrl_sinks[chan_name] = chan
        port.channel_opened(chan)

    def _collect(self) -> Dict[str, Any]:
        result = super()._collect()
        monitor = self.control_monitor
        result["control"] = {
            "packet_ins": monitor.count_of("PACKET_IN"),
            "flow_mods_seen": monitor.count_of("FLOW_MOD"),
            "flow_mods_dropped": monitor.dropped_by_type.get("FLOW_MOD", 0),
            "total_messages": monitor.total_messages(),
        }
        result["controller"] = dict(self.controller.stats)
        result["injector"] = dict(self.injector.stats)
        if self.tracer is not None:
            result["trace"] = [
                dict(event, region=self.rid) for event in self.tracer.events()
            ]
        return result


def build_fabric_regions(
    config: Dict[str, Any], rids: Sequence[int]
) -> List[ShardRegion]:
    """Build the regions a worker owns (called by the shard executors)."""
    plan = plan_fabric(config)
    regions: List[ShardRegion] = []
    for rid in rids:
        if plan.ctrl_rid is not None and rid == plan.ctrl_rid:
            regions.append(_ControllerRegion(rid, config, plan))
        elif 0 <= rid < len(plan.partition):
            regions.append(_FabricDataRegion(rid, config, plan))
        else:
            raise ValueError(f"region id {rid} outside plan "
                             f"({len(plan.partition)} regions)")
    return regions


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #

@dataclass
class FabricResult:
    """One sharded fabric run, aggregated across regions."""

    fabric: str
    controller: Optional[str]
    attack: Optional[str]
    fail_mode: str
    seed: int
    workload: str
    regions: int
    shards: int
    switches: int
    hosts: int
    cut_links: int
    packets_sent: int = 0
    packets_delivered: int = 0
    ping_sent: int = 0
    ping_received: int = 0
    median_rtt_s: Optional[float] = None
    packets_synthesized: int = 0
    packet_ins: int = 0
    switch_packet_ins: int = 0
    table_misses: int = 0
    table_occupancy_peak: int = 0
    evictions_idle: int = 0
    evictions_hard: int = 0
    evictions_capacity: int = 0
    evictions_delete: int = 0
    flow_mods_seen: int = 0
    flow_mods_dropped: int = 0
    total_control_messages: int = 0
    cross_shard_messages: int = 0
    epochs: int = 0
    epochs_skipped: int = 0
    epochs_widened: int = 0
    exchange_bytes: int = 0
    exchange_blobs: int = 0
    processed_events: int = 0
    sim_duration_s: float = 0.0
    wall_s: float = 0.0
    coordinator_cpu_s: float = 0.0
    worker_cpu_s: List[float] = field(default_factory=list)
    region_metrics: List[Dict[str, Any]] = field(default_factory=list)
    trace_jsonl: Optional[str] = None
    trace_events: int = 0
    sketch: Optional[Dict[str, Any]] = None
    sketch_digest: Optional[str] = None
    detections: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def delivery_rate(self) -> float:
        if self.packets_sent:
            return self.packets_delivered / self.packets_sent
        if self.ping_sent:
            return self.ping_received / self.ping_sent
        return 0.0

    @property
    def packet_in_rate(self) -> float:
        """Switch-side PACKET_IN per sim-second — the storm intensity a
        ``packetin-flood`` workload is measured by."""
        if self.sim_duration_s <= 0:
            return 0.0
        return self.switch_packet_ins / self.sim_duration_s

    @property
    def wall_packets_per_sec(self) -> float:
        delivered = self.packets_delivered or self.ping_received
        return delivered / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def capacity_packets_per_sec(self) -> float:
        """Delivered packets over the critical-path CPU seconds: the
        slowest worker plus the coordinator.  On a single-CPU host this —
        not wall clock — is what shard scaling improves; see
        docs/PERFORMANCE.md."""
        critical = max(self.worker_cpu_s, default=0.0) + self.coordinator_cpu_s
        if critical <= 0:
            critical = self.wall_s
        delivered = self.packets_delivered or self.ping_received
        return delivered / critical if critical > 0 else 0.0

    def record(self) -> Dict[str, Any]:
        """The campaign ResultStore metrics payload for this run."""
        payload = {
            "experiment": "fabric",
            "topology": self.fabric,
            "controller": self.controller,
            "attack": self.attack,
            "fail_mode": self.fail_mode,
            "seed": self.seed,
            "workload": self.workload,
            "regions": self.regions,
            "shards": self.shards,
            "switches": self.switches,
            "hosts": self.hosts,
            "cut_links": self.cut_links,
            "packets_sent": self.packets_sent,
            "packets_delivered": self.packets_delivered,
            "ping_sent": self.ping_sent,
            "ping_received": self.ping_received,
            "delivery_rate": round(self.delivery_rate, 6),
            "median_rtt_ms": (
                round(self.median_rtt_s * 1000, 4)
                if self.median_rtt_s is not None else None
            ),
            "packets_synthesized": self.packets_synthesized,
            "packet_ins": self.packet_ins,
            "switch_packet_ins": self.switch_packet_ins,
            "packet_in_rate": round(self.packet_in_rate, 2),
            "table_misses": self.table_misses,
            "table_occupancy_peak": self.table_occupancy_peak,
            "evictions_idle": self.evictions_idle,
            "evictions_hard": self.evictions_hard,
            "evictions_capacity": self.evictions_capacity,
            "evictions_delete": self.evictions_delete,
            "flow_mods_seen": self.flow_mods_seen,
            "flow_mods_dropped": self.flow_mods_dropped,
            "total_control_messages": self.total_control_messages,
            "cross_shard_messages": self.cross_shard_messages,
            "epochs": self.epochs,
            "epochs_skipped": self.epochs_skipped,
            "epochs_widened": self.epochs_widened,
            "exchange_bytes": self.exchange_bytes,
            "exchange_blobs": self.exchange_blobs,
            "processed_events": self.processed_events,
            "sim_duration_s": round(self.sim_duration_s, 6),
            "wall_s": round(self.wall_s, 4),
            "coordinator_cpu_s": round(self.coordinator_cpu_s, 4),
            "worker_cpu_s": [round(cpu, 4) for cpu in self.worker_cpu_s],
            "wall_packets_per_sec": round(self.wall_packets_per_sec, 2),
            "capacity_packets_per_sec": round(self.capacity_packets_per_sec, 2),
        }
        if self.sketch_digest is not None:
            from repro.defense.tap import sketch_summary

            payload["sketch_digest"] = self.sketch_digest
            payload["sketch_summary"] = sketch_summary(self.sketch)
        if self.detections:
            payload["detections"] = self.detections
            # Flatten the first detector's scores so the report layer's
            # numeric-metric aggregation picks them up as columns.
            first = self.detections[0]
            payload["detect_precision"] = first["precision"]
            payload["detect_recall"] = first["recall"]
            payload["detect_latency_s"] = first["detection_latency_s"]
        return payload


def _median(values: List[float]) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def run_fabric_experiment(
    topology: str = "fat-tree-k4",
    controller: Optional[str] = None,
    attack: Optional[str] = None,
    fail_mode: str = FailMode.SECURE.value,
    seed: int = 0,
    shards: int = 1,
    trace=None,
    **config_kwargs,
) -> FabricResult:
    """Run one sharded fabric workload and aggregate the region results.

    ``shards=1`` executes every region inline; ``shards=N`` spreads the
    regions over N pooled worker processes.  Results are byte-identical
    either way.  ``trace`` accepts ``True`` or an existing
    :class:`~repro.obs.TraceCollector` (the campaign runner's), which
    receives the merged, deterministically ordered per-region events.
    """
    collector = None
    if trace is not None and not isinstance(trace, bool):
        collector = trace
        trace = True
    config = fabric_config(
        topology=topology, controller=controller, attack=attack,
        fail_mode=fail_mode, seed=seed, trace=bool(trace), **config_kwargs,
    )
    plan = plan_fabric(config)
    if shards > 1 and (
            multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        # Campaign workers are daemonic and cannot spawn shard workers,
        # and the pool's pipe mesh needs fork; fall back to inline
        # multi-region execution (same results).
        shards = 1
    sim = ShardedSimulation(
        config,
        region_ids=plan.region_ids,
        weights=plan.weights,
        lookahead=plan.lookahead,
        horizon=config["horizon_s"],
        shards=shards,
        promise=plan.promise,
    )
    payload = sim.run()

    result = FabricResult(
        fabric=config["topology"],
        controller=config["controller"],
        attack=config["attack"],
        fail_mode=config["fail_mode"],
        seed=config["seed"],
        workload=config["workload"],
        regions=len(plan.region_ids),
        shards=payload["shards"],
        switches=plan.fabric.switch_count,
        hosts=plan.fabric.host_count,
        cut_links=plan.cut,
        epochs=payload["epochs"],
        epochs_skipped=payload["epochs_skipped"],
        epochs_widened=payload["epochs_widened"],
        exchange_bytes=payload["exchange_bytes"],
        exchange_blobs=payload["exchange_blobs"],
        sim_duration_s=config["horizon_s"],
        wall_s=payload["wall_s"],
        coordinator_cpu_s=payload["coordinator_cpu_s"],
        worker_cpu_s=list(payload["worker_cpu_s"]),
    )
    rtts: List[float] = []
    trace_events: List[Dict[str, Any]] = []
    sketch_parts: List[Dict[str, Any]] = []
    for rid in sorted(payload["regions"]):
        region = payload["regions"][rid]
        engine_metrics = region["engine"]
        result.processed_events += engine_metrics["processed_events"]
        result.cross_shard_messages += engine_metrics["cross_shard_messages"]
        result.region_metrics.append(
            dict(engine_metrics, region=rid)
        )
        workload = region.get("workload") or {}
        result.packets_sent += workload.get("udp_sent", 0)
        result.packets_delivered += workload.get("udp_received", 0)
        result.packets_synthesized += workload.get("packets_synthesized", 0)
        switch_stats = region.get("switch") or {}
        result.switch_packet_ins += switch_stats.get("packet_ins_sent", 0)
        result.table_misses += switch_stats.get("table_misses", 0)
        result.evictions_idle += switch_stats.get("evictions_idle", 0)
        result.evictions_hard += switch_stats.get("evictions_hard", 0)
        result.evictions_capacity += switch_stats.get("evictions_capacity", 0)
        result.evictions_delete += switch_stats.get("evictions_delete", 0)
        tables = region.get("tables") or {}
        result.table_occupancy_peak = max(
            result.table_occupancy_peak, tables.get("occupancy_peak", 0)
        )
        ping = region.get("ping")
        if ping:
            result.ping_sent += ping["sent"]
            result.ping_received += ping["received"]
            rtts.extend(ping["rtts"])
        control = region.get("control")
        if control:
            result.packet_ins += control["packet_ins"]
            result.flow_mods_seen += control["flow_mods_seen"]
            result.flow_mods_dropped += control["flow_mods_dropped"]
            result.total_control_messages += control["total_messages"]
        trace_events.extend(region.get("trace") or [])
        sketch = region.get("sketch")
        if sketch:
            sketch_parts.append(sketch)
    result.median_rtt_s = _median(rtts)

    if config.get("sketch"):
        from repro.defense import (
            attack_window, evaluate_detectors, merge_taps, sketch_digest,
        )

        result.sketch = merge_taps(sketch_parts)
        result.sketch_digest = sketch_digest(result.sketch)
        if config["detectors"]:
            from repro.workloads import source_info, source_names

            workload = config["workload"]
            if workload in source_names():
                span = attack_window(
                    config["workload_params"],
                    adversarial=source_info(workload).adversarial,
                )
            else:
                span = None  # built-in udp/ping traffic is benign
            result.detections = evaluate_detectors(
                result.sketch,
                horizon_s=config["horizon_s"],
                detectors=config["detectors"],
                detector_params=config["detector_params"],
                attack_span=span,
            )

    if config["trace"]:
        from repro.obs import event_to_json

        trace_events.sort(key=lambda e: (e["t"], e["region"], e["seq"]))
        lines = [event_to_json(event) for event in trace_events]
        result.trace_jsonl = "\n".join(lines) + ("\n" if lines else "")
        result.trace_events = len(trace_events)
        if collector is not None:
            # Feed the merged stream back into the caller's collector so
            # the campaign trace plumbing (to_jsonl, counts) sees it.
            for event in trace_events:
                collector.events_total += 1
                collector.counts[event["kind"]] = (
                    collector.counts.get(event["kind"], 0) + 1
                )
                collector._ring.append(event)
    return result


def run_cell(
    controller: str = "none",
    attack: Optional[str] = None,
    fail_mode: str = FailMode.SECURE.value,
    seed: int = 0,
    attack_params: Optional[Dict[str, Any]] = None,
    topology: str = "fat-tree-k4",
    trace=None,
    **params,
) -> Dict[str, Any]:
    """Campaign entry point: one fabric run -> metrics dict.

    ``topology`` is a fabric descriptor (``fat-tree-k8``, ...); remaining
    keyword arguments forward to :func:`run_fabric_experiment`
    (``shards``, ``pairs``, ``packets``, ``workload``, ...).
    """
    result = run_fabric_experiment(
        topology=topology,
        controller=controller,
        attack=attack,
        fail_mode=fail_mode,
        seed=seed,
        attack_params=attack_params,
        trace=trace,
        **params,
    )
    return result.record()
