"""Topology partitioning for sharded simulation.

The ADL-reconfiguration line of work argues the *architecture
description* should drive how a running system is split; here the
topology partition is that description: a :class:`Partition` assigns
every node to a region, declares the :class:`Boundary` links that cross
regions, and derives the **conservative lookahead** — the minimum
cross-region link latency — that :mod:`repro.parallel` uses as the safe
synchronization horizon (no message can cross a region boundary in less
simulated time than the slowest-safe bound, so regions may run
independently that far ahead).

:class:`RegionNetwork` is the per-region shard: a normal
:class:`~repro.netsim.network.Network` over the region's own nodes and
links, plus boundary handling — cross-region sends travel the local
topology to the boundary gateway, pay the boundary link's queueing,
transmission and propagation, and land in :attr:`RegionNetwork.outbox`
as plain tuples ready for a process pipe.  :meth:`RegionNetwork.ingress`
is the other half: it re-materializes an inbound tuple at its arrival
time and continues delivery over the local topology.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Mapping

from repro.errors import LinkDownError, NetworkError
from repro.events import Simulator
from repro.netsim.message import Message
from repro.netsim.network import Network


@dataclass(frozen=True)
class Boundary:
    """A cross-region link between two gateway nodes.

    Boundary latency is the quantity that matters for correctness: the
    partition's lookahead is the minimum over all boundaries, so every
    boundary must have strictly positive latency.
    """

    a_region: int
    a_node: str
    b_region: int
    b_node: str
    latency: float
    bandwidth: float = 1_000_000.0
    loss: float = 0.0

    def gateway(self, region: int) -> str:
        """This boundary's gateway node inside ``region``."""
        if region == self.a_region:
            return self.a_node
        if region == self.b_region:
            return self.b_node
        raise NetworkError(f"boundary {self} does not touch region {region}")

    def peer(self, region: int) -> tuple[int, str]:
        """(remote region, remote gateway) as seen from ``region``."""
        if region == self.a_region:
            return self.b_region, self.b_node
        if region == self.b_region:
            return self.a_region, self.a_node
        raise NetworkError(f"boundary {self} does not touch region {region}")


class Partition:
    """Assignment of topology nodes to regions plus the boundary links.

    The partition is plain data (dicts and tuples) so it pickles across
    process boundaries; every worker holds the same copy and can answer
    ``region_of`` for any node in the whole topology without owning it.
    """

    def __init__(self, regions: int) -> None:
        if regions < 1:
            raise NetworkError(f"partition needs >= 1 region, got {regions}")
        self.regions = regions
        self._node_region: dict[str, int] = {}
        self.boundaries: list[Boundary] = []
        self._next_hop: dict[tuple[int, int], Boundary] | None = None
        self._distances: dict[tuple[int, int], float] | None = None

    # -- building ----------------------------------------------------------

    def assign(self, node: str, region: int) -> None:
        """Place ``node`` in ``region``."""
        if not 0 <= region < self.regions:
            raise NetworkError(
                f"region {region} out of range 0..{self.regions - 1}")
        existing = self._node_region.get(node)
        if existing is not None and existing != region:
            raise NetworkError(
                f"node {node!r} already assigned to region {existing}")
        self._node_region[sys.intern(node)] = region

    def assign_many(self, nodes: Iterable[str], region: int) -> None:
        for node in nodes:
            self.assign(node, region)

    def add_boundary(self, a_node: str, b_node: str, *,
                     latency: float, bandwidth: float = 1_000_000.0,
                     loss: float = 0.0) -> Boundary:
        """Declare a cross-region link between two already-assigned nodes."""
        if latency <= 0:
            raise NetworkError(
                f"boundary latency must be > 0 (it is the lookahead), "
                f"got {latency}")
        a_region = self.region_of(a_node)
        b_region = self.region_of(b_node)
        if a_region == b_region:
            raise NetworkError(
                f"boundary {a_node!r}<->{b_node!r} does not cross regions "
                f"(both in region {a_region})")
        boundary = Boundary(a_region, a_node, b_region, b_node,
                            latency, bandwidth, loss)
        self.boundaries.append(boundary)
        self._next_hop = None
        self._distances = None
        return boundary

    # -- queries -----------------------------------------------------------

    def region_of(self, node: str) -> int:
        try:
            return self._node_region[node]
        except KeyError:
            raise NetworkError(f"node {node!r} not assigned to any region") \
                from None

    def nodes_in(self, region: int) -> list[str]:
        return sorted(node for node, r in self._node_region.items()
                      if r == region)

    @property
    def lookahead(self) -> float:
        """The conservative horizon: minimum boundary latency.

        Any message created before time ``t`` cannot arrive in another
        region before ``t + lookahead``, so regions may safely run
        ``lookahead`` ahead of each other between barriers.
        """
        if not self.boundaries:
            raise NetworkError(
                "partition has no boundaries; lookahead is undefined")
        return min(boundary.latency for boundary in self.boundaries)

    def next_hop(self, src_region: int, dst_region: int) -> Boundary:
        """First boundary on the min-latency region-level route."""
        if self._next_hop is None:
            self._build_next_hops()
        try:
            return self._next_hop[(src_region, dst_region)]
        except KeyError:
            raise NetworkError(
                f"no boundary route from region {src_region} "
                f"to region {dst_region}") from None

    def region_distance(self, src_region: int, dst_region: int) -> float:
        """Minimum total boundary latency between two regions.

        ``math.inf`` when unreachable, ``0.0`` on the diagonal.  This is
        the triangle-inequality bound the coordinator's overlapped
        exchange relies on: a message egressing region ``s`` at time
        ``t`` cannot be injected into region ``r`` before
        ``t + region_distance(s, r)``.
        """
        if src_region == dst_region:
            return 0.0
        if self._distances is None:
            self._build_next_hops()
        return self._distances.get((src_region, dst_region), math.inf)

    def _build_next_hops(self) -> None:
        # Region graph: one edge per region pair, the fastest boundary;
        # neighbours in the order their edge was first declared.
        adjacency: list[dict[int, Boundary]] = [{} for _ in range(self.regions)]
        best: dict[tuple[int, int], Boundary] = {}
        for boundary in self.boundaries:
            key = (min(boundary.a_region, boundary.b_region),
                   max(boundary.a_region, boundary.b_region))
            current = best.get(key)
            if current is None or boundary.latency < current.latency:
                best[key] = boundary
        for (a, b), boundary in best.items():
            adjacency[a][b] = adjacency[b][a] = boundary
        table: dict[tuple[int, int], Boundary] = {}
        distances: dict[tuple[int, int], float] = {}
        for src in range(self.regions):
            for dst, (length, first) in _dijkstra(adjacency, src).items():
                table[(src, dst)] = adjacency[src][first]
                distances[(src, dst)] = length
        self._next_hop = table
        self._distances = distances

    def validate(self) -> None:
        """Check every region is populated and boundaries are consistent."""
        populated = {region for region in self._node_region.values()}
        missing = set(range(self.regions)) - populated
        if missing:
            raise NetworkError(f"regions {sorted(missing)} have no nodes")
        if self.regions > 1:
            self._build_next_hops()
            for src in range(self.regions):
                for dst in range(self.regions):
                    if src != dst and (src, dst) not in (self._next_hop or {}):
                        raise NetworkError(
                            f"region {dst} unreachable from region {src}")


class CompactPartition(Partition):
    """A partition whose node→region map is a *formula*, not a dict.

    A million-node topology cannot afford a million-entry assignment
    dict in every worker process (the partition is pickled to each one).
    A :class:`CompactPartition` answers :meth:`region_of` through a
    ``resolver`` callable — typically a small picklable object that
    parses the region out of systematic node names (``n3_1417`` → region
    3) — and keeps the explicit dict only for the handful of nodes the
    resolver declines (returns ``None`` for).  Memory is O(explicit
    overrides + boundaries), independent of node count.

    The resolver must be deterministic and picklable (a module-level
    function or an instance of a module-level class, not a lambda).
    """

    def __init__(self, regions: int,
                 resolver: Callable[[str], int | None]) -> None:
        super().__init__(regions)
        self._resolver = resolver

    def region_of(self, node: str) -> int:
        explicit = self._node_region.get(node)
        if explicit is not None:
            return explicit
        region = self._resolver(node)
        if region is None:
            raise NetworkError(
                f"node {node!r} not assigned to any region")
        if not 0 <= region < self.regions:
            raise NetworkError(
                f"resolver mapped {node!r} to region {region}, out of "
                f"range 0..{self.regions - 1}")
        return region

    def nodes_in(self, region: int) -> list[str]:
        """Only the *explicitly* assigned nodes: a formula-backed
        partition cannot enumerate its full population."""
        return super().nodes_in(region)

    def validate(self) -> None:
        """Check boundary connectivity only; population is the
        resolver's contract (it cannot be enumerated here)."""
        if self.regions > 1:
            self._build_next_hops()
            for src in range(self.regions):
                for dst in range(self.regions):
                    if src != dst and (src, dst) not in (self._next_hop or {}):
                        raise NetworkError(
                            f"region {dst} unreachable from region {src}")


def _dijkstra(adjacency: list[dict[int, Boundary]],
              source: int) -> dict[int, tuple[float, int]]:
    """Region -> (distance, first region after ``source``) for every
    other region reachable from ``source``.

    Equal-length routes resolve as a FIFO heap does: a region keeps the
    route that first reached it, and labels are settled in push order.
    """
    settled: dict[int, tuple[float, int]] = {}
    seen = {source: 0.0}
    heap = [(0.0, 0, source, source)]
    pushes = 1
    while heap:
        length, _, region, first = heappop(heap)
        if region in settled:
            continue
        settled[region] = (length, first)
        for neighbour, boundary in adjacency[region].items():
            candidate = length + boundary.latency
            if neighbour not in settled and (
                    neighbour not in seen or candidate < seen[neighbour]):
                seen[neighbour] = candidate
                heappush(heap, (candidate, pushes, neighbour,
                                neighbour if region == source else first))
                pushes += 1
    del settled[source]
    return settled


class RegionNetwork(Network):
    """One region's shard of a partitioned topology.

    Local traffic behaves exactly like a plain :class:`Network`.  A
    message addressed to a remote node travels the local topology to the
    boundary gateway, pays the boundary link (queueing + transmission +
    propagation, with deterministic loss from this region's seeded rng),
    and is appended to :attr:`outbox` as one plain tuple::

        ("msg", origin_region, to_region, entry_node, arrival_time, seq,
         source, destination, endpoint, payload, size, headers, sent_at,
         origin_msg_id)

    The coordinator moves outbox tuples across process pipes and the
    destination region's :meth:`ingress` continues delivery at
    ``arrival_time``.  ``seq`` is the tuple's position in this region's
    outbox for the round — part of the deterministic merge order.
    """

    def __init__(self, sim: Simulator, partition: Partition, region: int,
                 seed: int = 0) -> None:
        super().__init__(sim, seed=seed)
        self.partition = partition
        self.region = region
        #: Cross-region tuples produced since last drained (plain data).
        self.outbox: list[tuple] = []
        self.forwarded_out = 0
        self.ingressed = 0
        self._outbox_seq = 0
        #: Messages currently travelling the cross path inside this
        #: region (sent remote or transiting), not yet egressed/dropped.
        self.cross_in_flight = 0
        # Declared cross-send schedule (sorted absolute times) for the
        # sharper egress-floor promise; None = no declaration.
        self._cross_times: list[float] | None = None
        self._cross_idx = 0

    # -- egress-floor promise ----------------------------------------------

    def declare_cross_sends(self, times: Iterable[float]) -> None:
        """Declare the absolute times at which this region's *workload*
        will originate cross-region sends.

        Opt-in sharpening of :meth:`egress_floor`: a scenario whose
        handlers never emit undeclared cross-region traffic (replies,
        retries) can promise the coordinator that no boundary egress will
        happen before the next declared send — even while millions of
        purely local events are pending.  Declaring and then cross-sending
        off-schedule would let remote regions run past a message's
        arrival, so the contract is on the scenario builder.
        """
        incoming = sorted(times)
        if self._cross_times is None:
            self._cross_times = incoming
        else:
            pending = self._cross_times[self._cross_idx:]
            for when in incoming:
                insort(pending, when)
            self._cross_times = pending
            self._cross_idx = 0

    def egress_floor(self) -> float:
        """Earliest simulated time this region could still produce a
        boundary egress, given only its current internal state
        (``math.inf`` when it provably cannot).

        Without a declared cross-send schedule the floor is the next
        pending event's time — sound for arbitrary handlers, since any
        egress happens inside an event.  With a declaration the floor is
        the earlier of the next declared send and — only while a cross
        message is already in flight inside the region — the next event
        time; pending *local* events no longer pin the floor, which is
        what lets adaptive lookahead widen horizons far past the per-hop
        event cadence.

        Future injections from other regions are deliberately excluded:
        the coordinator bounds those with its own held-tuple and
        region-distance terms.
        """
        if self._cross_times is None:
            return self.sim.next_event_time()
        now = self.sim.now
        times = self._cross_times
        idx = bisect_left(times, now, self._cross_idx)
        self._cross_idx = idx
        floor = times[idx] if idx < len(times) else math.inf
        if self.cross_in_flight:
            floor = min(floor, self.sim.next_event_time())
        return floor

    # -- topology guard ----------------------------------------------------

    def add_node(self, name: str, capacity: float = 100.0,
                 region: str = "default") -> Any:
        owner = self.partition.region_of(name)
        if owner != self.region:
            raise NetworkError(
                f"node {name!r} belongs to region {owner}, not {self.region}")
        return super().add_node(name, capacity=capacity, region=region)

    # -- sending -----------------------------------------------------------

    def send(self, message: Message) -> None:
        """Local destinations delegate to :class:`Network`; remote ones
        take the boundary path."""
        if self.partition.region_of(message.destination) == self.region:
            super().send(message)
            return
        message.sent_at = self.sim.now
        self.stats.sent += 1
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled \
                and tracer.sample("net.msg"):
            message.trace_span = tracer.begin_flow(
                "net.msg",
                f"{message.source}->{message.destination}/{message.endpoint}",
                msg_id=message.msg_id, size=message.size,
            )
        self._notify("send", message)
        source = self.nodes.get(message.source)
        if source is None or not source.up:
            self._drop(message, "node_down")
            return
        self.in_flight += 1
        self.cross_in_flight += 1
        self._cross_forward(message, message.source)

    # -- boundary path -----------------------------------------------------

    def _cross_forward(self, message: Message, position: str) -> None:
        """Route ``message`` from ``position`` to the boundary gateway
        toward its destination's region, then egress."""
        dst_region = self.partition.region_of(message.destination)
        try:
            boundary = self.partition.next_hop(self.region, dst_region)
        except NetworkError:
            self.in_flight -= 1
            self.cross_in_flight -= 1
            self._drop(message, "no_route")
            return
        gateway = boundary.gateway(self.region)
        if position == gateway:
            self._egress(message, boundary)
            return
        try:
            path = self.route(position, gateway)
        except NetworkError:
            self.in_flight -= 1
            self.cross_in_flight -= 1
            self._drop(message, "no_route")
            return
        self._forward_leg(message, path, 0, boundary)

    def _forward_leg(self, message: Message, path: list[str],
                     hop_index: int, boundary: Boundary) -> None:
        """Advance one hop toward the gateway; egress on arrival there.

        Mirrors :meth:`Network._forward` (queueing behind earlier traffic
        in the link direction, transmission, propagation, loss) but the
        leg's terminus is the boundary gateway, not a local endpoint.
        """
        if hop_index >= len(path) - 1:
            self._egress(message, boundary)
            return
        here, there = path[hop_index], path[hop_index + 1]
        try:
            link = self.link_between(here, there)
            link.transfer_time(message.size)  # validates the link is up
        except LinkDownError:
            self.in_flight -= 1
            self.cross_in_flight -= 1
            self._drop(message, "link_down")
            return
        if link.loss and self.rng.random() < link.loss:
            link.dropped_messages += 1
            self.in_flight -= 1
            self.cross_in_flight -= 1
            self._drop(message, "loss")
            return
        size = message.size
        link.transferred_messages += 1
        link.transferred_bytes += size
        transmitter = (link.key, here)
        now = self.sim.now
        free_at = self._transmitter_free_at
        start = max(now, free_at.get(transmitter, 0.0))
        transmission = size / link.bandwidth
        free_at[transmitter] = start + transmission
        delay = (start - now) + transmission + link.latency
        span = message.trace_span
        if span is not None:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "net.hop", f"{here}->{there}", now, now + delay,
                    parent_id=span.span_id,
                    msg_id=message.msg_id,
                    queued=round(start - now, 9),
                    transmission=round(transmission, 9),
                    propagation=link.latency,
                )
        self.sim.schedule(self._forward_leg, message, path, hop_index + 1,
                          boundary, delay=delay)

    def _egress(self, message: Message, boundary: Boundary) -> None:
        """Pay the boundary link and append the pipe tuple to the outbox."""
        gateway = boundary.gateway(self.region)
        to_region, entry_node = boundary.peer(self.region)
        if boundary.loss and self.rng.random() < boundary.loss:
            self.in_flight -= 1
            self.cross_in_flight -= 1
            self._drop(message, "loss")
            return
        now = self.sim.now
        key = ((gateway, entry_node) if gateway <= entry_node
               else (entry_node, gateway))
        transmitter = (key, gateway)
        free_at = self._transmitter_free_at
        start = max(now, free_at.get(transmitter, 0.0))
        transmission = message.size / boundary.bandwidth
        free_at[transmitter] = start + transmission
        arrival = start + transmission + boundary.latency
        span = message.trace_span
        if span is not None:
            message.trace_span = None
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "net.hop", f"{gateway}->{entry_node}", now, arrival,
                    parent_id=span.span_id,
                    msg_id=message.msg_id,
                    queued=round(start - now, 9),
                    transmission=round(transmission, 9),
                    propagation=boundary.latency,
                )
                tracer.end_flow(span, outcome=f"egress:r{to_region}")
        seq = self._outbox_seq
        self._outbox_seq = seq + 1
        origin = message.headers.get("x-origin",
                                     (self.region, message.msg_id))
        self.outbox.append((
            "msg", self.region, to_region, entry_node, arrival, seq,
            message.source, message.destination, message.endpoint,
            message.payload, message.size, dict(message.headers),
            message.sent_at, origin,
        ))
        self.forwarded_out += 1
        self.in_flight -= 1
        self.cross_in_flight -= 1
        self._notify(f"egress:r{to_region}", message)

    # -- receiving ---------------------------------------------------------

    def ingress(self, record: tuple) -> None:
        """Continue delivery of an inbound boundary tuple.

        Must run *at* the tuple's arrival time (the worker schedules it
        there); the message re-materializes on this region's side of the
        boundary and either delivers locally or takes the next boundary.
        """
        (_, origin_region, to_region, entry_node, _arrival, _seq,
         source, destination, endpoint, payload, size, headers,
         sent_at, origin) = record
        if to_region != self.region:
            raise NetworkError(
                f"region {self.region} received a tuple for region "
                f"{to_region}")
        message = Message(source=source, destination=destination,
                          endpoint=endpoint, payload=payload, size=size,
                          headers=dict(headers))
        message.sent_at = sent_at
        message.headers["x-origin"] = tuple(origin)
        self.ingressed += 1
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled \
                and tracer.sample("net.msg"):
            message.trace_span = tracer.begin_flow(
                "net.msg",
                f"{source}->{destination}/{endpoint}@r{self.region}",
                msg_id=message.msg_id, size=size,
                origin=f"r{origin[0]}#{origin[1]}",
            )
        self._notify("ingress", message)
        if self.partition.region_of(destination) != self.region:
            self.in_flight += 1
            self.cross_in_flight += 1
            self._cross_forward(message, entry_node)
            return
        self.in_flight += 1
        if entry_node == destination:
            self._arrive(message)
            return
        try:
            path = self.route(entry_node, destination)
        except NetworkError:
            self.in_flight -= 1
            self._drop(message, "no_route")
            return
        self._forward(message, path, 0)
