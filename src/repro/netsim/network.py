"""The simulated network: nodes, links, routing and delivery.

:class:`Network` owns the topology and moves :class:`Message` objects
between nodes over multi-hop shortest-latency routes.  Delivery takes
simulated time (per-hop propagation + transmission) and may fail (link
loss, node crash); the upper layers observe exactly what a real
distributed system would: delay, loss and unreachability.
"""

from __future__ import annotations

import random
import sys
from array import array
from heapq import heappop, heappush
from typing import Callable, Iterable

from repro.errors import LinkDownError, NetworkError, NodeDownError
from repro.events import Simulator
from repro.netsim.link import Link
from repro.netsim.message import Message
from repro.netsim.node import Node

_INF = float("inf")
#: Shortest-path trees kept per network; the least recently used tree
#: beyond this is evicted, so tree columns never hold more than
#: ``_MAX_TREES`` entries per node.
_MAX_TREES = 64


class NetworkStats:
    """Aggregate counters for one network instance."""

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.dropped_loss = 0
        self.dropped_link_down = 0
        self.dropped_node_down = 0
        self.dropped_no_route = 0
        self.total_latency = 0.0
        self.total_bytes = 0

    @property
    def dropped(self) -> int:
        return (
            self.dropped_loss
            + self.dropped_link_down
            + self.dropped_node_down
            + self.dropped_no_route
        )

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.delivered if self.delivered else 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "mean_latency": self.mean_latency,
            "total_bytes": self.total_bytes,
        }


class Network:
    """A topology of nodes and links with latency-aware routing.

    Routes are shortest paths by current link latency.  Routing state is
    brought up to date lazily, on the first lookup after the topology or
    link states change: shortest-path trees already built are repaired
    in place rather than thrown away (see DESIGN.md, "Routing").
    """

    def __init__(self, sim: Simulator, seed: int = 0) -> None:
        self.sim = sim
        self.rng = random.Random(seed)
        self.nodes: dict[str, Node] = {}
        self.links: dict[tuple[str, str], Link] = {}
        self.stats = NetworkStats()
        self._graph_dirty = True
        # Router: nodes get integer ids; ``_adj[id]`` maps neighbour id
        # to latency over the links that were live at the last repair,
        # and ``_live`` is that snapshot (link key -> latency).
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        self._adj: list[dict[int, float]] = []
        self._live: dict[tuple[str, str], float] = {}
        # One shortest-path tree per root, as ``(dist, parent)`` columns
        # indexed by node id (parent -1: root or unreached), in
        # least-recently-used order.
        self._trees: dict[int, tuple[array, array]] = {}
        #: Trees built from scratch (repairs do not count).
        self.tree_builds = 0
        # Shortest-path cache, cleared with every repair: message
        # delivery is a per-event caller, so repeated sends between the
        # same pair must not even walk a tree.  ``None`` caches a
        # negative result (no route) until the topology changes.
        self._route_cache: dict[tuple[str, str], list[str] | None] = {}
        # Path intern table: distinct (source, destination) pairs whose
        # shortest paths coincide (every leaf->hub route in a star, the
        # shared trunk of a datacenter) cache ONE list object, so the
        # route cache grows with unique paths, not unique pairs.
        self._path_intern: dict[tuple[str, ...], list[str]] = {}
        self.in_flight = 0
        # Per-direction transmitter occupancy: concurrent messages on the
        # same link direction serialize behind each other (full-duplex
        # links: the two directions are independent transmitters).
        self._transmitter_free_at: dict[tuple[tuple[str, str], str], float] = {}
        #: Observers called as fn(event_name, message) on send/deliver/drop.
        self.taps: list[Callable[[str, Message], None]] = []

    # -- topology -----------------------------------------------------------

    def add_node(
        self, name: str, capacity: float = 100.0, region: str = "default"
    ) -> Node:
        """Create and register a node."""
        if name in self.nodes:
            raise NetworkError(f"node {name!r} already exists")
        # Interned names: node names recur as dict keys, link endpoints,
        # route entries and message addresses; one string object each.
        name = sys.intern(name)
        node = Node(name, self.sim, capacity=capacity, region=region)
        self.nodes[name] = node
        self._index[name] = len(self._names)
        self._names.append(name)
        self._adj.append({})
        self._graph_dirty = True
        return node

    def add_link(
        self,
        a: str,
        b: str,
        latency: float = 0.001,
        bandwidth: float = 1_000_000.0,
        loss: float = 0.0,
    ) -> Link:
        """Create and register a bidirectional link between two nodes."""
        for name in (a, b):
            if name not in self.nodes:
                raise NetworkError(f"cannot link unknown node {name!r}")
        if a == b:
            raise NetworkError(f"cannot link node {a!r} to itself")
        link = Link(a, b, latency=latency, bandwidth=bandwidth, loss=loss)
        if link.key in self.links:
            raise NetworkError(f"link {link.key} already exists")
        self.links[link.key] = link
        link.network = self
        self._graph_dirty = True
        return link

    def remove_link(self, a: str, b: str) -> Link:
        """Remove the a-b link from the topology.

        Unlike a failure (:meth:`Link.fail`), the link is gone for good;
        routes through it are recomputed on the next lookup.
        """
        key = (a, b) if a <= b else (b, a)
        try:
            link = self.links.pop(key)
        except KeyError:
            raise LinkDownError(f"no link between {a!r} and {b!r}") from None
        link.network = None
        self._graph_dirty = True
        return link

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def link_between(self, a: str, b: str) -> Link:
        key = (a, b) if a <= b else (b, a)
        try:
            return self.links[key]
        except KeyError:
            raise LinkDownError(f"no link between {a!r} and {b!r}") from None

    def invalidate_routes(self) -> None:
        """Force route recomputation (call after link failures/repairs)."""
        self._graph_dirty = True

    # -- routing ------------------------------------------------------------

    def _rebuild_graph(self) -> None:
        """Bring routing up to date: the once-per-dirty-epoch repair step.

        Diffs the live links (link up, both ends up) against the last
        snapshot.  Removed links, and links whose latency rose, cut the
        subtree below them out of every tree that used them; the cut
        nodes are re-reached by Dijkstra from the cut's boundary.  Added
        links, and links whose latency fell, propagate the improvement
        from the endpoint that got closer.  Trees a change does not touch
        are kept as they are.
        """
        nodes = self.nodes
        live = {
            key: link.latency
            for key, link in self.links.items()
            if link.up and nodes[link.a].up and nodes[link.b].up
        }
        old = self._live
        index = self._index
        adj = self._adj
        trees = self._trees
        size = len(self._names)
        for dist, parent in trees.values():
            if len(dist) < size:
                grow = size - len(dist)
                dist.extend(array("d", [_INF]) * grow)
                parent.extend(array("i", [-1]) * grow)
        cut = []
        for key, latency in old.items():
            now = live.get(key)
            if now is None or now > latency:
                a, b = index[key[0]], index[key[1]]
                del adj[a][b], adj[b][a]
                cut.append((a, b))
        if cut:
            for dist, parent in trees.values():
                self._repair_cut(dist, parent, cut)
        joined = []
        for key, latency in live.items():
            if old.get(key) != latency:
                a, b = index[key[0]], index[key[1]]
                adj[a][b] = adj[b][a] = latency
                joined.append((a, b, latency))
        if joined:
            for dist, parent in trees.values():
                self._repair_join(dist, parent, joined)
        self._live = live
        self._graph_dirty = False
        self._route_cache.clear()
        self._path_intern.clear()

    def _repair_cut(self, dist: array, parent: array,
                    cut: list[tuple[int, int]]) -> None:
        """Re-reach the subtrees hanging below the removed tree edges."""
        subtree = [
            b if parent[b] == a else a
            for a, b in cut
            if parent[b] == a or parent[a] == b
        ]
        if not subtree:
            return
        adj = self._adj
        for v in subtree:
            dist[v] = _INF
        # The cut subtrees, root to leaves: a child keeps its tree edge
        # (removed edges made their child a cut root above).
        for v in subtree:
            for w in adj[v]:
                if parent[w] == v:
                    dist[w] = _INF
                    subtree.append(w)
        heap = []
        for v in subtree:
            parent[v] = -1
            best = _INF
            for u, latency in adj[v].items():
                candidate = dist[u] + latency
                if candidate < best:
                    best = candidate
                    parent[v] = u
            if best < _INF:
                dist[v] = best
                heappush(heap, (best, v))
        self._settle(dist, parent, heap)

    def _repair_join(self, dist: array, parent: array,
                     joined: list[tuple[int, int, float]]) -> None:
        """Propagate the improvements that added or faster links bring."""
        heap = []
        for a, b, latency in joined:
            for near, far in ((a, b), (b, a)):
                candidate = dist[near] + latency
                if candidate < dist[far]:
                    dist[far] = candidate
                    parent[far] = near
                    heappush(heap, (candidate, far))
        self._settle(dist, parent, heap)

    def _settle(self, dist: array, parent: array, heap: list) -> None:
        """Dijkstra from the labels on ``heap`` over the live adjacency."""
        adj = self._adj
        while heap:
            d, v = heappop(heap)
            if d > dist[v]:
                continue
            for w, latency in adj[v].items():
                candidate = d + latency
                if candidate < dist[w]:
                    dist[w] = candidate
                    parent[w] = v
                    # A leaf's one neighbour is v: it has nothing to relax.
                    if len(adj[w]) > 1:
                        heappush(heap, (candidate, w))

    def _build_tree(self, root: int) -> tuple[array, array]:
        trees = self._trees
        while len(trees) >= _MAX_TREES:
            del trees[next(iter(trees))]
        size = len(self._names)
        dist = array("d", [_INF]) * size
        parent = array("i", [-1]) * size
        dist[root] = 0.0
        self._settle(dist, parent, [(0.0, root)])
        self.tree_builds += 1
        return dist, parent

    def _shortest_path(self, source: str, destination: str) -> list[str] | None:
        """Read a shortest path off the tree rooted at either end.

        A tree rooted at ``destination`` is walked from ``source``; one
        rooted at ``source`` is walked from ``destination`` and the walk
        reversed.  With neither, a tree is built at ``destination``.
        """
        index = self._index
        s = index.get(source)
        d = index.get(destination)
        if s is None or d is None:
            return None
        trees = self._trees
        root, start = (s, d) if s in trees and d not in trees else (d, s)
        tree = trees.pop(root, None)
        if tree is None:
            tree = self._build_tree(root)
        trees[root] = tree  # most recently used
        dist, parent = tree
        if dist[start] == _INF:
            return None
        names = self._names
        path = [names[start]]
        v = start
        while v != root:
            v = parent[v]
            path.append(names[v])
        if root == s:
            path.reverse()
        return path

    def route(self, source: str, destination: str) -> list[str]:
        """Shortest-latency node path, inclusive of both ends.

        Paths are cached until the topology or link states change.
        Raises :class:`NetworkError` when no route exists.
        """
        if self._graph_dirty:
            self._rebuild_graph()
        if source == destination:
            return [source]
        key = (source, destination)
        cache = self._route_cache
        path = cache.get(key, False)
        if path is False:
            path = self._shortest_path(source, destination)
            if path is not None:
                path = self._path_intern.setdefault(tuple(path), path)
            cache[key] = path
        if path is None:
            raise NetworkError(
                f"no route from {source!r} to {destination!r}"
            )
        return path

    # -- delivery -----------------------------------------------------------

    def send(self, message: Message) -> None:
        """Inject a message; it is delivered (or dropped) asynchronously."""
        message.sent_at = self.sim.now
        self.stats.sent += 1
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled \
                and tracer.sample("net.msg"):
            # Message lineage root: hops attach as children, so an
            # end-to-end latency decomposes into per-link segments.  The
            # head decision comes first so an unsampled message never
            # pays for the name or the args dict.
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
        try:
            path = self.route(message.source, message.destination)
        except NetworkError:
            self._drop(message, "no_route")
            return
        self.in_flight += 1
        self._forward(message, path, hop_index=0)

    def _forward(self, message: Message, path: list[str], hop_index: int) -> None:
        """Advance a message one hop along its precomputed path."""
        if hop_index >= len(path) - 1:
            self._arrive(message)
            return
        here, there = path[hop_index], path[hop_index + 1]
        try:
            link = self.link_between(here, there)
            link.transfer_time(message.size)  # validates the link is up
        except LinkDownError:
            self.in_flight -= 1
            self._drop(message, "link_down")
            return
        if link.loss and self.rng.random() < link.loss:
            link.dropped_messages += 1
            self.in_flight -= 1
            self._drop(message, "loss")
            return
        size = message.size
        link.transferred_messages += 1
        link.transferred_bytes += size
        # Serialize behind earlier traffic in this direction, then pay
        # transmission + propagation.
        transmitter = (link.key, here)
        now = self.sim.now
        free_at = self._transmitter_free_at
        start = max(now, free_at.get(transmitter, 0.0))
        transmission = size / link.bandwidth
        free_at[transmitter] = start + transmission
        delay = (start - now) + transmission + link.latency
        span = message.trace_span
        if span is not None:
            # The hop's in-flight window is fully known here: queueing
            # behind earlier traffic, then transmission, then propagation.
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
        self.sim.schedule(self._forward, message, path, hop_index + 1, delay=delay)

    def _arrive(self, message: Message) -> None:
        self.in_flight -= 1
        node = self.nodes.get(message.destination)
        if node is None or not node.up:
            self._drop(message, "node_down")
            return
        self.stats.delivered += 1
        self.stats.total_latency += self.sim.now - message.sent_at
        self.stats.total_bytes += message.size
        self._notify("deliver", message)
        try:
            node.deliver(message)
        except NodeDownError:
            # Node crashed between the liveness check and delivery.
            self.stats.delivered -= 1
            self._drop(message, "node_down")
            return
        span = message.trace_span
        if span is not None:
            message.trace_span = None
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.end_flow(
                    span, outcome="delivered",
                    latency=round(self.sim.now - message.sent_at, 9),
                )

    def _drop(self, message: Message, reason: str) -> None:
        counter = f"dropped_{reason}"
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        span = message.trace_span
        if span is not None:
            message.trace_span = None
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.end_flow(span, outcome=f"drop:{reason}")
                tracer.count(f"net.{counter}")
        self._notify(f"drop:{reason}", message)

    def _notify(self, event: str, message: Message) -> None:
        if not self.taps:
            return
        for tap in self.taps:
            tap(event, message)

    # -- convenience --------------------------------------------------------

    def live_nodes(self) -> Iterable[Node]:
        return [node for node in self.nodes.values() if node.up]

    def utilisation_map(self) -> dict[str, float]:
        """Current utilisation per live node — the RAML observation feed."""
        return {name: n.utilisation for name, n in self.nodes.items() if n.up}
