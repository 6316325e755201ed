"""A small directed graph and the few algorithms the platform runs on it.

The structural views (:meth:`Assembly.architecture_graph`, the rule
calling graph, meta-object ordering constraints) are graphs of tens of
nodes; they need insertion-ordered nodes and edges with attributes, a
cycle search, reachability and a topological sort — nothing more.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Hashable, Iterator


class DiGraph:
    """Directed graph with attribute dicts on nodes and edges.

    ``nodes`` maps node -> attributes and ``edges`` maps ``(u, v)`` ->
    attributes, both in insertion order, so ``set(graph.nodes)``,
    ``set(graph.edges)`` and ``graph.edges[u, v]["kind"]`` read as they
    do on a networkx ``DiGraph``.  Adding an existing node or edge
    updates its attributes.
    """

    def __init__(self) -> None:
        self.nodes: dict[Hashable, dict[str, Any]] = {}
        self.edges: dict[tuple[Hashable, Hashable], dict[str, Any]] = {}
        self._succ: dict[Hashable, list[Hashable]] = {}

    def add_node(self, node: Hashable, /, **attrs: Any) -> None:
        if node in self.nodes:
            self.nodes[node].update(attrs)
        else:
            self.nodes[node] = attrs
            self._succ[node] = []

    def add_edge(self, u: Hashable, v: Hashable, /, **attrs: Any) -> None:
        for node in (u, v):
            if node not in self.nodes:
                self.add_node(node)
        data = self.edges.get((u, v))
        if data is None:
            self.edges[u, v] = attrs
            self._succ[u].append(v)
        else:
            data.update(attrs)

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return (u, v) in self.edges

    def successors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self._succ[node])


def find_cycle(graph: DiGraph) -> list[tuple[Hashable, Hashable]] | None:
    """The first cycle a depth-first search meets, as a list of edges.

    Starts from each node in insertion order and follows edges in
    insertion order; the cycle begins at the node the closing edge
    returns to.  ``None`` when the graph is acyclic.
    """
    finished: set[Hashable] = set()
    for start in graph.nodes:
        if start in finished:
            continue
        path = [start]
        on_path = {start: 0}
        pending = [graph.successors(start)]
        while pending:
            for head in pending[-1]:
                if head in on_path:
                    loop = path[on_path[head]:]
                    return list(zip(loop, loop[1:])) + [(path[-1], head)]
                if head not in finished:
                    on_path[head] = len(path)
                    path.append(head)
                    pending.append(graph.successors(head))
                    break
            else:
                pending.pop()
                done = path.pop()
                del on_path[done]
                finished.add(done)
    return None


def descendants(graph: DiGraph, source: Hashable) -> set[Hashable]:
    """Every node reachable from ``source`` by a non-empty path."""
    seen: set[Hashable] = set()
    stack = [source]
    while stack:
        for node in graph.successors(stack.pop()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen


def lexicographic_topological_sort(
    graph: DiGraph, key: Callable[[Hashable], Any]
) -> list[Hashable]:
    """Topological order that always emits the ready node of least key.

    Ties on ``key`` fall back to insertion order.  The graph must be
    acyclic (check with :func:`find_cycle` first).
    """
    position = {node: i for i, node in enumerate(graph.nodes)}
    indegree = dict.fromkeys(graph.nodes, 0)
    for _u, v in graph.edges:
        indegree[v] += 1
    ready = [(key(node), position[node], node)
             for node, degree in indegree.items() if degree == 0]
    heapify(ready)
    order = []
    while ready:
        _, _, node = heappop(ready)
        order.append(node)
        for child in graph.successors(node):
            indegree[child] -= 1
            if indegree[child] == 0:
                heappush(ready, (key(child), position[child], child))
    return order
