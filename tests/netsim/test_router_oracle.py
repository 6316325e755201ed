"""Differential tests: the tree router and the region next-hop table
against networkx, the reference implementation they replaced.

Generated graphs (random trees plus extra edges) go through generated
sequences of link failures and restores, crashes and recoveries, link
additions and removals and latency changes, with route lookups
interleaved so that trees are built early and repaired many times.
"""

import math

import hypothesis.strategies as st
import networkx as nx
import pytest
from hypothesis import given, settings

from repro.errors import NetworkError
from repro.events import Simulator
from repro.netsim import Network, Partition
from repro.parallel.scenario import lean_star_partition, star_ring_partition

LATENCIES = st.one_of(st.sampled_from([0.0, 0.001, 0.002, 0.003]),
                      st.floats(0.0, 1.0, allow_nan=False))


@st.composite
def topologies(draw, extra_edges=True):
    size = draw(st.integers(2, 9))
    edges = {}
    for child in range(1, size):
        edges[(draw(st.integers(0, child - 1)), child)] = draw(LATENCIES)
    if extra_edges:
        for _ in range(draw(st.integers(0, size))):
            a, b = sorted(draw(st.lists(st.integers(0, size - 1), min_size=2,
                                        max_size=2, unique=True)))
            edges.setdefault((a, b), draw(LATENCIES))
    return size, edges


def operations(size, tree_only=False):
    node = st.integers(0, size - 1)
    kinds = ["fail", "restore", "crash", "recover", "latency", "remove"]
    if not tree_only:
        kinds.append("add")
    return st.lists(
        st.tuples(st.sampled_from(kinds), node, node, LATENCIES,
                  st.lists(st.tuples(node, node), max_size=4)),
        max_size=25,
    )


def build(size, edges):
    net = Network(Simulator())
    for i in range(size):
        net.add_node(f"n{i}")
    for (a, b), latency in edges.items():
        net.add_link(f"n{a}", f"n{b}", latency=latency)
    return net


def apply(net, operation):
    """Apply one generated operation; returns nothing it cannot apply."""
    kind, a, b, latency, _queries = operation
    links = list(net.links.values())
    if kind in ("fail", "restore", "latency", "remove") and links:
        link = links[(a * 31 + b) % len(links)]
        if kind == "fail":
            link.fail()
        elif kind == "restore":
            link.restore()
        elif kind == "latency":
            link.set_quality(latency=latency)  # marks routes dirty itself
            return
        else:
            net.remove_link(link.a, link.b)  # marks routes dirty itself
            return
        net.invalidate_routes()
    elif kind == "crash":
        net.node(f"n{a}").crash()
        net.invalidate_routes()
    elif kind == "recover":
        net.node(f"n{a}").recover()
        net.invalidate_routes()
    elif kind == "add" and a != b:
        key = (f"n{min(a, b)}", f"n{max(a, b)}")
        if key not in net.links:
            net.add_link(*key, latency=latency)


def oracle(net):
    graph = nx.Graph()
    graph.add_nodes_from(name for name, node in net.nodes.items() if node.up)
    for link in net.links.values():
        if link.up and link.a in graph and link.b in graph:
            graph.add_edge(link.a, link.b, weight=link.latency)
    return graph


def lookup(net, source, destination):
    try:
        return net.route(source, destination)
    except NetworkError:
        return None


def check_route(net, graph, source, destination, path):
    reachable = (source in graph and destination in graph
                 and nx.has_path(graph, source, destination))
    assert (path is not None) == reachable
    if path is None:
        return
    assert path[0] == source and path[-1] == destination
    cost = 0.0
    for here, there in zip(path, path[1:]):
        link = net.link_between(here, there)
        assert link.up
        assert net.nodes[here].up and net.nodes[there].up
        cost += link.latency
    expected = nx.shortest_path_length(graph, source, destination,
                                       weight="weight")
    assert math.isclose(cost, expected, rel_tol=1e-12, abs_tol=1e-15)


def all_pairs(size):
    return [(f"n{a}", f"n{b}") for a in range(size) for b in range(size)
            if a != b]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_router_matches_networkx_oracle(data):
    size, edges = data.draw(topologies())
    steps = data.draw(operations(size))
    net, twin = build(size, edges), build(size, edges)
    for step in steps:
        apply(net, step)
        apply(twin, step)
        graph = oracle(net)
        for a, b in step[4]:
            if a == b:
                continue
            source, destination = f"n{a}", f"n{b}"
            path = lookup(net, source, destination)
            check_route(net, graph, source, destination, path)
            assert lookup(twin, source, destination) == path
    graph = oracle(net)
    for source, destination in all_pairs(size):
        path = lookup(net, source, destination)
        check_route(net, graph, source, destination, path)
        assert lookup(twin, source, destination) == path


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_repaired_tree_routes_equal_fresh_routes(data):
    # Forests have one path per pair, so the route is fully determined:
    # repairs must land exactly where a network built in the final
    # state does (this covers the datacenter and star topologies).
    size, edges = data.draw(topologies(extra_edges=False))
    steps = data.draw(operations(size, tree_only=True))
    net = build(size, edges)
    for step in steps:
        apply(net, step)
        for a, b in step[4]:
            if a != b:
                lookup(net, f"n{a}", f"n{b}")
    fresh = Network(Simulator())
    for name, node in net.nodes.items():
        fresh.add_node(name)
        if not node.up:
            fresh.node(name).crash()
    for link in net.links.values():
        copy = fresh.add_link(link.a, link.b, latency=link.latency)
        if not link.up:
            copy.fail()
    for source, destination in all_pairs(size):
        assert lookup(net, source, destination) == \
            lookup(fresh, source, destination)


# -- region next-hop tables --------------------------------------------------

def networkx_next_hops(partition):
    """The table as it was built with networkx all-pairs Dijkstra."""
    graph = nx.Graph()
    graph.add_nodes_from(range(partition.regions))
    best = {}
    for boundary in partition.boundaries:
        key = (min(boundary.a_region, boundary.b_region),
               max(boundary.a_region, boundary.b_region))
        if key not in best or boundary.latency < best[key].latency:
            best[key] = boundary
    for (a, b), boundary in best.items():
        graph.add_edge(a, b, weight=boundary.latency, boundary=boundary)
    paths = dict(nx.all_pairs_dijkstra_path(graph, weight="weight"))
    lengths = dict(nx.all_pairs_dijkstra_path_length(graph, weight="weight"))
    table, distances = {}, {}
    for src, targets in paths.items():
        for dst, path in targets.items():
            if src != dst:
                table[(src, dst)] = graph.edges[path[0], path[1]]["boundary"]
                distances[(src, dst)] = lengths[src][dst]
    return table, distances


def assert_same_next_hops(partition):
    table, distances = networkx_next_hops(partition)
    for src in range(partition.regions):
        for dst in range(partition.regions):
            if src == dst:
                continue
            if (src, dst) in table:
                assert partition.next_hop(src, dst) is table[(src, dst)]
            else:
                with pytest.raises(NetworkError):
                    partition.next_hop(src, dst)
            assert partition.region_distance(src, dst) == \
                distances.get((src, dst), math.inf)


@pytest.mark.parametrize("regions", [2, 3, 4, 7])
def test_star_ring_next_hops_match_networkx(regions):
    assert_same_next_hops(star_ring_partition(regions, leaves=4))
    assert_same_next_hops(lean_star_partition(regions))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(2, 7).flatmap(lambda regions: st.tuples(
    st.just(regions),
    st.lists(st.tuples(st.integers(0, regions - 1),
                       st.integers(0, regions - 1),
                       st.sampled_from([0.1, 0.25, 0.5, 0.75])),
             max_size=3 * regions))))
def test_random_partition_next_hops_match_networkx(spec):
    # Few distinct latencies make equal-length region routes common, so
    # this also pins down which of them the table keeps.
    regions, boundaries = spec
    partition = Partition(regions)
    for region in range(regions):
        partition.assign(f"g{region}", region)
    for a, b, latency in boundaries:
        if a != b:
            partition.add_boundary(f"g{a}", f"g{b}", latency=latency)
    assert_same_next_hops(partition)
