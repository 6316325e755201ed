"""Route-cache behaviour: reuse, invalidation, no stale routes.

Covers the shortest-path cache introduced with the kernel fast-path work:
repeated sends between the same pair must not recompute Dijkstra, while
after any topology or link-state change the network must never serve a
stale path — including a cached negative (no-route) result.
"""

import pytest

from repro.errors import LinkDownError, NetworkError
from repro.events import Simulator
from repro.netsim import Message, Network, datacenter, hosts, star
from repro.netsim.network import _MAX_TREES


def triangle():
    """a-b direct (slow) plus a-c-b detour (fast)."""
    net = Network(Simulator())
    for name in ("a", "b", "c"):
        net.add_node(name)
    net.add_link("a", "b", latency=0.010)
    net.add_link("a", "c", latency=0.001)
    net.add_link("c", "b", latency=0.001)
    return net


class TestCaching:
    def test_repeated_lookups_hit_the_cache(self):
        net = triangle()
        first = net.route("a", "b")
        assert first == ["a", "c", "b"]  # detour is cheaper
        assert net._route_cache[("a", "b")] == first
        # Mutate the cached list object: a cache hit returns it as-is,
        # proving no recomputation happened.
        net._route_cache[("a", "b")].append("sentinel")
        assert net.route("a", "b")[-1] == "sentinel"

    def test_no_route_result_is_negatively_cached(self):
        net = Network(Simulator())
        net.add_node("a")
        net.add_node("b")
        with pytest.raises(NetworkError):
            net.route("a", "b")
        assert net._route_cache[("a", "b")] is None
        with pytest.raises(NetworkError):
            net.route("a", "b")

    def test_self_route_needs_no_cache(self):
        net = triangle()
        assert net.route("a", "a") == ["a"]
        assert ("a", "a") not in net._route_cache


class TestInvalidation:
    def test_add_link_recomputes_shorter_route(self):
        net = Network(Simulator())
        for name in ("a", "b", "c"):
            net.add_node(name)
        net.add_link("a", "c", latency=0.001)
        net.add_link("c", "b", latency=0.001)
        assert net.route("a", "b") == ["a", "c", "b"]
        # A new cheap direct link must win immediately — no stale detour.
        net.add_link("a", "b", latency=0.0001)
        assert net.route("a", "b") == ["a", "b"]

    def test_remove_link_recomputes_around_the_gap(self):
        net = triangle()
        assert net.route("a", "b") == ["a", "c", "b"]
        net.remove_link("a", "c")
        assert net.route("a", "b") == ["a", "b"]

    def test_remove_link_clears_negative_cache_symmetry(self):
        # Removing the only route leaves a negative entry; restoring the
        # topology must clear it again.
        net = Network(Simulator())
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "b")
        assert net.route("a", "b") == ["a", "b"]
        net.remove_link("a", "b")
        with pytest.raises(NetworkError):
            net.route("a", "b")
        net.add_link("a", "b")
        assert net.route("a", "b") == ["a", "b"]

    def test_remove_unknown_link_rejected(self):
        net = triangle()
        with pytest.raises(LinkDownError):
            net.remove_link("a", "missing")

    def test_remove_link_is_direction_agnostic(self):
        net = triangle()
        removed = net.remove_link("c", "a")  # added as (a, c)
        assert removed.key == ("a", "c")
        with pytest.raises(LinkDownError):
            net.link_between("a", "c")

    def test_link_failure_with_invalidate_reroutes(self):
        net = triangle()
        assert net.route("a", "b") == ["a", "c", "b"]
        net.link_between("a", "c").fail()
        net.invalidate_routes()
        assert net.route("a", "b") == ["a", "b"]
        net.link_between("a", "c").restore()
        net.invalidate_routes()
        assert net.route("a", "b") == ["a", "c", "b"]

    def test_latency_change_reroutes_without_explicit_invalidate(self):
        # The detour a-c-b (2 ms) beats the direct link (10 ms) until
        # a-c slows to 1 s: the latency change alone must reroute.
        net = triangle()
        assert net.route("a", "b") == ["a", "c", "b"]
        net.link_between("a", "c").set_quality(latency=1.0)
        assert net.route("a", "b") == ["a", "b"]
        assert net.route("b", "a") == ["b", "a"]
        net.link_between("a", "c").set_quality(latency=0.001)
        assert net.route("a", "b") == ["a", "c", "b"]

    def test_removed_link_no_longer_invalidates(self):
        net = triangle()
        link = net.remove_link("a", "c")
        assert net.route("a", "b") == ["a", "b"]
        link.set_quality(latency=0.0)
        assert not net._graph_dirty


class TestTreeRepair:
    """Routes are read off per-root shortest-path trees that a topology
    change repairs in place; these count builds, not time."""

    def test_host_uplink_flap_repairs_without_rebuilding(self):
        net = datacenter(Simulator(), racks=4, hosts_per_rack=4)
        names = hosts(net)
        pairs = [(a, b) for a in names[:4] for b in names[4::3]]
        before = {pair: net.route(*pair) for pair in pairs}
        builds = net.tree_builds
        assert 0 < builds <= len(pairs)

        flapped = net.link_between("rack0", "rack0-host1")
        flapped.fail()
        net.invalidate_routes()
        for a, b in pairs:
            if "rack0-host1" in (a, b):
                with pytest.raises(NetworkError):
                    net.route(a, b)
            else:
                assert net.route(a, b) == before[(a, b)]
        flapped.restore()
        net.invalidate_routes()
        assert {pair: net.route(*pair) for pair in pairs} == before
        assert net.tree_builds == builds

    def test_reverse_query_reads_the_same_tree(self):
        net = datacenter(Simulator(), racks=2, hosts_per_rack=2)
        forward = net.route("rack0-host0", "rack1-host1")
        assert net.tree_builds == 1
        assert net.route("rack1-host1", "rack0-host0") == forward[::-1]
        assert net.tree_builds == 1

    def test_node_added_after_trees_joins_them(self):
        net = triangle()
        assert net.route("a", "b") == ["a", "c", "b"]  # tree rooted at b
        net.add_node("d")
        net.add_link("c", "d", latency=0.001)
        assert net.route("d", "b") == ["d", "c", "b"]
        assert net.tree_builds == 1

    def test_least_recently_used_trees_are_evicted(self):
        net = star(Simulator(), leaves=_MAX_TREES + 8)
        leaves = [name for name in net.nodes if name != "hub"]
        for leaf in leaves:
            net.route("hub", leaf)
        assert len(net._trees) == _MAX_TREES
        assert net.tree_builds == len(leaves)
        # Trees of leaves[8:] are kept, oldest first.  Reading the
        # oldest makes it the most recent, so the next build evicts
        # leaves[9]'s tree instead.
        net.route(leaves[8], "hub")
        net.route(leaves[0], leaves[1])
        net.route(leaves[10], "hub")
        assert net.tree_builds == len(leaves) + 1
        net.route(leaves[9], "hub")
        assert net.tree_builds == len(leaves) + 2


class TestDeliveryAfterTopologyChange:
    def test_messages_follow_the_updated_route(self):
        net = triangle()
        sim = net.sim
        inbox = []
        net.node("b").bind_endpoint(
            "svc", lambda node, message: inbox.append(message.msg_id))
        net.send(Message("a", "b", "svc"))
        sim.run()
        assert len(inbox) == 1
        detour = net.link_between("a", "c")
        assert detour.transferred_messages == 1

        net.remove_link("a", "c")
        net.send(Message("a", "b", "svc"))
        sim.run()
        assert len(inbox) == 2
        # No stale route: the second message used the direct link.
        direct = net.link_between("a", "b")
        assert direct.transferred_messages == 1
