"""Introspection records: immutable tuples, fanned out as appended."""

import pytest

from repro.core import IntrospectionHub, ObservationEvent
from repro.core.raml import Raml
from repro.events import Simulator
from repro.kernel import Assembly
from repro.netsim import star

from tests.helpers import CounterComponent, counter_interface


def counter(name):
    component = CounterComponent(name)
    component.provide("svc", counter_interface())
    return component


class TestObservationEvent:
    def test_fields_and_defaults(self):
        assert ObservationEvent._fields == (
            "time", "source", "kind", "operation", "details")
        event = ObservationEvent(1.5, "network", "drop:loss")
        assert event.operation == ""
        assert event.details == ()

    def test_immutable_and_hashable(self):
        event = ObservationEvent(0.0, "registry", "register", "server")
        with pytest.raises(AttributeError):
            event.kind = "unregister"  # type: ignore[misc]
        assert hash(event) == hash(
            ObservationEvent(0.0, "registry", "register", "server"))
        assert len({event, ObservationEvent(0.0, "registry", "register",
                                            "server")}) == 1

    def test_emit_builds_the_record(self):
        sim = Simulator()
        hub = IntrospectionHub(sim)
        sim.schedule(lambda: hub.emit("src", "call", "op", ("a",)), delay=2.0)
        sim.run()
        [event] = hub.events
        assert type(event) is ObservationEvent
        assert event == ObservationEvent(2.0, "src", "call", "op", ("a",))


class TestFanOut:
    def test_subscribers_receive_the_appended_object(self):
        hub = IntrospectionHub(Simulator())
        seen = []
        hub.subscribe(seen.append)
        hub.emit("src", "call")
        assert seen[0] is hub.events[-1]

    def test_subscriber_added_mid_fan_out_sees_later_events_only(self):
        hub = IntrospectionHub(Simulator())
        late = []

        def first(event):
            if not late and event.operation == "one":
                hub.subscribe(late.append)

        hub.subscribe(first)
        hub.emit("src", "call", "one")
        hub.emit("src", "call", "two")
        assert [event.operation for event in late] == ["two"]

    def test_counts_order_and_bound(self):
        hub = IntrospectionHub(Simulator(), buffer_size=4)
        for index in range(6):
            hub.emit("src", "tick" if index % 2 else "tock", str(index))
        assert hub.counts == {"tick": 3, "tock": 3}
        assert [event.operation for event in hub.recent(3)] == ["3", "4", "5"]
        assert len(hub.events) == 4


def test_raml_observed_events_unchanged():
    """A fixed scenario observes the same number of events as before the
    records became tuples."""
    sim = Simulator()
    assembly = Assembly(star(sim, leaves=3))
    client = counter("client")
    client.require("peer", counter_interface())
    assembly.deploy(client, "leaf0")
    assembly.deploy(counter("server"), "leaf1")
    assembly.connect("client", "peer", target_component="server")
    raml = Raml(assembly, period=1.0).instrument()
    raml.start()
    for step in range(5):
        sim.at(lambda: client.required_port("peer").call("increment", 1),
               when=0.5 + step)
    sim.at(lambda: assembly.deploy(counter("extra"), "leaf2"), when=2.2)
    sim.at(lambda: assembly.undeploy("extra"), when=3.3)
    sim.run(until=6.0)
    raml.stop()
    health = raml.health()
    assert health["observed_events"] == len(raml.hub.events) == 17
