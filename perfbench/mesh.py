"""mesh-steady: a closed loop of ORB clients against intercepted services.

Forty-eight client components each keep one ORB request outstanding
(through a :class:`~repro.middleware.RemoteProxy`) and think between
requests.  The requests go to four services on a 12-host datacenter.
Each service's front port carries a composition :class:`FilterSet`, a
dynamically woven aspect and a :class:`MetaChain`, and forwards through
a round-robin :class:`LoadBalancerConnector` to three backend replicas.
RAML sweeps a latency contract and the structural-consistency
constraint; no fault is injected, so nothing reconfigures.

Why: the per-invocation layers (kernel, connectors, filters, aspects,
metaobjects, middleware, events) do most of the host work, while the
route cache stays warm and core/reconfig/durability stay idle.
"""

from __future__ import annotations

import random

from repro.aspects import Aspect, Weaver
from repro.connectors import LoadBalancerConnector
from repro.core import Raml, structural_consistency
from repro.events import Simulator
from repro.filters import FilterSet, PassFilter, TransformFilter, match
from repro.kernel import Assembly, Component, Interface, Operation
from repro.metaobjects import MetaChain, MetaObject
from repro.middleware import Orb, RemoteProxy, metrics_recorder
from repro.netsim import datacenter
from repro.qos import QosContract
from repro.qos.contract import Statistic
from repro.workloads import NodeLoadDriver, random_walk

from perfbench.common import Scenario

LOOKUP = Interface("Lookup", "1.0", [Operation("lookup", ("key",))])

THINK_MEAN = 0.02
KEY_SPACE = 1 << 20


def expected(service: int, key: int) -> int:
    """The value every replica of ``service`` returns for ``key``."""
    return (key * 2654435761 + service * 97) % 1_000_003


class Backend(Component):
    def __init__(self, name: str, service: int) -> None:
        super().__init__(name)
        self.service = service

    def on_initialize(self) -> None:
        self.state.setdefault("served", 0)

    def lookup(self, key):
        self.state["served"] += 1
        return expected(self.service, key)


class Front(Component):
    def lookup(self, key):
        return self.required_port("backend").call("lookup", key)


def _tag(invocation):
    invocation.meta["admitted"] = True
    return invocation


def _meter(invocation) -> None:
    invocation.meta["metered"] = True


def _audit(invocation, proceed):
    invocation.meta["audited"] = True
    return proceed(invocation)


def _stamp(invocation, proceed):
    invocation.meta["stamp"] = invocation.args[0] & 0xFF
    return proceed(invocation)


class Client(Component):
    """Closed-loop caller: one outstanding request, then think."""

    def __init__(self, name: str, scenario: "MeshSteady", rng: random.Random,
                 proxies: list[RemoteProxy]) -> None:
        super().__init__(name)
        self.scenario = scenario
        self.rng = rng
        self.proxies = proxies

    def think(self) -> None:
        self.scenario.sim.schedule(self.issue,
                                   delay=self.rng.expovariate(1 / THINK_MEAN))

    def issue(self) -> None:
        scenario = self.scenario
        if scenario.stopped:
            return
        service = self.rng.randrange(len(self.proxies))
        key = self.rng.randrange(KEY_SPACE)
        ledger, sim = scenario.ledger, scenario.sim
        due = sim.now
        ledger.issued += 1
        tag = (self.name, ledger.issued)

        def on_result(value) -> None:
            ledger.answer(sim.now, due, tag, value == expected(service, key))
            self.think()

        def on_error(exc) -> None:
            ledger.error(sim.now, due, tag, exc)
            self.think()

        self.proxies[service].call("lookup", key, on_result=on_result,
                                   on_error=on_error)


class MeshSteady(Scenario):
    name = "mesh-steady"
    warmup = 1.0
    slice = 0.25
    window_end = 9.0

    SERVICES = 4
    REPLICAS = 3
    CLIENTS = 48

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.stopped = False
        self._sim = Simulator()
        self._build(random.Random(seed))

    @property
    def sim(self) -> Simulator:
        return self._sim

    def _build(self, rng: random.Random) -> None:
        sim = self._sim
        net = datacenter(sim, racks=3, hosts_per_rack=4)
        self.network = net
        assembly = Assembly(net, name="mesh-steady")
        self.assembly = assembly
        host_names = [f"rack{r}-host{h}" for r in range(3) for h in range(4)]
        self.orbs = {name: Orb(net, name, default_timeout=1.0)
                     for name in host_names}
        service_hosts = [host_names[j * 3] for j in range(self.SERVICES)]
        client_hosts = [h for h in host_names if h not in service_hosts]

        fronts = []
        for j in range(self.SERVICES):
            host = service_hosts[j]
            front = Front(f"front{j}")
            port = front.provide("svc", LOOKUP)
            front.require("backend", LOOKUP)
            assembly.deploy(front, host)
            balancer = LoadBalancerConnector(f"lb{j}", LOOKUP)
            for r in range(self.REPLICAS):
                backend = Backend(f"backend{j}_{r}", j)
                backend.provide("svc", LOOKUP)
                assembly.deploy(backend, host)
                balancer.attach("worker", backend.provided_port("svc"))
            assembly.add_connector(balancer)
            assembly.connect(front.name, "backend",
                             target=balancer.endpoint("client"))
            FilterSet(f"filters{j}", [
                PassFilter("admit", match("lookup")),
                TransformFilter("tag", _tag, match("lookup")),
            ]).attach_to(port)
            port.add_interceptor(MetaChain(f"meta{j}", [
                MetaObject("audit", _audit, priority=2),
                MetaObject("stamp", _stamp, priority=1, modificatory=True),
            ]).interceptor())
            self.orbs[host].register(f"svc{j}", port, work_units=1.0)
            fronts.append(front)
            # Background load wanders, so service times (10 ms at idle)
            # and thus latencies spread out and differ between seeds.
            NodeLoadDriver(sim, net.node(host), random_walk(
                0.3, 0.03, 0.1, 0.5, seed=rng.getrandbits(32), dt=0.5),
                period=0.5)

        aspect = Aspect("front-metering")
        aspect.before(_meter, component="front*", operation="lookup")
        aspect.around(lambda inv, proceed: proceed(inv),
                      component="front*", operation="lookup")
        Weaver().weave(aspect, fronts, mode="dynamic")

        self.raml = Raml(assembly, period=0.5, metric_window=2.0)
        record = metrics_recorder(self.raml.metrics, sim)
        for host in client_hosts:
            self.orbs[host].qos_observers.append(record)

        self.clients = []
        for i in range(self.CLIENTS):
            host = client_hosts[i % len(client_hosts)]
            proxies = [RemoteProxy(self.orbs[host], service_hosts[j],
                                   f"svc{j}", LOOKUP, timeout=1.0)
                       for j in range(self.SERVICES)]
            client = Client(f"client{i}", self,
                            random.Random(rng.getrandbits(64)), proxies)
            assembly.deploy(client, host)
            self.clients.append(client)

        self.raml.instrument()
        self.raml.add_constraint(structural_consistency())
        self.raml.add_contract(QosContract("mesh-latency").require_max(
            "rpc.latency", 0.25, Statistic.P95))
        self.raml.start()
        for client in self.clients:
            client.think()

    def stop_load(self) -> None:
        self.stopped = True
