"""churn-large: roaming telecom sessions over a churning datacenter.

A 24-rack datacenter (384 hosts) runs about 2000 components: on each of
48 access hosts a gateway bound to an edge proxy, 32 services spread
across the racks, and five background components on every host.
Poisson :class:`TelecomWorkload` sessions (an open loop) roam between
access hosts and send frames: gateway → binding (``call_async``) → edge
→ ORB proxy → service.  A frame's latency is timed from when it was due,
so buffering behind a blocked binding and re-issues after a timeout
count.

Faults come from :class:`FailureInjector`: link flaps anywhere, and
crashes of hosts that serve a service.  Every fault invalidates the
route cache.  RAML sweeps the whole assembly every 0.25 s:

* a crashed service host first triggers the fail-fast adaptation
  (shorter ORB timeouts for that service), then escalates to a
  WAL-journaled :class:`MigrateComponent` transaction;
* an edge whose access host lost its path to the core (its uplink or
  its rack's) is hot-swapped by a WAL-journaled
  :class:`ReplaceComponent` with state transfer.

Frames keep flowing during those transactions: the gateway's
``call_async`` buffers on the blocked binding, and the buffer flushes
to the replacement in order.  Each gateway numbers its frames and each
edge checks the numbering, which witnesses that no frame is lost,
duplicated or reordered across a reconfiguration.

Why: cold routing (many host pairs, repeatedly flushed caches) and the
meta-level (core, qos, reconfig, durability) dominate the host time,
while interception on each call is thin.
"""

from __future__ import annotations

import random

from repro.adaptation import AdaptationPolicy
from repro.adaptation.policy import call
from repro.core import Raml, Response, custom, structural_consistency
from repro.durability import MemoryStore, WriteAheadLog
from repro.events import Simulator
from repro.kernel import Assembly, Component, Interface, Operation
from repro.middleware import Orb, RemoteProxy
from repro.netsim import FailureInjector, datacenter
from repro.qos import QosContract
from repro.qos.contract import Statistic
from repro.reconfig import (
    MigrateComponent,
    ReconfigurationTransaction,
    ReplaceComponent,
)
from repro.reconfig.transaction import TransactionState
from repro.workloads import (
    NodeLoadDriver,
    TelecomWorkload,
    TelecomWorkloadConfig,
    random_walk,
)

from perfbench.common import Scenario

FRAMES = Interface("Frames", "1.0", [Operation("frame", ("session", "seq"))])
UPLINK = Interface("Uplink", "1.0", [
    Operation("frame", ("chan", "service", "session", "seq", "due", "done")),
])
STORE = Interface("Store", "1.0", [Operation("get", ("key",))])

TIMEOUT = 0.25
FAST_TIMEOUT = 0.1
#: Re-issues after a timeout wait a seeded random backoff up to this.
BACKOFF = 0.05
MAX_ATTEMPTS = 60
#: Each fault kind strikes once per period (simulated seconds).
FAULT_PERIOD = 1.0
FLAP_DOWN = 0.3
CRASH_DOWN = 3.0
SWEEP = 0.25
CODEC_BYTES = 50_000

#: Simulated seconds of generated faults and sessions; runs stop long before.
HORIZON = 1000.0


def expected(service: int, session: int, seq: int) -> int:
    """The value service ``service`` answers for frame ``seq`` of a session."""
    return (session * 1_000_003 + seq * 7919 + service) % 2_147_483_647


class Service(Component):
    def __init__(self, name: str, index: int) -> None:
        super().__init__(name)
        self.index = index

    def on_initialize(self) -> None:
        self.state.setdefault("served", 0)

    def frame(self, session, seq):
        self.state["served"] += 1
        return expected(self.index, session, seq)


class Gateway(Component):
    """Access-side component: numbers frames on its uplink channel."""

    def on_initialize(self) -> None:
        self.state.setdefault("chan", 0)

    def send(self, service, session, seq, due, done) -> None:
        self.state["chan"] += 1
        self.required_port("up").call_async(
            "frame", self.state["chan"], service, session, seq, due, done)


class Edge(Component):
    """Edge proxy: checks the uplink numbering, forwards over the ORB."""

    def __init__(self, name: str, scenario: "ChurnLarge", access: str) -> None:
        super().__init__(name)
        self.scenario = scenario
        self.access = access

    def on_initialize(self) -> None:
        self.state.setdefault("last", 0)
        self.state.setdefault("violations", 0)
        self.state.setdefault("forwarded", 0)
        # Codec tables: their size sets how long a hot swap keeps the
        # uplink blocked (transfer cost grows with state size).
        self.state.setdefault("codec", "c" * CODEC_BYTES)

    def frame(self, chan, service, session, seq, due, done):
        if chan != self.state["last"] + 1:
            self.state["violations"] += 1
        self.state["last"] = chan
        self.state["forwarded"] += 1
        self.scenario.forward(self.access, service, session, seq, due, done, 1)


class Background(Component):
    def get(self, key):
        return key


class ChurnLarge(Scenario):
    name = "churn-large"
    warmup = 3.0
    slice = 0.25
    window_end = 13.0

    RACKS = 24
    HOSTS_PER_RACK = 16
    ACCESS_PER_RACK = 2
    SERVICES = 32
    BACKGROUND_PER_HOST = 5
    #: Session arrivals per simulated second; sessions last 2 s on
    #: average, so about 200 are active, each sending 10 frames/s.
    ARRIVAL_RATE = 100.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._sim = Simulator()
        self._build(random.Random(seed))

    @property
    def sim(self) -> Simulator:
        return self._sim

    # -- construction ----------------------------------------------------

    def _build(self, rng: random.Random) -> None:
        sim = self._sim
        net = datacenter(sim, racks=self.RACKS,
                         hosts_per_rack=self.HOSTS_PER_RACK,
                         seed=rng.getrandbits(32))
        self.network = net
        assembly = Assembly(net, name="churn-large")
        self.assembly = assembly
        hosts = [f"rack{r}-host{h}" for r in range(self.RACKS)
                 for h in range(self.HOSTS_PER_RACK)]
        self.access = [f"rack{r}-host{h}" for r in range(self.RACKS)
                       for h in range(self.ACCESS_PER_RACK)]
        self.spare = [h for h in hosts if h not in set(self.access)]
        self.orbs = {name: Orb(net, name, default_timeout=TIMEOUT)
                     for name in hosts}

        for host in hosts:
            for k in range(self.BACKGROUND_PER_HOST):
                component = Background(f"bg-{host}-{k}")
                component.provide("svc", STORE)
                assembly.deploy(component, host)
        # Background load wanders on every host that can serve, so
        # service times spread out and differ between seeds.
        for host in self.spare:
            NodeLoadDriver(sim, net.node(host), random_walk(
                0.3, 0.05, 0.0, 0.6, seed=rng.getrandbits(32)), period=1.0)

        self.services: list[Service] = []
        self.location: list[str] = []
        for j in range(self.SERVICES):
            rack, slot = j % self.RACKS, self.ACCESS_PER_RACK + j // self.RACKS
            host = f"rack{rack}-host{slot}"
            service = Service(f"svc{j}", j)
            port = service.provide("svc", FRAMES)
            assembly.deploy(service, host)
            self.orbs[host].register(f"svc{j}", port, work_units=0.2)
            self.services.append(service)
            self.location.append(host)
        self.proxies: dict[tuple[str, int], RemoteProxy] = {}
        self.timeout = [TIMEOUT] * self.SERVICES

        self.gateways: dict[str, Gateway] = {}
        self.edges: dict[str, Edge] = {}
        self.edge_versions = {name: 0 for name in self.access}
        for host in self.access:
            edge = Edge(f"edge-{host}", self, host)
            edge.provide("svc", UPLINK)
            assembly.deploy(edge, host)
            gateway = Gateway(f"gw-{host}")
            gateway.require("up", UPLINK)
            assembly.deploy(gateway, host)
            assembly.connect(gateway.name, "up",
                             target=edge.provided_port("svc"))
            self.gateways[host] = gateway
            self.edges[host] = edge
        self.last_swap = {name: -FAULT_PERIOD for name in self.access}

        self.wal = WriteAheadLog(MemoryStore())
        self.transactions: list = []
        self.pending: set[str] = set()
        self.reissues = 0
        #: Frames answered in the sim window after at least one re-send.
        self.window_resent = 0
        self.crashes: dict[str, float] = {}
        self.reactions: list[float] = []

        self.backoff = random.Random(rng.getrandbits(32))
        self._raml(sim)
        self._faults(sim, rng)
        self.sessions = TelecomWorkload(sim, self.access, self._send_frame,
                                        TelecomWorkloadConfig(
                                            arrival_rate=self.ARRIVAL_RATE,
                                            mean_duration=2.0,
                                            frame_rate=10.0,
                                            mobility_rate=0.5,
                                            seed=rng.getrandbits(32)))
        self.sessions.start(HORIZON)

    def _raml(self, sim: Simulator) -> None:
        raml = Raml(self.assembly, period=SWEEP, metric_window=2.0)
        self.raml = raml
        raml.instrument()
        raml.add_constraint(structural_consistency())
        raml.adaptation.add_policy(AdaptationPolicy(
            "fail-fast",
            condition=lambda context: context.get("services.down", 0) > 0,
            actions=[call(self._fail_fast)]))
        raml.add_constraint(
            custom("service-hosts-up", self._services_down),
            Response(adapt=self._adapt_services, reconfigure=self._migrate,
                     escalate_after=2))
        raml.add_constraint(
            custom("edge-uplinks", self._edges_cut_off),
            Response(reconfigure=self._replace_edges, escalate_after=1))
        raml.add_contract(
            QosContract("frame-latency").require_max(
                "frame.latency", 0.1, Statistic.P95))
        raml.start()

    def _faults(self, sim: Simulator, rng: random.Random) -> None:
        """A steady fault cadence with seeded random targets.

        Faults arrive on a fixed clock, not as a Poisson process, so
        every run sees the same number of faults per simulated second
        and seeds differ only in where they strike: each period flaps a
        random link anywhere, flaps the uplink of a random access host
        and, at a random point of the period, crashes the host of a
        random service.
        """
        self.injector = FailureInjector(self.network, seed=rng.getrandbits(32))
        fault_rng = random.Random(rng.getrandbits(32))
        links = sorted(self.network.links)

        def flap_any() -> None:
            a, b = links[fault_rng.randrange(len(links))]
            self.injector.flap_link(a, b, at=sim.now, down_for=FLAP_DOWN)
            sim.schedule(flap_any, delay=FAULT_PERIOD)

        def flap_access() -> None:
            host = self.access[fault_rng.randrange(len(self.access))]
            rack = host.split("-", 1)[0]
            self.injector.flap_link(rack, host, at=sim.now, down_for=FLAP_DOWN)
            sim.schedule(flap_access, delay=FAULT_PERIOD)

        def crash(period: int) -> None:
            host = self.location[fault_rng.randrange(self.SERVICES)]
            if self.network.nodes[host].up:
                self.crashes[host] = sim.now
                self.injector.crash_node(host, at=sim.now,
                                         recover_after=CRASH_DOWN)
            # One crash per period, at a random point within it.
            sim.at(crash, period + 1, when=(
                period + 1 + fault_rng.random()) * FAULT_PERIOD)

        sim.schedule(flap_any, delay=FAULT_PERIOD * 0.5)
        sim.schedule(flap_access, delay=FAULT_PERIOD * 0.75)
        sim.at(crash, 0, when=fault_rng.random() * FAULT_PERIOD)

    # -- traffic ---------------------------------------------------------

    def _send_frame(self, session, delivered) -> None:
        self.ledger.issued += 1
        self.gateways[session.access_node].send(
            session.session_id % self.SERVICES, session.session_id,
            session.frames_sent, self._sim.now, delivered)

    def _proxy(self, access: str, service: int) -> RemoteProxy:
        proxy = self.proxies.get((access, service))
        if proxy is None:
            proxy = RemoteProxy(self.orbs[access], self.location[service],
                                f"svc{service}", FRAMES,
                                timeout=self.timeout[service])
            self.proxies[(access, service)] = proxy
        return proxy

    def forward(self, access, service, session, seq, due, done,
                attempt) -> None:
        sim, ledger = self._sim, self.ledger
        tag = (session, seq)

        def on_result(value) -> None:
            ledger.answer(sim.now, due, tag,
                          value == expected(service, session, seq))
            if attempt > 1 and self.warmup <= sim.now < self.window_end:
                self.window_resent += 1
            self.raml.record_metric("frame.latency", sim.now - due)
            done()

        def on_error(exc) -> None:
            if attempt >= MAX_ATTEMPTS:
                ledger.error(sim.now, due, tag, exc)
                return
            self.reissues += 1
            sim.schedule(self.forward, access, service, session, seq, due,
                         done, attempt + 1,
                         delay=self.backoff.uniform(0.0, BACKOFF))

        self._proxy(access, service).call("frame", session, seq,
                                          on_result=on_result,
                                          on_error=on_error)

    def stop_load(self) -> None:
        self.sessions.stop()
        for session in self.sessions.sessions:
            session.ended = True

    # -- RAML responses ----------------------------------------------------

    def _services_down(self, view) -> list[str]:
        return [f"svc{j}@{host}" for j, host in enumerate(self.location)
                if not self.network.nodes[host].up]

    def _adapt_services(self, raml, violations) -> None:
        now = self._sim.now
        for violation in violations:
            host = violation.split("@", 1)[1]
            crashed_at = self.crashes.pop(host, None)
            if (crashed_at is not None and self.warmup <= crashed_at
                    and now < self.window_end):
                self.reactions.append(now - crashed_at)
        raml.adaptation.evaluate({"services.down": float(len(violations))})

    def _fail_fast(self) -> None:
        for j, host in enumerate(self.location):
            up = self.network.nodes[host].up
            timeout = TIMEOUT if up else FAST_TIMEOUT
            if self.timeout[j] != timeout:
                self.timeout[j] = timeout
                for (_access, service), proxy in self.proxies.items():
                    if service == j:
                        proxy.timeout = timeout

    def _edges_cut_off(self, view) -> list[str]:
        """Access hosts whose path to the core is down (their uplink or
        their rack's), whose edge was not swapped in the last period."""
        links = self.network.links
        now = self._sim.now
        flagged = []
        for host in self.access:
            rack = host.split("-", 1)[0]
            cut = not (links[(rack, host)].up and links[("core", rack)].up)
            if cut and now - self.last_swap[host] >= FAULT_PERIOD:
                flagged.append(host)
        return flagged

    def _transaction(self, change, on_done) -> None:
        txn = ReconfigurationTransaction(
            self.assembly, name=f"txn{len(self.transactions) + 1}",
            wal=self.wal)
        txn.add(change)
        self.transactions.append(txn)
        txn.execute_async(on_done=on_done)

    def _migrate(self, raml, violations) -> None:
        for violation in violations:
            name, host = violation.split("@", 1)
            if name in self.pending:
                continue
            j = int(name[3:])
            target = self._migration_target(host)
            if target is None:
                continue
            self.pending.add(name)
            self._transaction(
                MigrateComponent(name, target),
                lambda report, j=j, source=host, target=target:
                    self._migrated(report, j, source, target))

    def _migration_target(self, source: str) -> str | None:
        busy = set(self.location)
        rack = source.split("-", 1)[0]
        offset = len(self.transactions) * 7
        for i in range(len(self.spare)):
            host = self.spare[(offset + i) % len(self.spare)]
            if (host not in busy and not host.startswith(rack + "-")
                    and self.network.nodes[host].up):
                return host
        return None

    def _migrated(self, report, j: int, source: str, target: str) -> None:
        name = f"svc{j}"
        self.pending.discard(name)
        if report.state is not TransactionState.COMMITTED:
            return
        port = self.services[j].provided_port("svc")
        orb = self.orbs[target]
        if name in orb.servants:
            orb.rebind(name, port, work_units=0.2)
        else:
            orb.register(name, port, work_units=0.2)
        if name in self.orbs[source].servants:
            self.orbs[source].unregister(name)
        self.location[j] = target
        for (_access, service), proxy in self.proxies.items():
            if service == j:
                proxy.rebind(target)

    def _replace_edges(self, raml, violations) -> None:
        for host in violations:
            old = self.edges[host]
            if old.name in self.pending:
                continue
            self.edge_versions[host] += 1
            self.last_swap[host] = self._sim.now
            new = Edge(f"edge-{host}-v{self.edge_versions[host]}", self, host)
            new.provide("svc", UPLINK)
            self.pending.add(old.name)
            self._transaction(
                ReplaceComponent(old.name, new),
                lambda report, host=host, old=old, new=new:
                    self._replaced(report, host, old, new))

    def _replaced(self, report, host: str, old: Edge, new: Edge) -> None:
        self.pending.discard(old.name)
        if report.state is TransactionState.COMMITTED:
            self.edges[host] = new

    # -- results ------------------------------------------------------------

    def _window_reports(self):
        return [txn.report for txn in self.transactions
                if txn.report.finished_at
                and self.warmup <= txn.report.finished_at < self.window_end]

    def sim_metrics(self) -> dict[str, tuple[float, str]]:
        metrics = super().sim_metrics()
        reports = self._window_reports()
        metrics["resent_ratio"] = (
            self.window_resent / self.ledger.window_resolved, "ratio")
        metrics["reconfig_blocked_ms"] = (
            sum(r.blocked_duration for r in reports) * 1e3, "ms")
        reactions = sorted(self.reactions)
        metrics["raml_reaction_ms"] = (
            reactions[len(reactions) // 2] * 1e3 if reactions else 0.0, "ms")
        metrics["raml_reaction_samples"] = (float(len(reactions)), "count")
        return metrics

    def violations(self) -> int:
        """Frames lost, duplicated or reordered on any uplink channel."""
        return sum(edge.state["violations"] for edge in self.edges.values())

    def checks(self) -> list[str]:
        problems = super().checks()
        violations = self.violations()
        if violations:
            problems.append(
                f"uplink numbering broken {violations} times across "
                "reconfigurations (loss, duplication or reordering)")
        forwarded = sum(edge.state["forwarded"]
                        for edge in self.edges.values())
        chan = sum(gw.state["chan"] for gw in self.gateways.values())
        if forwarded != chan:
            problems.append(
                f"gateways sent {chan} frames but edges received {forwarded}")
        if not any(r.state is TransactionState.COMMITTED
                   for r in (t.report for t in self.transactions)):
            problems.append("no reconfiguration transaction committed")
        return problems

    def tallies(self) -> dict[str, float]:
        tallies = super().tallies()
        tallies["middleware.retries"] += self.reissues
        return tallies

    def counters(self) -> dict[str, float]:
        reports = self._window_reports()
        committed = sum(r.state is TransactionState.COMMITTED for r in reports)
        counters = super().counters()
        counters.update({
            "reconfig.transactions": float(len(reports)),
            "reconfig.committed_ratio": (committed / len(reports)
                                         if reports else 0.0),
            "reconfig.buffered_calls": float(
                sum(r.buffered_calls for r in reports)),
        })
        return counters
