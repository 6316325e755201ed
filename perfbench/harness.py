"""Runs one workload and assembles its metrics and correctness checks.

The untraced run (``--trace 0``) reports the end-to-end metrics; the
traced run (``--trace 1``) runs the same seed twice over the same
simulated interval, once untraced and once with the layer wrappers
installed, and reports the per-layer metrics.  See ``README.md`` for
every metric's definition.
"""

from __future__ import annotations

import select
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from perfbench import layers, sharded
from perfbench.churn import ChurnLarge
from perfbench.common import Scenario, measure, peak_rss_mb, percentile
from perfbench.mesh import MeshSteady

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).resolve().parent / "run.py"
#: Where the traced run writes its Chrome trace (ignored by git).
TRACE_DIR = ROOT / ".perfbench"

SCENARIOS: dict[str, type[Scenario]] = {
    MeshSteady.name: MeshSteady,
    ChurnLarge.name: ChurnLarge,
}
WORKLOADS = (MeshSteady.name, ChurnLarge.name, "sharded-ring")

#: Host seconds of the timed phase between two set-up probes.  This
#: host's speed drifts for seconds at a time, so probes taken back to
#: back would all see the same drift; spread over the run, their median
#: averages it out as the timed phase does.
PROBE_EVERY = 5.0
PROBE_TIMEOUT = 120.0

END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_p50_ms", "ms"),
    ("sim_latency_p99_ms", "ms"),
]

PER_LAYER: list[tuple[str, str]] = [
    ("kernel.invoke_self_ns", "ns"), ("kernel.calls", "count"),
    ("kernel.binding_errors", "count"),
    ("connectors.invoke_self_ns", "ns"), ("connectors.calls", "count"),
    ("filters.self_ns", "ns"), ("filters.calls", "count"),
    ("aspects.self_ns", "ns"), ("aspects.calls", "count"),
    ("metaobjects.self_ns", "ns"), ("metaobjects.calls", "count"),
    ("middleware.call_self_ns", "ns"), ("middleware.calls", "count"),
    ("middleware.retries", "count"), ("middleware.timeouts", "count"),
    ("netsim.route_calls", "count"), ("netsim.route_ns", "ns"),
    ("netsim.route_reuse_ratio", "ratio"), ("netsim.invalidations", "count"),
    ("netsim.send_self_ms", "ms"),
    ("events.run_self_ms", "ms"),
    ("core.sweeps", "count"), ("core.sweep_ms", "ms"), ("core.emit_ns", "ns"),
    ("qos.record_ns", "ns"), ("qos.check_ms", "ms"),
    ("adaptation.actions", "count"),
    ("reconfig.transactions", "count"), ("reconfig.txn_ms", "ms"),
    ("reconfig.committed_ratio", "ratio"),
    ("reconfig.buffered_calls", "count"),
    ("durability.wal_ms", "ms"), ("durability.checksum_ms", "ms"),
    ("parallel.rounds", "count"), ("parallel.sync_stalls", "count"),
    ("parallel.region_compute_ms", "ms"), ("parallel.exchange_wait_ms", "ms"),
    ("parallel.outbox_bytes", "bytes"),
    ("failed_ratio", "ratio"), ("resent_ratio", "ratio"),
    ("qos_compliance", "ratio"),
    ("reconfig_blocked_ms", "ms"), ("raml_reaction_ms", "ms"),
    ("trace.overhead_pct", "%"), ("trace.unattributed_pct", "%"),
    ("trace.wall_ms", "ms"), ("trace.unattributed_ms", "ms"),
] + [(f"{layer}.self_ms", "ms") for layer in layers.LAYERS]


@dataclass
class Result:
    """One run's outcome: the contract metrics plus context for humans."""

    workload: str
    seed: int
    trace: bool
    metrics: dict[str, float] = field(default_factory=dict)
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def catalogue(self) -> list[tuple[str, str]]:
        return PER_LAYER if self.trace else END_TO_END

    def line(self) -> dict[str, Any]:
        """The result object printed as the last line of output."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": float(self.metrics.get(name, 0.0)),
                               "unit": unit}
                        for name, unit in self.catalogue()},
        }

    def table(self) -> str:
        rows = [f"# {self.workload} seed={self.seed} "
                f"{'traced' if self.trace else 'untraced'}"]
        for name, unit in self.catalogue():
            value = self.metrics.get(name, 0.0)
            rows.append(f"{name:32s} {value:16.6g} {unit}")
        for name, (value, unit) in self.extra.items():
            rows.append(f"  {name:30s} {value:16.6g} {unit}")
        rows.extend(f"CHECK FAILED: {problem}" for problem in self.problems)
        return "\n".join(rows)


# -- set-up time ----------------------------------------------------------


def probe(workload: str, seed: int) -> int:
    """Child side of a set-up probe: build, run the first simulated
    event, say ``ready``.  ``repro`` was imported by this process's
    start, so import time is part of what the parent measures."""
    if workload == "sharded-ring":
        said = []

        def ready(_psim, _round, _time) -> None:
            if not said:
                said.append(True)
                print("ready", flush=True)

        simulation = sharded.simulation(seed)
        simulation.run(simulation.partition.lookahead, after_round=ready)
    else:
        scenario = SCENARIOS[workload](seed)
        scenario.sim.step()
        print("ready", flush=True)
    return 0


def setup_sample(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its first simulated event."""
    start = perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([child.stdout], [], [], PROBE_TIMEOUT)
        line = child.stdout.readline() if ready else ""
        elapsed = perf_counter() - start
        child.communicate(timeout=PROBE_TIMEOUT)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed "
                           f"(exit {child.returncode})")
    return elapsed


class SetupProbes:
    """Set-up probes of one run: one at once, then one each time the
    timed phase has run another :data:`PROBE_EVERY` host seconds."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.samples = [setup_sample(workload, seed)]
        self.due = PROBE_EVERY

    def __call__(self, timed: float) -> None:
        if timed >= self.due:
            self.samples.append(setup_sample(self.workload, self.seed))
            self.due += PROBE_EVERY

    def median(self) -> float:
        return statistics.median(self.samples)


# -- single-simulator workloads -----------------------------------------------


def run_scenario(workload: str, seed: int, seconds: float) -> Result:
    result = Result(workload, seed, trace=False)
    setup = SetupProbes(workload, seed)
    scenario = SCENARIOS[workload](seed)
    timed = measure(scenario, seconds, pause=setup)
    scenario.drain()
    result.metrics["peak_rss_mb"] = timed.window_rss_mb
    result.metrics["setup_s"] = setup.median()
    result.metrics["ops_per_s"] = timed.ops_rate()
    result.metrics["events_per_s"] = timed.events_rate()
    _sim_results(result, scenario)
    result.extra["run_wall_s"] = (timed.wall, "s")
    result.extra["chunks"] = (float(len(timed.chunks)), "count")
    result.extra["setup_probes"] = (float(len(setup.samples)), "count")
    result.extra["simulated_s"] = (timed.sim_end - timed.sim_start, "s")
    units = dict(PER_LAYER)
    for name, value in scenario.counters().items():
        result.extra[name] = (value, units[name])
    return result


def _sim_results(result: Result, scenario: Scenario) -> None:
    """Sim metrics, attempted/failed counts and the correctness checks."""
    ledger = scenario.ledger
    for name, (value, unit) in scenario.sim_metrics().items():
        if name in ("sim_latency_p50_ms", "sim_latency_p99_ms"):
            result.metrics[name] = value
        else:
            result.extra[name] = (value, unit)
    result.problems.extend(scenario.checks())
    result.attempted = ledger.issued
    result.failed = (ledger.failed + ledger.timed_out
                     + abs(ledger.in_flight) + scenario.violations())


def trace_scenario(workload: str, seed: int) -> Result:
    result = Result(workload, seed, trace=True)
    factory = SCENARIOS[workload]
    plain = factory(seed)
    untraced = measure(plain, 0.0, until=plain.window_end)
    plain.drain()
    tracer = layers.LayerTracer().install()
    try:
        traced_scenario = factory(seed)
        traced = measure(traced_scenario, 0.0,
                         until=traced_scenario.window_end, around=tracer)
        traced_scenario.drain()
    finally:
        tracer.uninstall()
    _sim_results(result, traced_scenario)
    if plain.digest() != traced_scenario.digest():
        result.problems.append(
            "sim outcomes differ between the untraced and the traced run")
        result.failed += traced_scenario.ledger.window_resolved
    _restored(result)
    sim = traced_scenario.sim_metrics()
    for name in ("failed_ratio", "resent_ratio", "qos_compliance",
                 "reconfig_blocked_ms", "raml_reaction_ms"):
        if name in sim:
            result.metrics[name] = sim[name][0]
    counters = traced_scenario.counters()
    result.metrics.update(counters)
    result.metrics.update(layer_metrics(tracer, untraced.wall))
    result.extra["traced_events"] = (float(traced.events), "count")
    _write_trace(result, tracer)
    return result


def _restored(result: Result) -> None:
    """Every wrapped function must be the original again."""
    if layers.ACTIVE is not None:
        result.problems.append("a layer tracer is still installed")
    for _layer, module_name, qualname in layers.TARGETS:
        owner, attribute = layers.resolve(module_name, qualname)
        if hasattr(vars(owner)[attribute], "__wrapped__"):
            result.problems.append(
                f"{module_name}.{qualname} is still wrapped")


def _write_trace(result: Result, tracer: layers.LayerTracer) -> None:
    path = TRACE_DIR / f"trace-{result.workload}-seed{result.seed}.json"
    tracer.write_chrome_trace(path)
    result.extra["chrome_trace_spans"] = (float(len(tracer.spans)), "count")


def layer_metrics(tracer: layers.LayerTracer, untraced_wall: float,
                  traced_wall: float | None = None) -> dict[str, float]:
    """Per-layer metrics from one traced interval; ``traced_wall``
    defaults to the tracer's own wall time."""
    self_ns = tracer.self_ns
    total_ns = tracer.total_ns

    def calls(qualname: str) -> int:
        return tracer.calls_of(qualname)

    def own(*qualnames: str) -> int:
        return sum(self_ns[tracer.index(q)] for q in qualnames)

    def mean(numerator: float, count: int) -> float:
        return numerator / count if count else 0.0

    def layer_ns(layer: str, *excluding: str) -> int:
        return tracer.layer_self_ns(layer) - own(*excluding)

    wall_ns = tracer.wall_ns
    if traced_wall is None:
        traced_wall = wall_ns / 1e9
    attributed = sum(self_ns)
    transactions = calls("ReconfigurationTransaction.execute_async")
    metrics = {
        "kernel.invoke_self_ns": mean(layer_ns("kernel"),
                                      calls("ProvidedPort.invoke")),
        "kernel.calls": calls("ProvidedPort.invoke"),
        "connectors.invoke_self_ns": mean(layer_ns("connectors"),
                                          calls("Connector.invoke_from")),
        "connectors.calls": calls("Connector.invoke_from"),
        "filters.self_ns": mean(layer_ns("filters"), calls("Filter.apply")),
        "filters.calls": calls("Filter.apply"),
        "aspects.self_ns": mean(layer_ns("aspects"), calls("_execute")),
        "aspects.calls": calls("_execute"),
        "metaobjects.self_ns": mean(layer_ns("metaobjects"),
                                    calls("MetaObject.apply")),
        "metaobjects.calls": calls("MetaObject.apply"),
        "middleware.call_self_ns": mean(layer_ns("middleware"),
                                        calls("Orb.call")),
        "middleware.calls": calls("Orb.call"),
        "netsim.route_calls": calls("Network.route"),
        "netsim.route_ns": mean(total_ns[tracer.index("Network.route")],
                                calls("Network.route")),
        "netsim.route_reuse_ratio": tracer.route_reuse_ratio(),
        "netsim.invalidations": calls("Network._rebuild_graph"),
        "netsim.send_self_ms": layer_ns("netsim", "Network.route",
                                        "Network._rebuild_graph") / 1e6,
        "events.run_self_ms": layer_ns("events") / 1e6,
        "core.sweeps": calls("Raml.sweep"),
        "core.sweep_ms": mean(own("Raml.sweep", "Constraint.evaluate") / 1e6,
                              calls("Raml.sweep")),
        "core.emit_ns": mean(own("IntrospectionHub.emit"),
                             calls("IntrospectionHub.emit")),
        "qos.record_ns": mean(own("MetricRegistry.record"),
                              calls("MetricRegistry.record")),
        "qos.check_ms": mean(
            total_ns[tracer.index("QosMonitor.check_now")] / 1e6,
            calls("QosMonitor.check_now")),
        "adaptation.actions": calls("AdaptationPolicy.fire"),
        "reconfig.txn_ms": mean(layer_ns("reconfig") / 1e6, transactions),
        "durability.wal_ms": mean(
            own("WriteAheadLog.journal", "WriteAheadLog.snapshot") / 1e6,
            transactions),
        "durability.checksum_ms": mean(
            total_ns[tracer.index("assembly_checksum")] / 1e6,
            calls("assembly_checksum")),
        "trace.wall_ms": wall_ns / 1e6,
        "trace.unattributed_ms": (wall_ns - attributed) / 1e6,
        "trace.unattributed_pct": mean(100.0 * (wall_ns - attributed),
                                       wall_ns),
        "trace.overhead_pct": (100.0 * (traced_wall / untraced_wall - 1.0)
                               if untraced_wall > 0 else 0.0),
    }
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_ms"] = tracer.layer_self_ns(layer) / 1e6
    return metrics


# -- sharded-ring --------------------------------------------------------


def _sharded_checks(result: Result, episodes: list, reference=None) -> None:
    digests = {sharded.outcome_digest(episode) for episode in episodes}
    if len(digests) != 1:
        result.problems.append(
            "episodes of the same seed delivered different outcomes")
    for episode in episodes:
        sent, accounted = sharded.conservation(episode)
        if sent != accounted:
            result.problems.append(
                f"message conservation: sent {sent} != delivered + in flight "
                f"+ leftovers + dropped {accounted}")
            result.failed += abs(sent - accounted)
        if episode.checksum is not None:
            result.problems.append("telemetry was installed in a timed run")
    if (reference is not None
            and sharded.outcome_digest(reference) not in digests):
        result.problems.append(
            "process-backend outcome differs from the inline reference run")
        result.failed += int(reference.stat("delivered"))


def _run_wall(episode) -> float:
    """Episode wall without the workers' region builds (set-up)."""
    build = max(report["stats"]["build_s"]
                for report in episode.regions.values())
    return episode.wall_seconds - build


def run_sharded(seed: int, seconds: float) -> Result:
    result = Result("sharded-ring", seed, trace=False)
    setup = SetupProbes("sharded-ring", seed)
    episodes, walls = [], []
    while sum(walls) < seconds or not episodes:
        setup(sum(walls))
        episode = sharded.episode(seed)
        if episodes:
            # Only the first episode's latency sample is reported (every
            # episode of a seed is the same simulation); dropping the
            # others keeps the coordinator's memory flat.
            for report in episode.regions.values():
                del report["stats"]["latencies"]
        episodes.append(episode)
        walls.append(_run_wall(episode))
    worker_rss = {}
    for episode in episodes:
        for region, report in episode.regions.items():
            worker_rss[region] = max(worker_rss.get(region, 0),
                                     report["stats"]["maxrss_kb"])
    result.metrics["peak_rss_mb"] = (peak_rss_mb()
                                     + sum(worker_rss.values()) / 1024.0)
    result.metrics["setup_s"] = setup.median()
    # Every episode of a seed is the same simulation (checked below), so
    # the rates are medians over episodes: a neighbour that takes one of
    # two vCPUs for some seconds stalls a worker at every barrier and
    # halves the episodes it overlaps, but not the median of a run.
    result.metrics["ops_per_s"] = statistics.median(
        int(e.stat("delivered")) / w for e, w in zip(episodes, walls))
    result.metrics["events_per_s"] = statistics.median(
        e.executed / w for e, w in zip(episodes, walls))
    samples = sharded.latencies(episodes[0])
    result.metrics["sim_latency_p50_ms"] = percentile(samples, 50) * 1e3
    result.metrics["sim_latency_p99_ms"] = percentile(samples, 99) * 1e3
    result.extra["latency_samples"] = (float(len(samples)), "count")
    result.extra["episodes"] = (float(len(episodes)), "count")
    result.extra["run_wall_s"] = (sum(walls), "s")
    result.extra["setup_probes"] = (float(len(setup.samples)), "count")
    result.attempted = sum(int(e.stat("sent")) for e in episodes)
    result.failed = sum(int(e.stat("dropped")) for e in episodes)
    result.extra["failed_ratio"] = (result.failed / result.attempted, "ratio")
    reference = sharded.episode(seed, backend="inline")
    _sharded_checks(result, episodes, reference)
    return result


def trace_sharded(seed: int) -> Result:
    result = Result("sharded-ring", seed, trace=True)
    plain = sharded.episode(seed)
    tracer = layers.LayerTracer().install()
    try:
        with tracer:
            traced = sharded.episode(seed, trace=True)
    finally:
        tracer.uninstall()
    _restored(result)
    _sharded_checks(result, [plain, traced])
    result.attempted = int(traced.stat("sent"))
    result.failed += int(traced.stat("dropped"))
    result.metrics.update(layer_metrics(tracer, _run_wall(plain),
                                        _run_wall(traced)))
    # The tracer's spans cover the coordinator process; the simulation
    # itself runs in the workers, whose accounts come back in their
    # reports and give the event-loop and network metrics.
    workers = layers.LayerTracer()
    for report in traced.regions.values():
        workers.add(report["stats"]["account"])
    worker_metrics = layer_metrics(workers, _run_wall(plain))
    for name in ("events.run_self_ms", "netsim.send_self_ms",
                 "netsim.route_calls", "netsim.route_ns",
                 "netsim.route_reuse_ratio", "netsim.invalidations"):
        result.metrics[name] = worker_metrics[name]
    stats = [report["stats"] for report in traced.regions.values()]
    compute_ms = max(s["compute_ns"] for s in stats) / 1e6
    result.metrics["parallel.rounds"] = traced.rounds
    result.metrics["parallel.sync_stalls"] = traced.sync_stalls
    result.metrics["parallel.region_compute_ms"] = compute_ms
    result.metrics["parallel.exchange_wait_ms"] = (
        _run_wall(traced) * 1e3 - compute_ms)
    result.metrics["parallel.outbox_bytes"] = sum(s["outbox_bytes"]
                                                  for s in stats)
    result.metrics["failed_ratio"] = result.failed / result.attempted
    _write_trace(result, tracer)
    return result


def run(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    if workload == "sharded-ring":
        return trace_sharded(seed) if trace else run_sharded(seed, seconds)
    if trace:
        return trace_scenario(workload, seed)
    return run_scenario(workload, seed, seconds)
