"""sharded-ring: the partitioned simulator on two worker processes.

:class:`ParallelSimulation` on the process backend over
:func:`star_ring_partition` with two regions of classic
:func:`build_star_region` stars; a fifth of the messages cross the
region boundary.  One *episode* is one ``ParallelSimulation.run`` that
spawns the workers, builds the regions and delivers every message.

Why: it is the only workload that exercises :mod:`repro.parallel`
(rounds, exchange, worker processes), and it bypasses every component
layer.  With two regions the barrier and the overlapped exchange wait
on the same single neighbour.

The region builder below wraps the library builder: it records every
delivery (latency and an order-invariant digest) and, in the traced
run, the worker's compute time, outbox bytes and layer account.
"""

from __future__ import annotations

import hashlib
import pickle
import random
import resource
from array import array
from functools import partial
from time import perf_counter

from repro.parallel import (
    ParallelSimulation,
    build_star_region,
    star_ring_partition,
)
from repro.parallel.scenario import hub_name, leaf_name

from perfbench import layers

REGIONS = 2
LEAVES = 32
MESSAGES = 40_000  # per region
UNTIL = 20.0
CROSS_FRACTION = 0.2
#: Latency of the inter-region link, which is also the lookahead: each
#: round simulates this much time, 84 rounds per episode.  Rounds of a
#: few thousand messages keep the exchange from being all of the wall
#: time on a two-core host.
BOUNDARY_LATENCY = 0.25
#: Simulated time past the last send, enough for every message to land.
TAIL = 1.0

_MASK64 = (1 << 64) - 1


class DeliveryProbe:
    """Per-region observer of deliveries, reported through ``extra_stats``."""

    def __init__(self, net, sim, region: int, trace: bool) -> None:
        self.net, self.sim, self.region = net, sim, region
        self.latencies = array("d")
        self.digest = 0
        self.build_s = 0.0
        self.compute_ns = 0
        self.outbox_bytes = 0
        self.tracer: layers.LayerTracer | None = None
        net.taps.append(self._tap)
        if trace:
            self._trace()

    def _tap(self, event: str, message) -> None:
        if event != "deliver":
            return
        now = self.sim.now
        self.latencies.append(now - message.sent_at)
        origin = message.headers.get("x-origin", (self.region, message.msg_id))
        key = f"{now!r}|{origin[0]}|{origin[1]}|{message.destination}"
        self.digest = (self.digest + int.from_bytes(
            hashlib.blake2b(key.encode(), digest_size=8).digest(), "big")
        ) & _MASK64

    def _trace(self) -> None:
        """Time each round's compute and size its outbox.

        A forked worker inherits the coordinator's recording layer
        wrappers; it restarts their account so it reports its own work.
        A worker started fresh installs its own, recording until the
        process ends.
        """
        tracer = layers.ACTIVE
        if tracer is None:
            tracer = layers.LayerTracer()
            tracer.__enter__()
        tracer.reset()
        self.tracer = tracer
        run = self.sim.run

        def timed_run(*args, **kwargs):
            start = perf_counter()
            try:
                return run(*args, **kwargs)
            finally:
                self.compute_ns += int((perf_counter() - start) * 1e9)
                self.outbox_bytes += len(pickle.dumps(self.net.outbox))

        self.sim.run = timed_run

    def stats(self) -> dict:
        report = {
            "latencies": self.latencies.tobytes(),
            "digest": self.digest,
            "build_s": self.build_s,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if self.tracer is not None:
            report["compute_ns"] = self.compute_ns
            report["outbox_bytes"] = self.outbox_bytes
            report["account"] = self.tracer.account()
        return report


def build_region(region: int, sim, partition, seed: int, *,
                 trace: bool = False):
    """Region builder: the library's classic star plus a delivery probe."""
    start = perf_counter()
    net = build_star_region(region, sim, partition, seed, leaves=LEAVES,
                            messages=MESSAGES, until=UNTIL,
                            cross_fraction=CROSS_FRACTION)
    # Spokes of unequal length (0.5-1.5 ms) spread the latencies out and
    # make them differ between seeds; set before the first route lookup.
    rng = random.Random(f"spokes/{seed}/{region}")
    for index in range(LEAVES):
        net.link_between(hub_name(region), leaf_name(region, index)) \
            .set_quality(latency=rng.uniform(0.0005, 0.0015))
    probe = DeliveryProbe(net, sim, region, trace)
    probe.build_s = perf_counter() - start
    net.extra_stats = probe.stats
    return net


def simulation(seed: int, trace: bool = False) -> ParallelSimulation:
    partition = star_ring_partition(REGIONS, leaves=LEAVES,
                                    boundary_latency=BOUNDARY_LATENCY)
    return ParallelSimulation(partition, partial(build_region, trace=trace),
                              seed=seed)


def episode(seed: int, backend: str = "process", trace: bool = False):
    """One complete partitioned run; returns the ParallelResult."""
    return simulation(seed, trace).run(UNTIL + TAIL, backend=backend)


def latencies(result) -> list[float]:
    samples: list[float] = []
    for report in result.regions.values():
        values = array("d")
        values.frombytes(report["stats"]["latencies"])
        samples.extend(values)
    return samples


def outcome_digest(result) -> str:
    """Digest of what the episode delivered, independent of backend."""
    parts = [f"{region}:{report['stats']['digest']}:"
             f"{report['stats']['delivered']}"
             for region, report in sorted(result.regions.items())]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def conservation(result) -> tuple[int, int]:
    """(sent, delivered + in flight + leftovers + dropped) over regions."""
    sent = int(result.stat("sent"))
    accounted = int(result.stat("delivered") + result.stat("in_flight")
                    + result.stat("dropped")) + result.leftovers
    return sent, accounted
