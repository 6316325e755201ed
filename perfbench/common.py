"""Pieces shared by the single-simulator workloads (mesh-steady, churn-large).

A workload is a :class:`Scenario`: it builds its topology and assembly
from a seed, then :func:`measure` advances its simulator in fixed slices
of simulated time while the host clock runs.  Slicing never changes the
simulation: ``Simulator.run(until=t)`` fires events at exactly ``t``, so
consecutive slices execute the same events in the same order as one
long run.

Sim metrics are taken over a fixed window of simulated time,
``[warmup, window_end)``, that every run covers whatever the host speed,
so they repeat exactly for a given seed.  Running totals kept by the
program (retries, QoS checks, ...) are read when the window opens and
when it closes, and reported as the difference.  Host metrics are taken
over the timed phase only, as the median of the rates of its chunks
(``Scenario.chunk`` simulated seconds each).
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
from array import array
from dataclasses import dataclass
from time import perf_counter
from contextlib import AbstractContextManager, nullcontext
from typing import Callable

from repro.errors import TimeoutError as OrbTimeoutError


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in 0..100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class RequestLedger:
    """Every request a workload issues and what became of it.

    Conservation holds once the load has drained:
    ``issued == answered + failed + timed_out``.  A request whose reply
    carries the wrong value counts as failed and as ``wrong``.

    Outcomes resolved inside the sim window also feed the latency sample
    and the outcome digest — the determinism witness compared between
    the untraced and the traced run.
    """

    def __init__(self, window_start: float, window_end: float) -> None:
        self.window_start = window_start
        self.window_end = window_end
        self.issued = 0
        self.answered = 0
        self.failed = 0
        self.timed_out = 0
        self.wrong = 0
        self.latencies = array("d")
        self.window_resolved = 0
        self.window_failed = 0
        self._digest = hashlib.sha256()

    @property
    def in_flight(self) -> int:
        return self.issued - self.answered - self.failed - self.timed_out

    def _resolve(self, now: float, due: float, outcome: str,
                 key: tuple) -> None:
        if self.window_start <= now < self.window_end:
            self.window_resolved += 1
            if outcome == "ok":
                self.latencies.append(now - due)
            else:
                self.window_failed += 1
            self._digest.update(f"{key}|{outcome}|{now!r}|{due!r}\n".encode())

    def answer(self, now: float, due: float, key: tuple,
               correct: bool) -> None:
        if correct:
            self.answered += 1
            self._resolve(now, due, "ok", key)
        else:
            self.failed += 1
            self.wrong += 1
            self._resolve(now, due, "wrong", key)

    def error(self, now: float, due: float, key: tuple,
              exc: Exception) -> None:
        if isinstance(exc, OrbTimeoutError):
            self.timed_out += 1
            self._resolve(now, due, "timeout", key)
        else:
            self.failed += 1
            self._resolve(now, due, "error", key)

    def checks(self) -> list[str]:
        problems = []
        if self.in_flight != 0:
            problems.append(
                f"request conservation: issued {self.issued} != answered "
                f"{self.answered} + failed {self.failed} + timed out "
                f"{self.timed_out}")
        if self.wrong:
            problems.append(f"{self.wrong} replies carried a wrong value")
        if not self.latencies:
            problems.append("no request was answered inside the sim window")
        return problems

    def sim_metrics(self) -> dict[str, tuple[float, str]]:
        samples = list(self.latencies)
        return {
            "sim_latency_p50_ms": (percentile(samples, 50) * 1e3, "ms"),
            "sim_latency_p99_ms": (percentile(samples, 99) * 1e3, "ms"),
            "latency_samples": (float(len(samples)), "count"),
            "failed_ratio": (self.window_failed / self.window_resolved,
                             "ratio"),
        }

    def digest(self) -> str:
        return self._digest.hexdigest()


class Scenario:
    """A workload on one simulator.  Subclasses build in ``__init__``
    and set ``orbs`` (host name → ORB), ``assembly`` and ``raml``."""

    name = ""
    #: Simulated seconds run before the timed phase (route caches and
    #: metric windows fill, every client has a request out).
    warmup = 1.0
    #: Simulated seconds per slice of the timed phase.
    slice = 0.25
    #: Simulated seconds per chunk: the timed phase ends on a chunk
    #: boundary, and host rates are medians over chunks.
    chunk = 1.0
    #: End of the sim-metric window; every run simulates at least this far.
    window_end = 10.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ledger = RequestLedger(self.warmup, self.window_end)
        #: :meth:`tallies` accrued inside the sim window (set by measure).
        self.window_tallies: dict[str, float] = {}

    @property
    def sim(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def ops(self) -> int:
        """Completed operations so far: answered requests."""
        return self.ledger.answered

    def stop_load(self) -> None:
        """Stop issuing requests; in-flight ones still resolve."""
        raise NotImplementedError

    def drain(self) -> None:
        """Stop the load and run until every request resolved."""
        self.stop_load()
        sim = self.sim
        deadline = sim.now + 30.0
        while self.ledger.in_flight and sim.now < deadline:
            sim.run(until=sim.now + 0.5)

    def checks(self) -> list[str]:
        return self.ledger.checks()

    def sim_metrics(self) -> dict[str, tuple[float, str]]:
        metrics = self.ledger.sim_metrics()
        checks = self.window_tallies["qos.checks"]
        metrics["qos_compliance"] = (
            self.window_tallies["qos.compliant_checks"] / checks
            if checks else 1.0, "ratio")
        return metrics

    def digest(self) -> str:
        return self.ledger.digest()

    def tallies(self) -> dict[str, float]:
        """Running totals read from the program's own objects."""
        orbs = self.orbs.values()
        stats = self.raml.monitor.stats
        return {
            "middleware.retries": float(sum(o.stats.retries for o in orbs)),
            "middleware.timeouts": float(sum(o.stats.timeouts for o in orbs)),
            "kernel.binding_errors": float(
                sum(b.stats.errors for b in self.assembly.bindings)),
            "qos.checks": float(stats.checks),
            "qos.compliant_checks": float(stats.compliant_checks),
        }

    def counters(self) -> dict[str, float]:
        """Per-layer counts over the sim window."""
        return {name: self.window_tallies[name] for name in (
            "middleware.retries", "middleware.timeouts",
            "kernel.binding_errors")}

    def violations(self) -> int:
        """Operations that broke an ordering invariant (none by default)."""
        return 0


@dataclass
class Measurement:
    wall: float
    events: int
    ops: int
    sim_start: float
    sim_end: float
    #: Peak resident memory (MB) when the sim window closed: the same
    #: simulated work on every run, however far the host got after it.
    window_rss_mb: float
    #: (host seconds, events, ops) of each whole chunk of the timed phase.
    chunks: list[tuple[float, int, int]]

    def ops_rate(self) -> float:
        """Median over chunks of completed operations per host second."""
        return statistics.median(ops / wall for wall, _, ops in self.chunks)

    def events_rate(self) -> float:
        """Median over chunks of kernel events per host second."""
        return statistics.median(
            events / wall for wall, events, _ in self.chunks)


def measure(scenario: Scenario, seconds: float, until: float | None = None,
            around: AbstractContextManager | None = None,
            pause: Callable[[float], None] | None = None) -> Measurement:
    """Warm up, then run slices until, at the end of a chunk, ``seconds``
    of host time have passed and the sim window is covered — or, with
    ``until``, exactly to that simulated time.

    ``around`` is entered for the timed phase only (the traced run's
    layer tracer records there).  ``pause`` is called between slices
    with the timed host seconds so far; the time it takes is left out
    of the timed phase (the untraced run takes set-up probes there).
    """
    sim = scenario.sim
    sim.run(until=scenario.warmup)
    events0, ops0 = sim.executed_events, scenario.ops()
    opening = scenario.tallies()
    t = scenario.warmup
    step = scenario.slice
    per_chunk = max(1, round(scenario.chunk / step))
    window_rss = 0.0
    chunks: list[tuple[float, int, int]] = []
    with around if around is not None else nullcontext():
        start = perf_counter()
        paused = 0.0
        mark = (0.0, events0, ops0)
        slices = 0
        while True:
            t += step
            sim.run(until=t)
            slices += 1
            chunk_done = slices % per_chunk == 0
            if chunk_done:
                timed = perf_counter() - start - paused
                chunks.append((timed - mark[0], sim.executed_events - mark[1],
                               scenario.ops() - mark[2]))
                mark = (timed, sim.executed_events, scenario.ops())
            if pause is not None:
                stopped = perf_counter()
                pause(stopped - start - paused)
                paused += perf_counter() - stopped
            if not window_rss and t >= scenario.window_end:
                window_rss = peak_rss_mb()
                closing = scenario.tallies()
                scenario.window_tallies = {
                    name: closing[name] - opening[name] for name in closing}
            if until is not None:
                if t >= until - 1e-9:
                    break
            elif (chunk_done and t >= scenario.window_end
                  and mark[0] >= seconds):
                break
        wall = perf_counter() - start - paused
    return Measurement(wall=wall, events=sim.executed_events - events0,
                       ops=scenario.ops() - ops0, sim_start=scenario.warmup,
                       sim_end=t, window_rss_mb=window_rss, chunks=chunks)


def peak_rss_mb() -> float:
    """This process's peak resident memory so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
