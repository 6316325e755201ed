"""Per-layer spans, timed from outside the program.

:class:`LayerTracer` replaces the public entry points of each layer
module (listed in :data:`TARGETS`) with wrappers that record one span
per call: start, end, and the span that was open when the call began
(its parent).  A span's *self time* is its duration minus the time its
child spans cover, so the self times of all spans plus the time spent
outside any span add up to the traced wall time exactly.

The wrappers exist only between :meth:`LayerTracer.install` and
:meth:`LayerTracer.uninstall`; ``uninstall`` puts every original
function object back, so the untraced runs execute the program
unmodified.  The traced run installs before it builds its scenario, so
callbacks bound at build time (periodic timers hold ``raml.sweep``)
are wrappers too, and records only while the tracer is entered as a
context manager; outside it the wrappers just call through.
Aggregates (self time and call count per function) cover every call;
the first :data:`KEEP_SPANS` spans are kept whole for the Chrome
trace-event export.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

#: (layer, module, qualified name) of every wrapped function.  Methods
#: are wrapped on the class that defines them; module functions in the
#: module that *calls* them when the caller imported the name.
TARGETS: list[tuple[str, str, str]] = [
    ("events", "repro.events.simulator", "Simulator.run"),
    ("kernel", "repro.kernel.component", "ProvidedPort.invoke"),
    ("kernel", "repro.kernel.component", "RequiredPort.call"),
    ("kernel", "repro.kernel.component", "RequiredPort.call_async"),
    ("kernel", "repro.kernel.component", "Component.dispatch"),
    ("kernel", "repro.kernel.binding", "Binding.call"),
    ("kernel", "repro.kernel.binding", "Binding.call_async"),
    ("kernel", "repro.kernel.binding", "Binding.unblock"),
    ("connectors", "repro.connectors.connector", "Connector.invoke_from"),
    ("connectors", "repro.connectors.connector", "Connector.route"),
    ("connectors", "repro.connectors.builtin", "LoadBalancerConnector.route"),
    ("filters", "repro.filters.filter", "Filter.apply"),
    ("aspects", "repro.aspects.aspect", "Aspect.pieces_for"),
    ("aspects", "repro.aspects.weaver", "_execute"),
    ("metaobjects", "repro.metaobjects.metaobject", "MetaObject.apply"),
    ("middleware", "repro.middleware.proxy", "RemoteProxy.call"),
    ("middleware", "repro.middleware.orb", "Orb.call"),
    ("middleware", "repro.middleware.orb", "Orb._transmit"),
    ("middleware", "repro.middleware.orb", "Orb._serve"),
    ("middleware", "repro.middleware.orb", "Orb._resolve"),
    ("middleware", "repro.middleware.orb", "Orb._on_timeout"),
    ("netsim", "repro.netsim.network", "Network.send"),
    ("netsim", "repro.netsim.network", "Network.route"),
    ("netsim", "repro.netsim.network", "Network._forward"),
    ("netsim", "repro.netsim.network", "Network._arrive"),
    ("netsim", "repro.netsim.network", "Network._rebuild_graph"),
    ("netsim", "repro.netsim.node", "Node.deliver"),
    ("netsim", "repro.netsim.partition", "RegionNetwork.send"),
    ("netsim", "repro.netsim.partition", "RegionNetwork.ingress"),
    ("netsim", "repro.netsim.partition", "RegionNetwork._forward_leg"),
    ("netsim", "repro.netsim.partition", "RegionNetwork._egress"),
    ("core", "repro.core.raml", "Raml.sweep"),
    ("core", "repro.core.introspection", "IntrospectionHub.emit"),
    ("core", "repro.core.constraints", "Constraint.evaluate"),
    ("qos", "repro.qos.metrics", "MetricRegistry.record"),
    ("qos", "repro.qos.monitor", "QosMonitor.check_now"),
    ("qos", "repro.qos.contract", "QosContract.evaluate"),
    ("adaptation", "repro.adaptation.manager", "AdaptationManager.evaluate"),
    ("adaptation", "repro.adaptation.policy", "AdaptationPolicy.fire"),
    ("reconfig", "repro.reconfig.transaction",
     "ReconfigurationTransaction.execute_async"),
    ("reconfig", "repro.reconfig.transaction",
     "ReconfigurationTransaction._finish"),
    ("reconfig", "repro.reconfig.transaction",
     "ReconfigurationTransaction._rollback"),
    ("reconfig", "repro.reconfig.transaction", "check_assembly"),
    ("reconfig", "repro.reconfig.changes", "ReplaceComponent.apply"),
    ("reconfig", "repro.reconfig.changes", "ReplaceComponent.commit"),
    ("reconfig", "repro.reconfig.migration", "MigrateComponent.apply"),
    ("reconfig", "repro.reconfig.quiescence", "QuiescenceRegion.block"),
    ("reconfig", "repro.reconfig.quiescence", "QuiescenceRegion.release"),
    ("reconfig", "repro.reconfig.quiescence", "QuiescenceRegion.passivate"),
    ("durability", "repro.durability.wal", "WriteAheadLog.journal"),
    ("durability", "repro.durability.wal", "WriteAheadLog.snapshot"),
    ("durability", "repro.durability.checksum", "assembly_checksum"),
    ("parallel", "repro.parallel.coordinator", "ParallelSimulation.run"),
    ("parallel", "repro.parallel.coordinator",
     "ParallelSimulation._roundtrip"),
]

LAYERS: list[str] = list(dict.fromkeys(layer for layer, _m, _q in TARGETS))

#: Spans kept whole for the trace-event export; aggregates cover all.
KEEP_SPANS = 50_000

#: The installed tracer, if any: the wrappers patch shared classes, so at
#: most one tracer is installed per process (a forked region worker finds
#: the coordinator's here).
ACTIVE: "LayerTracer | None" = None


def resolve(module_name: str, qualname: str) -> tuple[Any, str]:
    """(owner, attribute name) of a :data:`TARGETS` entry."""
    owner: Any = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attribute not in vars(owner):
        raise AttributeError(f"{module_name}.{qualname} is not defined there")
    return owner, attribute


class LayerTracer:
    """Wraps every :data:`TARGETS` function and accounts its spans."""

    def __init__(self) -> None:
        count = len(TARGETS)
        self.self_ns = [0] * count
        self.total_ns = [0] * count
        self.calls = [0] * count
        #: Kept spans: (function index, start ns, end ns, id, parent id).
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.route_pairs: set[tuple[str, str]] = set()
        self.route_distinct = 0
        self.wall_ns = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 1
        self._originals: list[tuple[Any, str, Any]] = []
        self._recording = [False]
        self._started = 0

    # -- installation -------------------------------------------------------

    def install(self) -> "LayerTracer":
        global ACTIVE
        if ACTIVE is not None:
            raise RuntimeError("a layer tracer is already installed")
        for index, (_layer, module_name, qualname) in enumerate(TARGETS):
            owner, attribute = resolve(module_name, qualname)
            original = vars(owner)[attribute]
            if not callable(original):
                raise TypeError(f"{module_name}.{qualname} is not a function")
            observe = self._observe_route if qualname == "Network.route" \
                else self._observe_rebuild if qualname.endswith(
                    "._rebuild_graph") else None
            setattr(owner, attribute, self._wrap(original, index, observe))
            self._originals.append((owner, attribute, original))
        ACTIVE = self
        return self

    def uninstall(self) -> None:
        global ACTIVE
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()
        if ACTIVE is self:
            ACTIVE = None

    def __enter__(self) -> "LayerTracer":
        """Start recording (installing first if needed)."""
        if ACTIVE is not self:
            self.install()
        self._recording[0] = True
        self._started = perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall_ns += perf_counter_ns() - self._started
        self._recording[0] = False

    # -- recording ----------------------------------------------------------

    def _observe_route(self, args: tuple) -> None:
        self.route_pairs.add((args[1], args[2]))

    def _observe_rebuild(self, _args: tuple) -> None:
        self.route_distinct += len(self.route_pairs)
        self.route_pairs.clear()

    def _wrap(self, fn: Callable, index: int,
              observe: Callable[[tuple], None] | None) -> Callable:
        stack = self._stack
        self_ns, total_ns, calls = self.self_ns, self.total_ns, self.calls
        spans = self.spans
        recording = self._recording

        def wrapper(*args, **kwargs):
            if not recording[0]:
                return fn(*args, **kwargs)
            if observe is not None:
                observe(args)
            parent = stack[-1][0] if stack else 0
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self_ns[index] += duration - frame[1]
                total_ns[index] += duration
                calls[index] += 1
                if stack:
                    stack[-1][1] += duration
                if len(spans) < KEEP_SPANS:
                    spans.append((index, start, end, span_id, parent))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        return wrapper

    def reset(self) -> None:
        """Zero the aggregates (a forked worker starts its own account)."""
        for series in (self.self_ns, self.total_ns, self.calls):
            series[:] = [0] * len(series)
        self.spans.clear()
        self.route_pairs.clear()
        self.route_distinct = 0

    # -- reading --------------------------------------------------------------

    def index(self, qualname: str) -> int:
        for index, (_layer, _module, name) in enumerate(TARGETS):
            if name == qualname:
                return index
        raise KeyError(qualname)

    def layer_self_ns(self, layer: str) -> int:
        return sum(self.self_ns[i] for i, (name, _m, _q) in enumerate(TARGETS)
                   if name == layer)

    def calls_of(self, qualname: str) -> int:
        return self.calls[self.index(qualname)]

    def route_reuse_ratio(self) -> float:
        calls = self.calls_of("Network.route")
        distinct = self.route_distinct + len(self.route_pairs)
        return 1.0 - distinct / calls if calls else 0.0

    def account(self) -> dict[str, Any]:
        """Plain-data aggregates (picklable, for worker reports)."""
        return {
            "self_ns": list(self.self_ns),
            "total_ns": list(self.total_ns),
            "calls": list(self.calls),
            "route_distinct": self.route_distinct + len(self.route_pairs),
        }

    def add(self, account: dict[str, Any]) -> None:
        """Fold another process's :meth:`account` into this one."""
        for name in ("self_ns", "total_ns", "calls"):
            series = getattr(self, name)
            for index, value in enumerate(account[name]):
                series[index] += value
        self.route_distinct += account["route_distinct"]

    def write_chrome_trace(self, path: Path) -> None:
        """Write the kept spans as a Chrome trace-event document
        (opens in Perfetto / chrome://tracing)."""
        events = []
        for index, start, end, span_id, parent in self.spans:
            layer, _module, qualname = TARGETS[index]
            events.append({
                "name": qualname, "cat": layer, "ph": "X",
                "ts": start / 1e3, "dur": (end - start) / 1e3,
                "pid": 1, "tid": 1,
                "args": {"span": span_id, "parent": parent},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
