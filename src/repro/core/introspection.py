"""Introspection: the observation side of RAML.

The figure in the paper shows "RAML streams" carrying introspection data
from serving components and connectors up to the meta-level.  The
:class:`IntrospectionHub` is that stream: it taps ports, connectors,
bindings, the registry and the network, normalises everything into
:class:`ObservationEvent` records, and fans them out to subscribers
(metric recorders, trace checkers, loggers).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Any, Callable, NamedTuple

from repro.events import Simulator
from repro.kernel.binding import Binding
from repro.kernel.component import Component, Invocation, ProvidedPort
from repro.kernel.registry import Registry
from repro.netsim.network import Network


class ObservationEvent(NamedTuple):
    """One normalised introspection record (an immutable tuple)."""

    time: float
    source: str       # e.g. "port:server.svc", "connector:rpc", "network"
    kind: str         # e.g. "call", "error", "register", "drop:loss"
    operation: str = ""
    details: tuple = ()


#: ``ObservationEvent(...)`` minus the generated ``__new__``'s Python
#: frame: :meth:`IntrospectionHub.emit` always passes every field.
_new_event = tuple.__new__

#: Port and connector observer phase → observation kind.
_PHASE_KIND = {"before": "call", "after": "return", "error": "error"}


class IntrospectionHub:
    """Collects and fans out observation events."""

    def __init__(self, sim: Simulator, buffer_size: int = 10_000) -> None:
        self.sim = sim
        self.events: deque[ObservationEvent] = deque(maxlen=buffer_size)
        self.counts: Counter[str] = Counter()
        #: Replaced, never mutated, by :meth:`subscribe`: a fan-out in
        #: progress keeps the subscribers it started with.
        self.subscribers: tuple[Callable[[ObservationEvent], None], ...] = ()
        self._tapped: set[int] = set()

    def emit(self, source: str, kind: str, operation: str = "",
             details: tuple = ()) -> None:
        event = _new_event(ObservationEvent,
                           (self.sim.now, source, kind, operation, details))
        self.events.append(event)
        self.counts[kind] += 1
        for subscriber in self.subscribers:
            subscriber(event)

    def subscribe(self, subscriber: Callable[[ObservationEvent], None]) -> None:
        self.subscribers += (subscriber,)

    # -- taps -----------------------------------------------------------------

    def tap_port(self, port: ProvidedPort) -> None:
        """Observe every call phase on a provided port."""
        if id(port) in self._tapped:
            return
        self._tapped.add(id(port))
        source = f"port:{port.qualified_name}"

        def observer(phase: str, invocation: Invocation, payload: Any) -> None:
            self.emit(source, _PHASE_KIND[phase], invocation.operation)

        port.observers.append(observer)

    def tap_component(self, component: Component) -> None:
        for port in component.provided.values():
            self.tap_port(port)
        component.lifecycle.observers.append(
            lambda old, new: self.emit(
                f"component:{component.name}", "lifecycle", str(new)
            )
        )

    def tap_connector(self, connector: Any) -> None:
        if id(connector) in self._tapped:
            return
        self._tapped.add(id(connector))
        source = f"connector:{connector.name}"

        def observer(phase: str, role: str, invocation: Invocation,
                     payload: Any) -> None:
            self.emit(source, _PHASE_KIND[phase], invocation.operation,
                      details=(role,))

        connector.observers.append(observer)

    def tap_binding(self, binding: Binding) -> None:
        if id(binding) in self._tapped:
            return
        self._tapped.add(id(binding))
        source = f"binding:{binding.describe()}"

        def tap(invocation: Invocation, payload: Any, ok: bool) -> None:
            self.emit(source, "call" if ok else "error", invocation.operation)

        binding.taps.append(tap)

    def tap_registry(self, registry: Registry) -> None:
        registry.observers.append(
            lambda event, component: self.emit(
                "registry", event, component.name
            )
        )

    def tap_network(self, network: Network) -> None:
        network.taps.append(
            lambda event, message: self.emit(
                "network", event, message.endpoint,
                details=(message.source, message.destination),
            )
        )

    # -- queries -----------------------------------------------------------------

    def _audit_query(self, query: str, **fields: Any) -> None:
        """Every introspection query is a meta-level decision input —
        record it in the decision audit when telemetry is on."""
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.record_audit("raml.introspect", query=query, **fields)

    def recent(self, count: int = 100) -> list[ObservationEvent]:
        self._audit_query("recent", count=count,
                          returned=min(count, len(self.events)))
        return list(self.events)[-count:]

    def count(self, kind: str) -> int:
        result = self.counts.get(kind, 0)
        self._audit_query("count", kind=kind, result=result)
        return result

    def error_ratio(self) -> float:
        calls = self.counts.get("call", 0)
        errors = self.counts.get("error", 0)
        total = calls + errors
        ratio = errors / total if total else 0.0
        self._audit_query("error_ratio", calls=calls, errors=errors,
                          result=ratio)
        return ratio


class TraceConformance:
    """Checks observed call sequences against declared behaviour models.

    For every attached component with a ``behaviour`` LTS, each provided
    call advances a set of possible states (nondeterministic simulation
    on operation names).  A call with no enabled transition is recorded
    as a conformance violation — the RAML "checking the compliancy of
    each application with its behavioral constraints".
    """

    def __init__(self) -> None:
        self._states: dict[str, set[str]] = {}
        self._models: dict[str, Any] = {}
        self.violations: list[tuple[str, str]] = []

    def attach(self, component: Component) -> None:
        if component.behaviour is None:
            return
        self._models[component.name] = component.behaviour
        self._states[component.name] = {component.behaviour.initial}
        name = component.name

        def observer(phase: str, invocation: Invocation, payload: Any) -> None:
            if phase == "before":
                self.observe_call(name, invocation.operation)

        for port in component.provided.values():
            port.observers.append(observer)

    def observe_call(self, component_name: str, operation: str) -> bool:
        """Advance the model; returns False (and records) on violation."""
        model = self._models.get(component_name)
        if model is None:
            return True
        current = self._states[component_name]
        successors: set[str] = set()
        for state in current:
            successors |= model.successors(state, operation)
        if not successors:
            self.violations.append((component_name, operation))
            # Re-anchor at the initial state so later calls keep being
            # checked rather than cascading failures.
            self._states[component_name] = {model.initial}
            return False
        self._states[component_name] = successors
        return True

    def conforming(self, component_name: str) -> bool:
        return not any(name == component_name
                       for name, _op in self.violations)
