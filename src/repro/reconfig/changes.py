"""Reconfiguration change classes.

One class per change category in the paper's taxonomy:

* **structural** — :class:`AddComponent`, :class:`RemoveComponent`,
  :class:`AddBinding`, :class:`RemoveBinding`, :class:`RewireBinding`,
  :class:`SwapConnector`;
* **geographical** — :class:`MigrateComponent`;
* **interface modification** — :class:`ModifyInterface`;
* **implementation modification** — :class:`ReplaceImplementation` and
  the strong-reconfiguration :class:`ReplaceComponent` (state transfer).

Every change knows how to validate itself against the target assembly,
apply, revert (for transactional rollback) and estimate its simulated
cost — the time the reconfiguration window must stay open.
"""

from __future__ import annotations

from typing import Any

from repro.errors import (
    ConsistencyError,
    InterfaceError,
    ReconfigurationError,
)
from repro.kernel.assembly import Assembly
from repro.kernel.binding import Binding, bind
from repro.kernel.component import Component, Invocable, Invocation
from repro.kernel.descriptor import DeploymentDescriptor
from repro.kernel.interface import Interface, InterfaceAdapter
from repro.kernel.lifecycle import LifecycleState
from repro.reconfig.state_transfer import (
    StateTranslator,
    state_size,
    transfer_state,
)

#: Simulated seconds charged per change by default.
DEFAULT_CHANGE_COST = 0.002


class Change:
    """Base class for reconfiguration changes."""

    description = "change"

    def validate(self, assembly: Assembly) -> None:
        """Raise :class:`ConsistencyError` if the change cannot apply."""

    def apply(self, assembly: Assembly) -> None:
        raise NotImplementedError

    def revert(self, assembly: Assembly) -> None:
        raise NotImplementedError

    def cost(self) -> float:
        """Simulated time this change keeps the region frozen."""
        return DEFAULT_CHANGE_COST

    def affected_components(self, assembly: Assembly) -> list[Component]:
        """Components that must be quiescent while the change applies."""
        return []

    def journal_payload(self, assembly: Assembly) -> dict[str, Any]:
        """Extra fields for this change's write-ahead apply record.

        Called just before :meth:`apply`, so implementations may capture
        pre-mutation facts (source node, state schema) that recovery and
        audits want durable.
        """
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.description})"


class AddComponent(Change):
    """Structural: deploy a new component onto a node."""

    def __init__(self, component: Component, node_name: str,
                 descriptor: DeploymentDescriptor | None = None) -> None:
        self.component = component
        self.node_name = node_name
        self.descriptor = descriptor
        self.description = f"add {component.name} on {node_name}"

    def validate(self, assembly: Assembly) -> None:
        if self.component.name in assembly.registry:
            raise ConsistencyError(
                f"component {self.component.name!r} already exists"
            )
        if self.node_name not in assembly.network.nodes:
            raise ConsistencyError(f"unknown node {self.node_name!r}")
        if not assembly.network.node(self.node_name).up:
            raise ConsistencyError(f"node {self.node_name!r} is down")

    def apply(self, assembly: Assembly) -> None:
        assembly.deploy(self.component, self.node_name, self.descriptor)

    def revert(self, assembly: Assembly) -> None:
        assembly.undeploy(self.component.name)


class RemoveComponent(Change):
    """Structural: undeploy a component (its bindings must be gone)."""

    def __init__(self, component_name: str) -> None:
        self.component_name = component_name
        self.description = f"remove {component_name}"
        self._removed: Component | None = None
        self._node: str | None = None
        self._descriptor: DeploymentDescriptor | None = None

    def validate(self, assembly: Assembly) -> None:
        if self.component_name not in assembly.registry:
            raise ConsistencyError(
                f"component {self.component_name!r} does not exist"
            )
        dangling = assembly.bindings_to(self.component_name)
        if dangling:
            raise ConsistencyError(
                f"cannot remove {self.component_name!r}: "
                f"{len(dangling)} binding(s) still target it — rewire first"
            )

    def affected_components(self, assembly: Assembly) -> list[Component]:
        return [assembly.component(self.component_name)]

    def apply(self, assembly: Assembly) -> None:
        component = assembly.component(self.component_name)
        self._node = component.node_name
        container = assembly.containers[component.node_name]
        self._descriptor = container.descriptors[self.component_name]
        self._removed, _descriptor = container.detach(self.component_name)
        self._removed.stop()

    def revert(self, assembly: Assembly) -> None:
        if self._removed is None or self._node is None:
            return
        # A stopped component cannot be restarted; redeploy a shell with
        # the same name is impossible without a factory, so revert keeps
        # the original alive by never stopping until commit.  We instead
        # recreate registration for rollback support.
        raise ReconfigurationError(
            f"RemoveComponent({self.component_name!r}) cannot be reverted "
            "after the component was stopped; order removals last"
        )


class AddBinding(Change):
    """Structural: bind a required port to a provider."""

    def __init__(self, source_component: str, required_port: str,
                 target: Invocable | None = None,
                 target_component: str | None = None,
                 target_port: str = "svc") -> None:
        self.source_component = source_component
        self.required_port = required_port
        self.target = target
        self.target_component = target_component
        self.target_port = target_port
        self.description = f"bind {source_component}.{required_port}"
        self._binding: Binding | None = None

    def validate(self, assembly: Assembly) -> None:
        source = assembly.component(self.source_component)
        port = source.required_port(self.required_port)
        if port.is_bound:
            raise ConsistencyError(
                f"{self.source_component}.{self.required_port} is already "
                "bound; use RewireBinding"
            )
        target = self._resolve_target(assembly)
        if not target.interface.satisfies(port.interface):
            raise ConsistencyError(
                f"target does not satisfy "
                f"{self.source_component}.{self.required_port}"
            )

    def _resolve_target(self, assembly: Assembly) -> Invocable:
        if self.target is not None:
            return self.target
        if self.target_component is None:
            raise ConsistencyError("AddBinding needs a target")
        return assembly.component(self.target_component).provided_port(
            self.target_port
        )

    def affected_components(self, assembly: Assembly) -> list[Component]:
        return [assembly.component(self.source_component)]

    def apply(self, assembly: Assembly) -> None:
        self._binding = assembly.connect(
            self.source_component, self.required_port,
            target=self._resolve_target(assembly),
        )

    def revert(self, assembly: Assembly) -> None:
        if self._binding is not None:
            assembly.disconnect(self._binding)
            self._binding = None


class RemoveBinding(Change):
    """Structural: unbind a required port."""

    def __init__(self, source_component: str, required_port: str) -> None:
        self.source_component = source_component
        self.required_port = required_port
        self.description = f"unbind {source_component}.{required_port}"
        self._old_target: Invocable | None = None

    def validate(self, assembly: Assembly) -> None:
        port = assembly.component(self.source_component).required_port(
            self.required_port
        )
        if not port.is_bound:
            raise ConsistencyError(
                f"{self.source_component}.{self.required_port} is not bound"
            )

    def affected_components(self, assembly: Assembly) -> list[Component]:
        return [assembly.component(self.source_component)]

    def apply(self, assembly: Assembly) -> None:
        port = assembly.component(self.source_component).required_port(
            self.required_port
        )
        self._old_target = port.binding.target
        assembly.disconnect(port.binding)

    def revert(self, assembly: Assembly) -> None:
        if self._old_target is not None:
            assembly.connect(self.source_component, self.required_port,
                             target=self._old_target)
            self._old_target = None


class RewireBinding(Change):
    """Structural: modify a connection — redirect a live binding."""

    def __init__(self, source_component: str, required_port: str,
                 new_target: Invocable | None = None,
                 target_component: str | None = None,
                 target_port: str = "svc") -> None:
        self.source_component = source_component
        self.required_port = required_port
        self.new_target = new_target
        self.target_component = target_component
        self.target_port = target_port
        self.description = f"rewire {source_component}.{required_port}"
        self._old_target: Invocable | None = None

    def _resolve_target(self, assembly: Assembly) -> Invocable:
        if self.new_target is not None:
            return self.new_target
        if self.target_component is None:
            raise ConsistencyError("RewireBinding needs a target")
        return assembly.component(self.target_component).provided_port(
            self.target_port
        )

    def validate(self, assembly: Assembly) -> None:
        port = assembly.component(self.source_component).required_port(
            self.required_port
        )
        if not port.is_bound:
            raise ConsistencyError(
                f"{self.source_component}.{self.required_port} is not bound"
            )
        target = self._resolve_target(assembly)
        if not target.interface.satisfies(port.interface):
            raise ConsistencyError(
                "new target does not satisfy "
                f"{self.source_component}.{self.required_port}"
            )

    def affected_components(self, assembly: Assembly) -> list[Component]:
        return [assembly.component(self.source_component)]

    def apply(self, assembly: Assembly) -> None:
        binding = assembly.component(self.source_component).required_port(
            self.required_port
        ).binding
        self._old_target = binding.target
        binding.redirect(self._resolve_target(assembly))

    def revert(self, assembly: Assembly) -> None:
        if self._old_target is None:
            return
        binding = assembly.component(self.source_component).required_port(
            self.required_port
        ).binding
        binding.redirect(self._old_target, check_compatibility=False)
        self._old_target = None


class ReplaceComponent(Change):
    """Strong dynamic reconfiguration: hot-swap a stateful component.

    The replacement is initialised from the predecessor's captured state
    (optionally through a :class:`StateTranslator`), every binding that
    targeted the predecessor is redirected, and the predecessor is
    passivated (stopped only at commit, so rollback can resurrect it).
    """

    def __init__(self, old_name: str, new_component: Component,
                 node_name: str | None = None,
                 descriptor: DeploymentDescriptor | None = None,
                 translator: StateTranslator | None = None,
                 transfer: bool = True) -> None:
        self.old_name = old_name
        self.new_component = new_component
        self.node_name = node_name
        self.descriptor = descriptor
        self.translator = translator
        self.transfer = transfer
        self.description = f"replace {old_name} with {new_component.name}"
        #: Optional durable-snapshot hook: called with the translated
        #: state snapshot before it is restored into the successor.  A
        #: WAL-journaled transaction wires this to the store, so a crash
        #: mid-transfer leaves the shipped state recoverable.
        self.snapshot_journal: Any = None
        self._redirected: list[tuple[Binding, Invocable]] = []
        self._reattached: list[tuple[Any, str, Invocable, Invocable]] = []
        self._old: Component | None = None

    def validate(self, assembly: Assembly) -> None:
        if self.old_name not in assembly.registry:
            raise ConsistencyError(f"component {self.old_name!r} does not exist")
        if self.new_component.name == self.old_name:
            # Predecessor and successor coexist until commit, and the
            # registry holds one component per name.
            raise ConsistencyError(
                f"replacement of {self.old_name!r} needs a new name"
            )
        if self.new_component.name in assembly.registry:
            raise ConsistencyError(
                f"replacement name {self.new_component.name!r} is taken"
            )
        old = assembly.component(self.old_name)
        for binding in assembly.bindings_to(self.old_name):
            old_port = binding.target
            port_name = getattr(old_port, "name", None)
            if port_name is None or port_name not in self.new_component.provided:
                raise ConsistencyError(
                    f"replacement {self.new_component.name!r} lacks provided "
                    f"port {port_name!r} needed by {binding.describe()}"
                )
            new_port = self.new_component.provided[port_name]
            if not new_port.interface.satisfies(binding.source.interface):
                raise ConsistencyError(
                    f"replacement port {port_name!r} does not satisfy "
                    f"{binding.source.qualified_name}"
                )
        for _connector, role_name, old_target in self._old_attachments(assembly):
            port_name = getattr(old_target, "name", None)
            if port_name is None or port_name not in self.new_component.provided:
                raise ConsistencyError(
                    f"replacement {self.new_component.name!r} lacks provided "
                    f"port {port_name!r} attached to connector role "
                    f"{role_name!r}"
                )

    def _old_attachments(self, assembly: Assembly):
        """Connector attachments whose target is a port of the old
        component — they must follow the replacement too."""
        for connector in assembly.connectors.values():
            for role_name, attachments in connector.attachments.items():
                for attachment in list(attachments):
                    owner = getattr(attachment.target, "component", None)
                    if owner is not None and owner.name == self.old_name:
                        yield connector, role_name, attachment.target

    def affected_components(self, assembly: Assembly) -> list[Component]:
        return [assembly.component(self.old_name)]

    def cost(self) -> float:
        # Encoding + re-initialisation cost grows with state size.
        base = DEFAULT_CHANGE_COST
        if self._old is not None:
            base += state_size(self._old) / 1_000_000.0
        return base

    def journal_payload(self, assembly: Assembly) -> dict[str, Any]:
        old = assembly.component(self.old_name)
        return {
            "old": self.old_name,
            "new": self.new_component.name,
            "transfer": self.transfer,
            "state_keys": sorted(str(key) for key in old.state),
        }

    def apply(self, assembly: Assembly) -> None:
        old = assembly.component(self.old_name)
        self._old = old
        node_name = self.node_name or old.node_name
        if self.transfer:
            # Transfer before initialisation: the snapshot is installed
            # wholesale, then ``on_initialize`` (conventionally written
            # with ``setdefault``) fills any keys the predecessor's
            # schema never had.
            transfer_state(old, self.new_component, self.translator,
                           journal=self.snapshot_journal)
            if self.new_component.lifecycle.state is LifecycleState.CREATED:
                self.new_component.initialize()
        assembly.deploy(self.new_component, node_name, self.descriptor)
        for binding in assembly.bindings_to(self.old_name):
            old_target = binding.target
            port_name = getattr(old_target, "name")
            binding.redirect(self.new_component.provided[port_name])
            self._redirected.append((binding, old_target))
        for connector, role_name, old_target in self._old_attachments(assembly):
            new_target = self.new_component.provided[old_target.name]
            connector.detach(role_name, old_target)
            connector.attach(role_name, new_target, check_behaviour=False)
            self._reattached.append((connector, role_name, old_target,
                                     new_target))
        if old.lifecycle.state is LifecycleState.ACTIVE:
            old.passivate()

    def revert(self, assembly: Assembly) -> None:
        for binding, old_target in self._redirected:
            binding.redirect(old_target, check_compatibility=False)
        self._redirected.clear()
        for connector, role_name, old_target, new_target in self._reattached:
            connector.detach(role_name, new_target)
            connector.attach(role_name, old_target, check_behaviour=False)
        self._reattached.clear()
        if self.new_component.name in assembly.registry:
            assembly.undeploy(self.new_component.name)
        if self._old is not None and self._old.lifecycle.is_quiescent:
            self._old.lifecycle.transition(LifecycleState.ACTIVE)
        self._old = None

    def commit(self, assembly: Assembly) -> None:
        """Finalise: undeploy and stop the predecessor."""
        if self._old is not None and self._old.name in assembly.registry:
            assembly.undeploy(self._old.name)


class ReplaceImplementation(Change):
    """Implementation modification: swap a port's internals in place."""

    def __init__(self, component_name: str, port_name: str,
                 new_implementation: Any) -> None:
        self.component_name = component_name
        self.port_name = port_name
        self.new_implementation = new_implementation
        self.description = f"reimplement {component_name}.{port_name}"
        self._old_implementation: Any = None

    def validate(self, assembly: Assembly) -> None:
        component = assembly.component(self.component_name)
        port = component.provided_port(self.port_name)
        for operation in port.interface.operations:
            if not callable(getattr(self.new_implementation, operation, None)):
                raise ConsistencyError(
                    f"new implementation of {self.component_name}."
                    f"{self.port_name} lacks operation {operation!r}"
                )

    def affected_components(self, assembly: Assembly) -> list[Component]:
        return [assembly.component(self.component_name)]

    def apply(self, assembly: Assembly) -> None:
        component = assembly.component(self.component_name)
        self._old_implementation = component._implementations[self.port_name]
        component.replace_implementation(self.port_name, self.new_implementation)

    def revert(self, assembly: Assembly) -> None:
        if self._old_implementation is not None:
            assembly.component(self.component_name).replace_implementation(
                self.port_name, self._old_implementation
            )
            self._old_implementation = None


class ModifyInterface(Change):
    """Interface modification: evolve a provided port's interface.

    For compatible (minor) evolutions the port interface is simply
    replaced.  For breaking evolutions an :class:`InterfaceAdapter` must
    be supplied; an interceptor translating old-style calls is installed
    so existing callers keep working.
    """

    def __init__(self, component_name: str, port_name: str,
                 new_interface: Interface,
                 adapter: InterfaceAdapter | None = None) -> None:
        self.component_name = component_name
        self.port_name = port_name
        self.new_interface = new_interface
        self.adapter = adapter
        self.description = (
            f"modify interface {component_name}.{port_name} -> "
            f"v{new_interface.version}"
        )
        self._old_interface: Interface | None = None
        self._interceptor: Any = None

    def validate(self, assembly: Assembly) -> None:
        component = assembly.component(self.component_name)
        port = component.provided_port(self.port_name)
        if self.new_interface.satisfies(port.interface):
            return
        if self.adapter is None:
            raise ConsistencyError(
                f"new interface v{self.new_interface.version} breaks "
                f"v{port.interface.version} and no adapter was supplied"
            )
        try:
            self.adapter.verify()
        except InterfaceError as exc:
            raise ConsistencyError(f"interface adapter is unsound: {exc}") from exc

    def affected_components(self, assembly: Assembly) -> list[Component]:
        return [assembly.component(self.component_name)]

    def apply(self, assembly: Assembly) -> None:
        component = assembly.component(self.component_name)
        port = component.provided_port(self.port_name)
        self._old_interface = port.interface
        port.interface = self.new_interface
        if self.adapter is not None:
            adapter = self.adapter

            def translate(invocation: Invocation, proceed: Any) -> Any:
                # Old-style calls (operation and arity match the legacy
                # interface) are adapted; new-style calls pass through.
                if invocation.operation in adapter.old:
                    legacy = adapter.old.operation(invocation.operation)
                    if legacy.accepts_arity(len(invocation.args)):
                        name, args = adapter.translate(
                            invocation.operation, invocation.args
                        )
                        invocation = Invocation(name, args, invocation.kwargs,
                                                meta=invocation.meta,
                                                caller=invocation.caller)
                return proceed(invocation)

            port.add_interceptor(translate, index=0)
            port.adapters.append(adapter)
            self._interceptor = translate

    def revert(self, assembly: Assembly) -> None:
        component = assembly.component(self.component_name)
        port = component.provided_port(self.port_name)
        if self._old_interface is not None:
            port.interface = self._old_interface
            self._old_interface = None
        if self._interceptor is not None:
            port.remove_interceptor(self._interceptor)
            self._interceptor = None
        if self.adapter is not None and self.adapter in port.adapters:
            port.adapters.remove(self.adapter)


class SwapConnector(Change):
    """Structural: interchange a connector while keeping participants."""

    def __init__(self, old_name: str, new_connector: Any,
                 role_mapping: dict[str, str] | None = None) -> None:
        self.old_name = old_name
        self.new_connector = new_connector
        self.role_mapping = role_mapping or {}
        self.description = f"swap connector {old_name} -> {new_connector.name}"
        self._old_connector: Any = None
        self._rebound: list[tuple[Binding, Invocable]] = []

    def validate(self, assembly: Assembly) -> None:
        if self.old_name not in assembly.connectors:
            raise ConsistencyError(f"no connector named {self.old_name!r}")
        old = assembly.connectors[self.old_name]
        for role_name in old.roles:
            new_role = self.role_mapping.get(role_name, role_name)
            if new_role not in self.new_connector.roles:
                raise ConsistencyError(
                    f"new connector lacks role {new_role!r} "
                    f"(mapped from {role_name!r})"
                )

    def apply(self, assembly: Assembly) -> None:
        from repro.connectors.roles import RoleKind

        old = assembly.connectors[self.old_name]
        self._old_connector = old
        # Move callee attachments.
        for role_name, attachments in old.attachments.items():
            new_role = self.role_mapping.get(role_name, role_name)
            for attachment in list(attachments):
                self.new_connector.attach(new_role, attachment.target,
                                          weight=attachment.weight,
                                          check_behaviour=False)
        # Re-point caller bindings from old endpoints to new ones.
        for binding in assembly.bindings:
            target_connector = getattr(binding.target, "connector", None)
            if target_connector is old:
                role_name = binding.target.role.name
                new_role = self.role_mapping.get(role_name, role_name)
                self._rebound.append((binding, binding.target))
                binding.redirect(self.new_connector.endpoint(new_role),
                                 check_compatibility=False)
        assembly.remove_connector(self.old_name)
        assembly.add_connector(self.new_connector)
        old.enabled = False

    def revert(self, assembly: Assembly) -> None:
        if self._old_connector is None:
            return
        for binding, endpoint in self._rebound:
            binding.redirect(endpoint, check_compatibility=False)
        self._rebound.clear()
        if self.new_connector.name in assembly.connectors:
            assembly.remove_connector(self.new_connector.name)
        assembly.add_connector(self._old_connector)
        self._old_connector.enabled = True
        self._old_connector = None
