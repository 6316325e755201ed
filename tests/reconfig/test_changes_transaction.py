"""Unit tests for reconfiguration changes and transactions."""

import pytest

from repro.durability import assembly_document
from repro.errors import (
    ConsistencyError,
    QuiescenceError,
    ReconfigurationError,
)
from repro.events import Simulator
from repro.kernel import (
    Assembly,
    Interface,
    InterfaceAdapter,
    Operation,
)
from repro.netsim import star
from repro.reconfig import (
    AddBinding,
    AddComponent,
    MigrateComponent,
    ModifyInterface,
    RemoveBinding,
    RemoveComponent,
    ReplaceComponent,
    ReplaceImplementation,
    ReconfigurationTransaction,
    RewireBinding,
    StateTranslator,
    TransactionState,
    check_assembly,
)

from tests.helpers import CounterComponent, counter_interface


def fresh_counter(name):
    component = CounterComponent(name)
    component.provide("svc", counter_interface())
    return component


def fresh_client(name="client"):
    component = CounterComponent(name)
    component.provide("svc", counter_interface())
    component.require("peer", counter_interface())
    return component


def wired_assembly():
    sim = Simulator()
    assembly = Assembly(star(sim, leaves=3))
    client = assembly.deploy(fresh_client(), "leaf0")
    server = assembly.deploy(fresh_counter("server"), "leaf1")
    assembly.connect("client", "peer", target_component="server")
    return assembly, client, server


class TestAddRemove:
    def test_add_component(self):
        assembly, _c, _s = wired_assembly()
        txn = ReconfigurationTransaction(assembly).add(
            AddComponent(fresh_counter("extra"), "leaf2")
        )
        report = txn.execute()
        assert report.state is TransactionState.COMMITTED
        assert assembly.component("extra").node_name == "leaf2"

    def test_add_duplicate_rejected_in_validation(self):
        assembly, _c, _s = wired_assembly()
        txn = ReconfigurationTransaction(assembly).add(
            AddComponent(fresh_counter("server"), "leaf2")
        )
        with pytest.raises(ConsistencyError):
            txn.execute()
        assert txn.report.state is TransactionState.FAILED

    def test_add_to_down_node_rejected(self):
        assembly, _c, _s = wired_assembly()
        assembly.network.node("leaf2").crash()
        with pytest.raises(ConsistencyError):
            ReconfigurationTransaction(assembly).add(
                AddComponent(fresh_counter("x"), "leaf2")
            ).execute()

    def test_remove_component_requires_no_inbound_bindings(self):
        assembly, _c, _s = wired_assembly()
        with pytest.raises(ConsistencyError, match="rewire first"):
            ReconfigurationTransaction(assembly).add(
                RemoveComponent("server")
            ).execute()

    def test_remove_after_rewire(self):
        assembly, _c, _s = wired_assembly()
        replacement = fresh_counter("server2")
        txn = (ReconfigurationTransaction(assembly)
               .add(AddComponent(replacement, "leaf2"))
               .add(RewireBinding("client", "peer",
                                  target_component="server2"))
               .add(RemoveComponent("server")))
        report = txn.execute()
        assert report.state is TransactionState.COMMITTED
        assert "server" not in assembly.registry
        assert assembly.component("client").required_port("peer").call(
            "increment", 1) == 1
        assert replacement.state["total"] == 1


class TestBindingChanges:
    def test_add_and_remove_binding(self):
        assembly, _c, _s = wired_assembly()
        second = fresh_client("client2")
        assembly.deploy(second, "leaf2")
        ReconfigurationTransaction(assembly).add(
            AddBinding("client2", "peer", target_component="server")
        ).execute()
        assert second.required_port("peer").is_bound

        # A bare unbind would leave a dangling requirement; retiring the
        # client in the same transaction keeps the configuration whole.
        ReconfigurationTransaction(assembly).add(
            RemoveBinding("client2", "peer")
        ).add(
            RemoveComponent("client2")
        ).execute()
        assert "client2" not in assembly.registry

    def test_remove_binding_leaves_unbound_port_violation(self):
        # Removing the only binding of a required port breaks global
        # consistency, so the transaction rolls back.
        assembly, client, _s = wired_assembly()
        txn = ReconfigurationTransaction(assembly).add(
            RemoveBinding("client", "peer")
        )
        with pytest.raises(ConsistencyError, match="unbound"):
            txn.execute()
        assert txn.report.state is TransactionState.ROLLED_BACK
        assert client.required_port("peer").is_bound  # restored

    def test_rewire_redirects_traffic(self):
        assembly, client, server = wired_assembly()
        other = assembly.deploy(fresh_counter("other"), "leaf2")
        ReconfigurationTransaction(assembly).add(
            RewireBinding("client", "peer", target_component="other")
        ).execute()
        client.required_port("peer").call("increment", 5)
        assert other.state["total"] == 5
        assert server.state["total"] == 0

    def test_rewire_incompatible_target_rejected(self):
        assembly, _c, _s = wired_assembly()
        from repro.kernel import Component

        stranger = Component("stranger")
        stranger.provide("svc", Interface("Other", "1.0", [Operation("x")]))
        assembly.deploy(stranger, "leaf2")
        with pytest.raises(ConsistencyError):
            ReconfigurationTransaction(assembly).add(
                RewireBinding("client", "peer", target_component="stranger")
            ).execute()


class TestStrongReplacement:
    def test_replace_transfers_state_and_redirects(self):
        assembly, client, server = wired_assembly()
        client.required_port("peer").call("increment", 41)
        replacement = fresh_counter("server-v2")
        report = ReconfigurationTransaction(assembly).add(
            ReplaceComponent("server", replacement)
        ).execute()
        assert report.state is TransactionState.COMMITTED
        assert "server" not in assembly.registry
        # State carried over: next increment continues from 41.
        assert client.required_port("peer").call("increment", 1) == 42
        assert replacement.state["total"] == 42

    def test_replace_with_translator(self):
        assembly, client, _server = wired_assembly()
        client.required_port("peer").call("increment", 7)

        class CounterV2(CounterComponent):
            def on_initialize(self):
                self.state.setdefault("count", 0)

            def increment(self, amount=1):
                self.state["count"] += amount
                return self.state["count"]

            def total(self):
                return self.state["count"]

        replacement = CounterV2("server-v2")
        replacement.provide("svc", counter_interface())
        translator = StateTranslator(renames={"total": "count"})
        ReconfigurationTransaction(assembly).add(
            ReplaceComponent("server", replacement, translator=translator)
        ).execute()
        assert client.required_port("peer").call("total") == 7

    def test_replace_missing_port_rejected(self):
        assembly, _c, _s = wired_assembly()
        from repro.kernel import Component

        bad = Component("bad")
        bad.provide("other", counter_interface())
        with pytest.raises(ConsistencyError, match="lacks provided port"):
            ReconfigurationTransaction(assembly).add(
                ReplaceComponent("server", bad)
            ).execute()

    def test_no_message_loss_across_replacement(self):
        assembly, client, server = wired_assembly()
        binding = client.required_port("peer").binding
        sent = 0
        for _ in range(10):
            client.required_port("peer").call_async("increment", 1)
            sent += 1
        replacement = fresh_counter("server-v2")
        ReconfigurationTransaction(assembly).add(
            ReplaceComponent("server", replacement)
        ).execute()
        for _ in range(10):
            client.required_port("peer").call_async("increment", 1)
            sent += 1
        assert replacement.state["total"] == sent


class TestSameNameReplacement:
    def test_same_name_successor_is_rejected(self):
        assembly, client, server = wired_assembly()
        txn = ReconfigurationTransaction(assembly).add(
            ReplaceComponent("server", fresh_counter("server"),
                             node_name="leaf2")
        )
        with pytest.raises(ConsistencyError, match="needs a new name"):
            txn.execute()
        assert txn.report.state is TransactionState.FAILED
        assert assembly.component("server") is server
        assert server.node_name == "leaf1"
        assert server.lifecycle.can_serve
        assert [name for name, container in assembly.containers.items()
                if container.hosts("server")] == ["leaf1"]
        assert client.required_port("peer").binding.target.component is server
        assert [entry["name"] for entry in
                assembly_document(assembly)["components"]] \
            == ["client", "server"]


class TestImplementationAndInterface:
    def test_replace_implementation(self):
        assembly, client, server = wired_assembly()

        class TurboCounter:
            def __init__(self, state):
                self.state = state

            def increment(self, amount=1):
                self.state["total"] += amount * 2
                return self.state["total"]

            def total(self):
                return self.state["total"]

        ReconfigurationTransaction(assembly).add(
            ReplaceImplementation("server", "svc", TurboCounter(server.state))
        ).execute()
        assert client.required_port("peer").call("increment", 5) == 10

    def test_replace_implementation_missing_operation_rejected(self):
        assembly, _c, _s = wired_assembly()

        class Partial:
            def total(self):
                return 0

        with pytest.raises(ConsistencyError, match="lacks operation"):
            ReconfigurationTransaction(assembly).add(
                ReplaceImplementation("server", "svc", Partial())
            ).execute()

    def test_compatible_interface_evolution(self):
        assembly, _c, server = wired_assembly()
        new_interface = server.provided_port("svc").interface.evolve(
            add=[Operation("reset", ())]
        )
        ReconfigurationTransaction(assembly).add(
            ModifyInterface("server", "svc", new_interface)
        ).execute()
        assert "reset" in server.provided_port("svc").interface
        assert check_assembly(assembly).consistent

    def test_breaking_evolution_requires_adapter(self):
        assembly, _c, server = wired_assembly()
        breaking = Interface("Counter", "2.0", [
            Operation("add", ("amount", "source")),
            Operation("total", ()),
        ])
        with pytest.raises(ConsistencyError, match="no adapter"):
            ReconfigurationTransaction(assembly).add(
                ModifyInterface("server", "svc", breaking)
            ).execute()

    def test_breaking_evolution_with_adapter_keeps_callers_working(self):
        assembly, client, server = wired_assembly()
        breaking = Interface("Counter", "2.0", [
            Operation("add", ("amount", "source")),
            Operation("total", ()),
        ])

        class ServerV2:
            def __init__(self, state):
                self.state = state

            def add(self, amount, source):
                self.state["total"] += amount
                self.state.setdefault("sources", []).append(source)
                return self.state["total"]

            def total(self):
                return self.state["total"]

        adapter = InterfaceAdapter(
            old=server.provided_port("svc").interface,
            new=breaking,
            renames={"increment": "add"},
            defaults={"increment": ("legacy",)},
            fill_optional={"increment": (1,)},  # old default amount
        )
        # Interface first, then implementation: each change validates
        # against the configuration as evolved by its predecessors.
        txn = (ReconfigurationTransaction(assembly)
               .add(ModifyInterface("server", "svc", breaking, adapter))
               .add(ReplaceImplementation("server", "svc",
                                          ServerV2(server.state))))
        report = txn.execute()
        assert report.state is TransactionState.COMMITTED
        # Old caller still uses increment/1 — adapter translates.
        assert client.required_port("peer").call("increment", 5) == 5
        assert server.state["sources"] == ["legacy"]

    def test_adapter_must_supply_missing_defaults(self):
        assembly, _c, server = wired_assembly()
        breaking = Interface("Counter", "2.0", [
            Operation("add", ("amount", "source")),
            Operation("total", ()),
        ])
        unsound = InterfaceAdapter(
            old=server.provided_port("svc").interface,
            new=breaking,
            renames={"increment": "add"},  # no default for 'source'
        )
        with pytest.raises(ConsistencyError, match="unsound"):
            ReconfigurationTransaction(assembly).add(
                ModifyInterface("server", "svc", breaking, unsound)
            ).execute()


class TestTransactionMechanics:
    def test_double_execute_rejected(self):
        assembly, _c, _s = wired_assembly()
        txn = ReconfigurationTransaction(assembly).add(
            AddComponent(fresh_counter("x"), "leaf2")
        )
        txn.execute()
        with pytest.raises(ReconfigurationError):
            txn.execute()

    def test_busy_region_rejected_synchronously(self):
        assembly, _c, server = wired_assembly()
        server._active_calls = 1
        txn = ReconfigurationTransaction(assembly).add(
            ReplaceComponent("server", fresh_counter("server2"))
        )
        with pytest.raises(QuiescenceError):
            txn.execute()
        assert server.lifecycle.can_serve  # untouched

    def test_rollback_restores_architecture(self):
        assembly, client, server = wired_assembly()
        before = assembly.describe()
        other = fresh_counter("other")
        # Second change fails validation at apply time via a poisoned
        # change; craft failure with an inconsistent follow-up.
        txn = (ReconfigurationTransaction(assembly)
               .add(AddComponent(other, "leaf2"))
               .add(RemoveBinding("client", "peer")))  # -> unbound port
        with pytest.raises(ConsistencyError):
            txn.execute()
        assert txn.report.state is TransactionState.ROLLED_BACK
        assert "other" not in assembly.registry  # first change undone
        assert client.required_port("peer").is_bound
        client.required_port("peer").call("increment", 3)
        assert server.state["total"] == 3

    def test_report_records_changes_and_window(self):
        assembly, _c, _s = wired_assembly()
        txn = ReconfigurationTransaction(assembly, name="expand").add(
            AddComponent(fresh_counter("x"), "leaf2")
        )
        report = txn.execute()
        assert report.name == "expand"
        assert report.applied_changes == ["add x on leaf2"]
        assert txn.window_cost() > 0


class TestAsyncExecution:
    def test_async_execution_buffers_traffic_during_window(self):
        assembly, client, _server = wired_assembly()
        sim = assembly.sim
        results = []

        # Traffic every 1ms.
        def traffic():
            client.required_port("peer").call_async(
                "increment", 1, on_result=results.append
            )

        from repro.events import PeriodicTimer

        timer = PeriodicTimer(sim, 0.001, traffic)
        replacement = fresh_counter("server-v2")
        done = []
        sim.at(lambda: ReconfigurationTransaction(assembly).add(
            ReplaceComponent("server", replacement)
        ).execute_async(on_done=done.append), when=0.0105)
        sim.run(until=0.1)
        timer.stop()
        sim.run()
        assert done and done[0].state is TransactionState.COMMITTED
        # Every sent message was eventually served, in order.
        assert results == sorted(results)
        sent = 99  # 1ms ticks in (0, 0.1): t=0.001..0.099
        assert replacement.state["total"] + 0 == results[-1]
        assert len(results) == sent

    def test_async_reports_blocked_duration(self):
        assembly, _client, _server = wired_assembly()
        sim = assembly.sim
        done = []
        ReconfigurationTransaction(assembly).add(
            ReplaceComponent("server", fresh_counter("server-v2"))
        ).execute_async(on_done=done.append)
        sim.run()
        report = done[0]
        assert report.state is TransactionState.COMMITTED
        assert report.blocked_duration > 0
