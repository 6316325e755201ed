"""Deterministic configuration checksums."""

import gc
import hashlib
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.durability import (
    MemoryStore,
    WriteAheadLog,
    assembly_checksum,
    assembly_document,
    canonical_json,
)
from repro.durability import checksum as checksum_module
from repro.errors import StoreError
from repro.reconfig import (
    Change,
    MigrateComponent,
    ReconfigurationTransaction,
    ReplaceComponent,
    TransactionState,
)

from tests.durability.helpers import (
    build_assembly,
    build_changes,
    fresh_client,
    fresh_counter,
)


def oracle(assembly):
    """The checksum recomputed from :func:`assembly_document` alone."""
    document = assembly_document(assembly)
    header = {key: document[key] for key in ("name", "bindings", "connectors")}
    root = hashlib.sha256(
        hashlib.sha256(canonical_json(header).encode()).digest())
    for entry in document["components"]:
        state = {key: hashlib.sha256(canonical_json(value).encode()).hexdigest()
                 for key, value in entry["state"].items()}
        leaf = canonical_json(dict(entry, state=state)).encode()
        root.update(hashlib.sha256(leaf).digest())
    return root.hexdigest()


def hashed(assembly):
    """Leaves hashed afresh so far for ``assembly`` (0 before any call)."""
    cache = checksum_module._CACHES.get(assembly)
    return cache.hashed if cache is not None else 0


class Exploding(Change):
    description = "exploding change"

    def apply(self, assembly):
        raise RuntimeError("boom")


class TestChecksum:
    def test_same_builder_same_checksum(self):
        assert assembly_checksum(build_assembly()) \
            == assembly_checksum(build_assembly())

    def test_checksum_is_hex_sha256(self):
        checksum = assembly_checksum(build_assembly())
        assert len(checksum) == 64
        int(checksum, 16)

    def test_reconfiguration_changes_the_checksum(self):
        assembly = build_assembly()
        before = assembly_checksum(assembly)
        txn = ReconfigurationTransaction(assembly)
        for change in build_changes(assembly):
            txn.add(change)
        txn.execute()
        assert assembly_checksum(assembly) != before

    def test_state_mutation_changes_the_checksum(self):
        assembly = build_assembly()
        before = assembly_checksum(assembly)
        assembly.component("server").state["total"] = 99
        assert assembly_checksum(assembly) != before

    def test_checksum_matches_the_document_oracle(self):
        assembly = build_assembly()
        assert assembly_checksum(assembly) == oracle(assembly)
        txn = ReconfigurationTransaction(assembly)
        for change in build_changes(assembly):
            txn.add(change)
        txn.execute()
        assert assembly_checksum(assembly) == oracle(assembly)

    def test_equal_values_of_other_types_differ(self):
        digests = set()
        assembly = build_assembly()
        server = assembly.component("server")
        for value in (1, True, 1.0, "1", 0.0, -0.0):
            server.state["total"] = value
            digests.add(assembly_checksum(assembly))
            assert assembly_checksum(assembly) == oracle(assembly)
        assert len(digests) == 6

    def test_distinct_strings_of_one_length_in_one_call(self):
        assembly = build_assembly()
        assembly.component("client").state["codec"] = "x" * 64
        assembly.component("server").state["codec"] = "y" * 64
        assert assembly_checksum(assembly) == oracle(assembly)


class TestLeafCache:
    def test_unchanged_assembly_rehashes_nothing(self):
        assembly = build_assembly()
        assembly_checksum(assembly)
        assert hashed(assembly) == 2
        assembly_checksum(assembly)
        assert hashed(assembly) == 2

    def test_one_state_write_rehashes_one_leaf(self):
        assembly = build_assembly()
        assembly_checksum(assembly)
        assembly.component("server").state["total"] += 1
        assembly_checksum(assembly)
        assert hashed(assembly) == 3

    def test_non_flat_state_is_rehashed_every_call(self):
        assembly = build_assembly()
        assembly.component("server").state["log"] = [1]
        assembly_checksum(assembly)
        assembly_checksum(assembly)
        assert hashed(assembly) == 2 + 1

    def test_cache_size_follows_the_registry(self):
        assembly = build_assembly()
        assembly.deploy(fresh_counter("extra"), "leaf2")
        assembly_checksum(assembly)
        assert len(checksum_module._CACHES[assembly].leaves) == 3
        assembly.undeploy("extra")
        assembly_checksum(assembly)
        assert len(checksum_module._CACHES[assembly].leaves) \
            == len(assembly.registry) == 2

    def test_cache_does_not_keep_the_assembly_alive(self):
        assembly = build_assembly()
        assembly_checksum(assembly)
        ref = weakref.ref(assembly)
        del assembly
        gc.collect()
        assert ref() is None


class TestKeyCollisions:
    def test_keys_rendered_alike_raise(self):
        assembly = build_assembly()
        assembly.component("server").state.update({1: "a", "1": "b"})
        with pytest.raises(StoreError, match=r"'server'.*'1'"):
            assembly_checksum(assembly)
        with pytest.raises(StoreError, match="'server'"):
            assembly_document(assembly)

    def test_nested_collision_raises(self):
        assembly = build_assembly()
        assembly.component("server").state["map"] = {2: 0, "2": 1}
        with pytest.raises(StoreError, match="'server'"):
            assembly_checksum(assembly)

    def test_journaled_transaction_fails_at_its_intent(self):
        assembly = build_assembly()
        assembly.component("server").state.update({1: "a", "1": "b"})
        wal = WriteAheadLog(MemoryStore())
        txn = ReconfigurationTransaction(assembly, name="txn-1", wal=wal)
        for change in build_changes(assembly):
            txn.add(change)
        with pytest.raises(StoreError):
            txn.execute()
        assert txn.report.state is TransactionState.FAILED
        assert wal.phases("txn-1") == []
        assert "extra" not in assembly.registry

    def test_non_colliding_keys_keep_their_digest(self):
        assembly = build_assembly()
        assembly.component("server").state[2] = "b"
        assert assembly_checksum(assembly) == oracle(assembly)


class TestDocument:
    def test_components_sorted_by_name(self):
        document = assembly_document(build_assembly())
        names = [entry["name"] for entry in document["components"]]
        assert names == sorted(names)
        assert names == ["client", "server"]

    def test_document_captures_placement_and_state(self):
        document = assembly_document(build_assembly())
        server = next(entry for entry in document["components"]
                      if entry["name"] == "server")
        assert server["node"] == "leaf1"
        assert server["state"]["total"] == 7

    def test_document_captures_bindings(self):
        document = assembly_document(build_assembly())
        assert document["bindings"]
        assert any("client" in line for line in document["bindings"])


# -- differential: cached checksum ≡ document oracle after every step --------

NODES = ("leaf0", "leaf1", "leaf2")
KEYS = ("total", "a", "b")
BIG = 4096


def _value(kind):
    return {
        "one": lambda: 1,
        "true": lambda: True,
        "float-one": lambda: 1.0,
        "zero": lambda: 0.0,
        "neg-zero": lambda: -0.0,
        "nan": lambda: math.nan,
        "none": lambda: None,
        # Equal content, distinct objects: one built by repetition, one
        # by joining, so identity never stands in for equality.
        "big": lambda: "x" * BIG,
        "big-joined": lambda: "".join(["x"] * BIG),
        "big-other": lambda: "y" * BIG,
        "list": lambda: [1, 2],
    }[kind]()


def _twin(value):
    """A value ``==`` to ``value`` whose canonical JSON may differ."""
    if type(value) is bool:
        return int(value)
    if type(value) is int:
        return True if value == 1 else float(value)
    if type(value) is float:
        return -value if value == 0 else int(value) \
            if value.is_integer() else value
    if type(value) is str:
        return "".join(list(value))  # equal content, another object
    return value


def _pick(assembly, index):
    names = assembly.registry.names()
    return assembly.component(names[index % len(names)]) if names else None


def _run(assembly, *changes):
    txn = ReconfigurationTransaction(assembly)
    for change in changes:
        txn.add(change)
    try:
        txn.execute()
    except Exception:  # noqa: BLE001 - any outcome must still checksum right
        pass


def _step(assembly, step, serial):
    op, index, arg = step
    component = _pick(assembly, index)
    if component is None:
        assembly.deploy(fresh_counter(f"c{serial}"), NODES[index % 3])
        return
    state = component.state
    if op == "set":
        state[KEYS[index % 3]] = _value(arg)
    elif op == "append":
        items = state.get("a")
        if isinstance(items, list):
            items.append(index)
        else:
            state["a"] = [index]
    elif op == "twin":
        key = KEYS[index % 3]
        if key in state:
            state[key] = _twin(state[key])
    elif op == "delete":
        state.pop(KEYS[index % 3], None)
    elif op == "lifecycle":
        if component.lifecycle.can_serve:
            component.passivate()
        elif component.lifecycle.is_quiescent:
            component.activate()
    elif op == "rewire":
        client = assembly.component("client") \
            if "client" in assembly.registry else None
        if client is None or "peer" not in client.required:
            return
        port = client.required_port("peer")
        if port.is_bound:
            assembly.disconnect(port.binding)
        elif "svc" in component.provided:
            assembly.connect("client", "peer", target=component.provided["svc"])
    elif op == "replace":
        name = component.name if arg == "same" else f"c{serial}"
        _run(assembly, ReplaceComponent(component.name, fresh_counter(name),
                                        node_name=NODES[index % 3]))
    elif op == "migrate":
        _run(assembly, MigrateComponent(component.name, NODES[index % 3]))
    elif op == "redeploy":
        name = component.name
        assembly.undeploy(name)
        fresh = fresh_client(name) if arg == "client" else fresh_counter(name)
        assembly.deploy(fresh, NODES[index % 3])
    elif op == "rollback":
        _run(assembly, ReplaceComponent(component.name,
                                        fresh_counter(f"c{serial}"),
                                        node_name=NODES[index % 3]),
             Exploding())


STEPS = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 2),
              st.sampled_from(["one", "true", "float-one", "zero", "neg-zero",
                               "nan", "none", "big", "big-joined", "big-other",
                               "list"])),
    st.tuples(st.sampled_from(["twin", "append", "delete", "lifecycle",
                               "rewire", "migrate"]),
              st.integers(0, 2), st.none()),
    st.tuples(st.just("replace"), st.integers(0, 2),
              st.sampled_from(["same", "new"])),
    st.tuples(st.just("redeploy"), st.integers(0, 2),
              st.sampled_from(["client", "counter"])),
    st.tuples(st.just("rollback"), st.integers(0, 2), st.none()),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(STEPS, max_size=12))
def test_cached_checksum_matches_oracle_after_every_step(steps):
    assembly = build_assembly()
    assert assembly_checksum(assembly) == oracle(assembly)
    for serial, step in enumerate(steps):
        _step(assembly, step, serial)
        assert assembly_checksum(assembly) == oracle(assembly), step
        assert set(checksum_module._CACHES[assembly].leaves) \
            == set(assembly.registry.names())
