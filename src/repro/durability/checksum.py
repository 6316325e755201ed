"""Deterministic configuration checksums.

Crash recovery's acceptance rule is *no hybrids*: a recovered assembly
must equal the pre-reconfiguration configuration or the
post-reconfiguration configuration, bit for bit.  The witness is a
content-addressed (Merkle) sha256 of the canonical document
:func:`assembly_document` — components (placement, lifecycle, state,
ports), bindings, and connector attachments::

    checksum = sha256(sha256(canonical_json(header)) ‖ leaf(c1) ‖ … ‖ leaf(cn))
    leaf(c)  = sha256(canonical_json(entry))

``header`` is the document's ``name``, ``bindings`` and ``connectors``;
``c1 … cn`` are its component entries in name order; ``‖`` joins raw
32-byte digests.  ``entry`` is the document's component entry except
that ``state`` maps each key to the hex sha256 of its value's canonical
JSON.  Two assemblies built by the same deterministic builder hash
identically; any applied-but-uncommitted change shows up as a different
digest.  Logs journaled under the earlier whole-document digest
(``sha256(canonical_json(document))``) do not verify against this one.

The split is what makes the checksum cheap: a per-assembly cache keeps
``name → (fingerprint, leaf)``, so a call costs one fingerprint per
component plus fresh hashing only for the components whose entry
changed.  A leaf is reused only for *flat* state — exact-``str`` keys,
values of exact type ``str``/``int``/``bool``/``None`` — whose equality
implies equal JSON; anything else is re-hashed on every call.
"""

from __future__ import annotations

import hashlib
import weakref
from operator import attrgetter
from typing import Any

from repro.durability.store import canonical_json
from repro.errors import StoreError
from repro.kernel.assembly import Assembly
from repro.kernel.component import Component

#: Value types whose ``==`` (at equal type) implies equal canonical JSON.
_FLAT = frozenset({str, int, bool, type(None)})
_STR = frozenset({str})

_by_name = attrgetter("name")


def _canon(value: Any, owner: str) -> Any:
    """Reduce arbitrary component state to a deterministic JSON shape.

    Raises :class:`StoreError` when two keys of one mapping render as
    the same string: merging them would let distinct states share a
    checksum.
    """
    if isinstance(value, dict):
        canon: dict[str, Any] = {}
        for key, val in value.items():
            text = str(key)
            if text in canon:
                raise StoreError(
                    f"state of component {owner!r} has two keys rendered "
                    f"as {text!r} (one is {key!r})")
            canon[text] = _canon(val, owner)
        return canon
    if isinstance(value, (list, tuple)):
        return [_canon(item, owner) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(item) for item in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # Arbitrary objects hash by type, not repr: reprs embed addresses.
    return f"<{type(value).__name__}>"


def _target_name(target: Any) -> str:
    qualified = getattr(target, "qualified_name", None)
    return qualified if qualified else f"<{type(target).__name__}>"


def _required(component: Component) -> dict[str, str | None]:
    return {
        name: (_target_name(port.binding.target)
               if port.binding is not None else None)
        for name, port in component.required.items()
    }


def _entry(component: Component, state: Any) -> dict[str, Any]:
    return {
        "name": component.name,
        "node": component.node_name,
        "lifecycle": component.lifecycle.state.value,
        "state": state,
        "provided": sorted(component.provided),
        "required": _required(component),
    }


def _header(assembly: Assembly) -> dict[str, Any]:
    connectors = {}
    for name, connector in sorted(assembly.connectors.items()):
        connectors[name] = {
            "kind": connector.kind,
            "attachments": {
                role: sorted(_target_name(a.target) for a in attachments)
                for role, attachments in sorted(
                    connector.attachments.items())
            },
        }
    return {
        "name": assembly.name,
        "bindings": sorted(binding.describe() for binding in assembly.bindings),
        "connectors": connectors,
    }


def assembly_document(assembly: Assembly) -> dict[str, Any]:
    """The canonical structure :func:`assembly_checksum` digests."""
    document = _header(assembly)
    document["components"] = [
        _entry(component, _canon(component.state, component.name))
        for component in sorted(assembly.registry, key=_by_name)
    ]
    return document


def _digest(value: Any) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


class _LeafCache:
    """One assembly's leaves, rebuilt by every checksum of it."""

    __slots__ = ("leaves", "hashed")

    def __init__(self) -> None:
        #: name → (fingerprint or None, leaf digest).
        self.leaves: dict[str, tuple[tuple | None, bytes]] = {}
        #: Leaves hashed afresh over the cache's life (reuses excluded).
        self.hashed = 0


#: Keyed weakly: the cache must not keep an assembly alive, and holds
#: fingerprints and digests only, never a component.
_CACHES: "weakref.WeakKeyDictionary[Assembly, _LeafCache]" = (
    weakref.WeakKeyDictionary())


def _fingerprint(component: Component) -> tuple | None:
    """Everything the leaf depends on, or ``None`` unless state is flat."""
    state: Any = component.state
    if state:
        kinds = tuple(map(type, state.values()))
        if not (_FLAT.issuperset(kinds) and _STR.issuperset(map(type, state))):
            return None
        state = (tuple(state.items()), kinds)
    else:
        state = ()
    required = (tuple(_required(component).items())
                if component.required else ())
    return (component.node_name, component.lifecycle.state,
            tuple(component.provided), required, state)


def _leaf(component: Component, memo: dict[str, str]) -> bytes:
    state = {}
    for key, value in _canon(component.state, component.name).items():
        if type(value) is str:
            digest = memo.get(value)
            if digest is None:
                digest = memo[value] = _digest(value)
        else:
            digest = _digest(value)
        state[key] = digest
    entry = canonical_json(_entry(component, state))
    return hashlib.sha256(entry.encode("utf-8")).digest()


def assembly_checksum(assembly: Assembly) -> str:
    """Hex Merkle sha256 of the assembly's canonical configuration."""
    cache = _CACHES.get(assembly)
    if cache is None:
        cache = _CACHES[assembly] = _LeafCache()
    previous = cache.leaves
    leaves: dict[str, tuple[tuple | None, bytes]] = {}
    memo: dict[str, str] = {}
    header = canonical_json(_header(assembly)).encode("utf-8")
    root = hashlib.sha256(hashlib.sha256(header).digest())
    for component in sorted(assembly.registry, key=_by_name):
        fingerprint = _fingerprint(component)
        cached = previous.get(component.name)
        if (fingerprint is not None and cached is not None
                and cached[0] == fingerprint):
            leaf = cached[1]
        else:
            leaf = _leaf(component, memo)
            cache.hashed += 1
        leaves[component.name] = (fingerprint, leaf)
        root.update(leaf)
    cache.leaves = leaves
    return root.hexdigest()
