"""Meta-object chains with validated composition.

Composition is a constrained topological sort: explicit
``must_precede``/``must_follow`` relations are hard edges, priorities
break remaining ties, and the validator enforces exclusivity groups,
mandatory members and unambiguous ordering of modificatory wrappers —
the "proper composition of meta objects" [Pawl99, Blay02].
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.errors import ChainOrderError, MetaObjectError
from repro.graph import (
    DiGraph,
    descendants,
    find_cycle,
    lexicographic_topological_sort,
)
from repro.kernel.component import Invocation
from repro.metaobjects.metaobject import MetaObject


def validate(metaobjects: Sequence[MetaObject],
             required: Iterable[str] = ()) -> None:
    """Check a candidate set for composability (before ordering).

    Raises :class:`MetaObjectError`/:class:`ChainOrderError` describing
    the first violation found.
    """
    names = [m.name for m in metaobjects]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise MetaObjectError(f"duplicate meta-object names: {duplicates}")

    present = set(names)
    for name in required:
        if name not in present:
            raise MetaObjectError(f"mandatory meta-object {name!r} is missing")
    for metaobject in metaobjects:
        if metaobject.mandatory and metaobject.name not in present:
            raise MetaObjectError(
                f"mandatory meta-object {metaobject.name!r} is missing"
            )

    groups: dict[str, list[str]] = {}
    for metaobject in metaobjects:
        if metaobject.exclusive_group:
            groups.setdefault(metaobject.exclusive_group, []).append(metaobject.name)
    for group, members in groups.items():
        if len(members) > 1:
            raise MetaObjectError(
                f"exclusive group {group!r} has multiple members: "
                f"{sorted(members)}"
            )

    for metaobject in metaobjects:
        for other in metaobject.must_precede | metaobject.must_follow:
            if other not in present:
                raise ChainOrderError(
                    f"meta-object {metaobject.name!r} is ordered against "
                    f"unknown wrapper {other!r}"
                )


def order(metaobjects: Sequence[MetaObject],
          strict_modificatory: bool = True) -> list[MetaObject]:
    """Compute a valid total order for the chain.

    Hard constraints come from ``must_precede``/``must_follow``; the
    remaining freedom is resolved by (priority desc, declaration order).
    With ``strict_modificatory`` two modificatory wrappers must be
    related (directly or transitively) by constraints or distinct
    priorities, otherwise their effect would depend on accidental order.
    """
    validate(metaobjects)
    by_name = {m.name: m for m in metaobjects}
    graph = DiGraph()
    for name in by_name:
        graph.add_node(name)
    for metaobject in metaobjects:
        for later in metaobject.must_precede:
            graph.add_edge(metaobject.name, later)
        for earlier in metaobject.must_follow:
            graph.add_edge(earlier, metaobject.name)

    cycle = find_cycle(graph)
    if cycle is not None:
        path = " -> ".join(edge[0] for edge in cycle) + f" -> {cycle[0][0]}"
        raise ChainOrderError(f"ordering constraints form a cycle: {path}")

    if strict_modificatory:
        modificatory = [m for m in metaobjects if m.modificatory]
        reach = {m.name: descendants(graph, m.name) for m in modificatory}
        for i, first in enumerate(modificatory):
            for second in modificatory[i + 1:]:
                related = (
                    second.name in reach[first.name]
                    or first.name in reach[second.name]
                    or first.priority != second.priority
                )
                if not related:
                    raise ChainOrderError(
                        f"modificatory meta-objects {first.name!r} and "
                        f"{second.name!r} are unordered; add a constraint "
                        "or distinct priorities"
                    )

    declaration_index = {m.name: i for i, m in enumerate(metaobjects)}

    def sort_key(name: str) -> tuple[int, int]:
        metaobject = by_name[name]
        return (-metaobject.priority, declaration_index[name])

    ordered_names = lexicographic_topological_sort(graph, key=sort_key)
    return [by_name[name] for name in ordered_names]


class MetaChain:
    """A live, revalidating chain installed as one interceptor."""

    def __init__(self, name: str,
                 metaobjects: Sequence[MetaObject] = (),
                 strict_modificatory: bool = True) -> None:
        self.name = name
        self.strict_modificatory = strict_modificatory
        self._declared: list[MetaObject] = []
        self._ordered: list[MetaObject] = []
        for metaobject in metaobjects:
            self._declared.append(metaobject)
        self._recompose()

    def _recompose(self) -> None:
        self._ordered = order(self._declared, self.strict_modificatory)

    # -- runtime composition ------------------------------------------------

    def add(self, metaobject: MetaObject) -> None:
        """Insert a wrapper; the chain re-validates and re-orders."""
        self._declared.append(metaobject)
        try:
            self._recompose()
        except (MetaObjectError, ChainOrderError):
            self._declared.remove(metaobject)
            raise

    def remove(self, name: str) -> MetaObject:
        """Remove a wrapper by name (mandatory wrappers refuse)."""
        for metaobject in self._declared:
            if metaobject.name == name:
                if metaobject.mandatory:
                    raise MetaObjectError(
                        f"meta-object {name!r} is mandatory and cannot be "
                        "removed"
                    )
                self._declared.remove(metaobject)
                self._recompose()
                return metaobject
        raise MetaObjectError(f"chain {self.name!r} has no meta-object {name!r}")

    @property
    def order_names(self) -> list[str]:
        return [m.name for m in self._ordered]

    def __len__(self) -> int:
        return len(self._ordered)

    # -- execution ----------------------------------------------------------

    def interceptor(self) -> Callable[[Invocation, Callable], Any]:
        """Compile the chain into a single interceptor (live view)."""

        def run(invocation: Invocation, proceed: Callable[[Invocation], Any],
                _position: int = 0, _snapshot: list[MetaObject] | None = None
                ) -> Any:
            chain = self._ordered if _snapshot is None else _snapshot
            if _position < len(chain):
                return chain[_position].apply(
                    invocation,
                    lambda inner: run(inner, proceed, _position + 1, chain),
                )
            return proceed(invocation)

        run.meta_chain = self  # type: ignore[attr-defined]
        return run
