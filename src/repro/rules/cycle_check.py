"""Static cycle detection over the rule-induced calling tree.

A rule whose *action* matches another rule's *trigger* chains them; if
the chain ever reaches back to the first trigger the system could loop
forever.  FLO/C rejects such rule sets at parse time; so do we.
"""

from __future__ import annotations

from repro.errors import RuleCycleError
from repro.graph import DiGraph, find_cycle
from repro.rules.operators import Rule, RuleOperator

_ACTION_OPERATORS = (
    RuleOperator.IMPLIES,
    RuleOperator.IMPLIES_BEFORE,
    RuleOperator.IMPLIES_LATER,
)


def calling_graph(rules: list[Rule]) -> DiGraph:
    """Build the directed trigger→action graph of a rule set.

    Nodes are concrete ``component.operation`` strings; wildcard triggers
    are connected to any action they could match (conservative
    over-approximation: a wildcard trigger node is linked from every
    action that matches it).
    """
    graph = DiGraph()
    action_rules = [r for r in rules if r.operator in _ACTION_OPERATORS]
    for rule in action_rules:
        assert rule.action is not None
        trigger_node = str(rule.trigger)
        action_node = str(rule.action)
        graph.add_edge(trigger_node, action_node, rule=rule.name)
    # Wildcard matching: an action a chains to rule r if r's trigger
    # pattern matches a.  When the pattern is the same string as the
    # action they already share a node; a bridging edge is only needed
    # when a wildcard pattern names a distinct node.
    for rule in action_rules:
        assert rule.action is not None
        action_node = str(rule.action)
        for other in action_rules:
            trigger_node = str(other.trigger)
            if trigger_node == action_node:
                continue
            if other.trigger.matches(rule.action.component,
                                     rule.action.operation):
                graph.add_edge(action_node, trigger_node, rule=other.name)
    return graph


def check_acyclic(rules: list[Rule]) -> None:
    """Raise :class:`RuleCycleError` when the calling tree has a cycle."""
    graph = calling_graph(rules)
    cycle = find_cycle(graph)
    if cycle is None:
        return
    path = " -> ".join(edge[0] for edge in cycle) + f" -> {cycle[0][0]}"
    raise RuleCycleError(
        f"rule set would create a cycle in the calling tree: {path}"
    )


def is_acyclic(rules: list[Rule]) -> bool:
    """Boolean form of :func:`check_acyclic`."""
    try:
        check_acyclic(rules)
    except RuleCycleError:
        return False
    return True
