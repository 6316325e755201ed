"""Property-based tests for engines: rules, metrics, paths, control,
reconfiguration rollback."""

import hypothesis.strategies as st
import networkx as nx
from hypothesis import given, settings

from repro.control import PidController
from repro.paths import PathFamily, PathPlanner, ServiceOption
from repro.qos import MetricSeries
from repro.rules import CallAction, CallPattern, Rule, RuleOperator, is_acyclic


# ---------------------------------------------------------------------------
# Rule cycle detection vs a networkx oracle
# ---------------------------------------------------------------------------

nodes = st.sampled_from([f"c{i}.op" for i in range(5)])


@given(st.lists(st.tuples(nodes, nodes), min_size=1, max_size=10))
@settings(max_examples=80, deadline=None)
def test_cycle_detection_matches_graph_oracle(edges):
    rules = [
        Rule(f"r{i}", CallPattern.parse(trigger), RuleOperator.IMPLIES,
             action=CallAction.parse(action))
        for i, (trigger, action) in enumerate(edges)
    ]
    oracle = nx.DiGraph()
    oracle.add_edges_from(edges)
    oracle_acyclic = nx.is_directed_acyclic_graph(oracle)
    assert is_acyclic(rules) == oracle_acyclic


# ---------------------------------------------------------------------------
# Metric series invariants
# ---------------------------------------------------------------------------

samples = st.lists(
    st.tuples(st.floats(0.0, 100.0), st.floats(-1000.0, 1000.0)),
    min_size=1, max_size=50,
)


@given(samples, st.floats(0.5, 20.0))
@settings(max_examples=80, deadline=None)
def test_metric_statistics_within_window_bounds(raw, window):
    series = MetricSeries("m", window=window)
    ordered = sorted(raw, key=lambda pair: pair[0])
    for time, value in ordered:
        series.record(value, now=time)
    if series.empty:
        return
    live = list(series.values())
    slack = 1e-9 * max(1.0, max(abs(v) for v in live))  # float rounding
    assert series.minimum() == min(live)
    assert series.maximum() == max(live)
    assert min(live) - slack <= series.mean() <= max(live) + slack
    for q in (0, 50, 95, 100):
        assert min(live) - slack <= series.percentile(q) <= max(live) + slack


@given(samples)
@settings(max_examples=60, deadline=None)
def test_percentiles_are_monotone_in_q(raw):
    series = MetricSeries("m", window=1000.0)
    for time, value in sorted(raw, key=lambda pair: pair[0]):
        series.record(value, now=time)
    quantiles = [series.percentile(q) for q in (0, 25, 50, 75, 95, 100)]
    assert quantiles == sorted(quantiles)


# ---------------------------------------------------------------------------
# Path planner optimality vs exhaustive enumeration
# ---------------------------------------------------------------------------

@st.composite
def random_family(draw):
    stage_count = draw(st.integers(1, 3))
    stages = [f"stage{i}" for i in range(stage_count)]
    family = PathFamily("f", stages)
    formats = ["x", "y", "*"]
    option_id = 0
    for stage in stages:
        for _ in range(draw(st.integers(1, 3))):
            family.add_option(ServiceOption(
                f"o{option_id}", stage, lambda v: v,
                input_format=draw(st.sampled_from(formats)),
                output_format=draw(st.sampled_from(formats)),
                latency=draw(st.floats(0.1, 10.0)),
                quality=draw(st.floats(0.0, 1.0)),
                bandwidth_required=draw(st.floats(0.0, 5.0)),
            ))
            option_id += 1
    return family


@given(random_family(), st.floats(0.0, 6.0), st.floats(0.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_planner_matches_exhaustive_optimum(family, bandwidth, quality_weight):
    from repro.errors import PathError

    context = {"bandwidth": bandwidth}
    candidates = family.all_paths(context)

    def cost(path):
        return sum(o.latency - quality_weight * o.quality for o in path.options)

    planner = PathPlanner(family, quality_weight=quality_weight)
    if not candidates:
        try:
            planner.plan(context)
            assert False, "planner found a path enumeration missed"
        except PathError:
            return
    best = min(cost(path) for path in candidates)
    planned = planner.plan(context)
    assert cost(planned) <= best + 1e-9


# ---------------------------------------------------------------------------
# PID convergence on monotone first-order plants
# ---------------------------------------------------------------------------

@given(st.floats(0.1, 1.0), st.floats(1.0, 50.0), st.floats(0.05, 0.4))
@settings(max_examples=40, deadline=None)
def test_pid_converges_on_monotone_plant(plant_gain, setpoint, kp_scale):
    pid = PidController(kp=kp_scale / plant_gain, ki=0.1 / plant_gain,
                        setpoint=setpoint)
    value = 0.0
    for step in range(400):
        value += plant_gain * pid.update(value, float(step))
    assert abs(value - setpoint) < 0.05 * max(setpoint, 1.0)


# ---------------------------------------------------------------------------
# Reconfiguration rollback restores the architecture graph
# ---------------------------------------------------------------------------

@given(st.integers(0, 3), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_rollback_restores_architecture_graph(extra_components, extra_wires):
    import pytest

    from repro.errors import ConsistencyError
    from repro.events import Simulator
    from repro.kernel import Assembly
    from repro.netsim import full_mesh
    from repro.reconfig import (
        AddComponent,
        ReconfigurationTransaction,
        RemoveBinding,
    )
    from tests.helpers import CounterComponent, counter_interface

    sim = Simulator()
    assembly = Assembly(full_mesh(sim, size=4))

    def fresh(name, with_requirement=False):
        component = CounterComponent(name)
        component.provide("svc", counter_interface())
        if with_requirement:
            component.require("peer", counter_interface())
        return component

    assembly.deploy(fresh("client", with_requirement=True), "n0")
    assembly.deploy(fresh("server"), "n1")
    assembly.connect("client", "peer", target_component="server")
    for index in range(extra_components):
        assembly.deploy(fresh(f"extra{index}"), f"n{index % 4}")

    before = assembly.architecture_graph()

    txn = ReconfigurationTransaction(assembly)
    for index in range(extra_wires + 1):
        txn.add(AddComponent(fresh(f"new{index}"), "n2"))
    txn.add(RemoveBinding("client", "peer"))  # guarantees a violation

    with pytest.raises(ConsistencyError):
        txn.execute()

    after = assembly.architecture_graph()
    assert set(before.nodes) == set(after.nodes)
    assert set(before.edges) == set(after.edges)
