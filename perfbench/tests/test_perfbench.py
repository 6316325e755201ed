"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
Every test uses shrunken workloads and the held-out seed, a seed no
workload parameter was tuned on.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import harness, layers, run, sharded
from perfbench.churn import ChurnLarge
from perfbench.common import measure
from perfbench.mesh import Backend, MeshSteady

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Never used while choosing workload sizes, rates or bounds.
HELD_OUT_SEED = 9001


class TinyMesh(MeshSteady):
    CLIENTS = 8
    window_end = 3.0


class TinyChurn(ChurnLarge):
    RACKS = 4
    HOSTS_PER_RACK = 6
    SERVICES = 4
    BACKGROUND_PER_HOST = 2
    ARRIVAL_RATE = 10.0
    warmup = 1.0
    window_end = 4.0


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and keep trace files out of the checkout."""
    monkeypatch.setattr(harness, "SCENARIOS", {
        TinyMesh.name: TinyMesh, TinyChurn.name: TinyChurn})
    monkeypatch.setattr(harness, "TRACE_DIR", tmp_path)
    monkeypatch.setattr(sharded, "MESSAGES", 2000)
    monkeypatch.setattr(sharded, "UNTIL", 2.0)
    return tmp_path


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_the_metrics_the_harness_prints():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] \
        == harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] \
        == harness.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(harness.WORKLOADS)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(tiny, capsys, workload):
    code = run.main(["--workload", workload, "--seed", str(HELD_OUT_SEED),
                     "--seconds", "0.2", "--trace", "0"])
    line = _last_line(capsys)
    assert code == 0 and line["correct"], line
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} \
        == dict(harness.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_unwraps(tiny, capsys,
                                                          workload):
    originals = {(module, qualname): vars(owner)[attribute]
                 for _layer, module, qualname in layers.TARGETS
                 for owner, attribute in [layers.resolve(module, qualname)]}
    code = run.main(["--workload", workload, "--seed", str(HELD_OUT_SEED),
                     "--trace", "1"])
    line = _last_line(capsys)
    assert code == 0 and line["correct"], line
    assert {name: m["unit"] for name, m in line["metrics"].items()} \
        == dict(harness.PER_LAYER)

    assert layers.ACTIVE is None
    for (module, qualname), original in originals.items():
        owner, attribute = layers.resolve(module, qualname)
        assert vars(owner)[attribute] is original, qualname

    values = {name: m["value"] for name, m in line["metrics"].items()}
    layer_sum = sum(values[f"{layer}.self_ms"] for layer in layers.LAYERS)
    assert layer_sum + values["trace.unattributed_ms"] \
        == pytest.approx(values["trace.wall_ms"], rel=1e-6)
    trace = json.loads((tiny / f"trace-{workload}-seed{HELD_OUT_SEED}.json")
                       .read_text())
    assert trace["traceEvents"]
    assert {"name", "ph", "ts", "dur", "args"} <= set(trace["traceEvents"][0])


def test_a_wrong_reply_fails_the_run(tiny, capsys, monkeypatch):
    replies = {"count": 0}
    honest = Backend.lookup

    def lookup(self, key):
        replies["count"] += 1
        value = honest(self, key)
        return value + 1 if replies["count"] == 50 else value

    monkeypatch.setattr(Backend, "lookup", lookup)
    code = run.main(["--workload", "mesh-steady", "--seed",
                     str(HELD_OUT_SEED), "--seconds", "0.2"])
    line = _last_line(capsys)
    assert code != 0
    assert not line["correct"] and line["failed"] >= 1


def test_a_removed_reply_breaks_request_conservation():
    scenario = TinyMesh(HELD_OUT_SEED)
    scenario.sim.run(until=scenario.window_end)
    scenario.drain()
    assert scenario.checks() == []
    scenario.ledger.answered -= 1
    assert any("conservation" in p for p in scenario.checks())


def test_reordered_frames_break_the_uplink_numbering():
    scenario = TinyChurn(HELD_OUT_SEED)
    scenario.sim.run(until=2.0)
    assert scenario.violations() == 0
    gateway = next(iter(scenario.gateways.values()))
    binding = gateway.required_port("up").binding
    binding.block()
    for seq in (1, 2):
        gateway.send(0, 10**6, seq, scenario.sim.now, lambda: None)
    binding.buffer.reverse()
    binding.unblock()
    scenario.drain()
    assert scenario.violations() == 2
    assert any("numbering" in p for p in scenario.checks())


def test_a_lost_delivery_breaks_message_conservation(tiny):
    episode = sharded.episode(HELD_OUT_SEED, backend="inline")
    result = harness.Result("sharded-ring", HELD_OUT_SEED, trace=False)
    harness._sharded_checks(result, [episode])
    assert result.correct
    episode.regions[0]["stats"]["delivered"] -= 1
    harness._sharded_checks(result, [episode])
    assert any("conservation" in p for p in result.problems)


def test_same_seed_repeats_sim_outcomes_exactly():
    first, second = TinyChurn(HELD_OUT_SEED), TinyChurn(HELD_OUT_SEED)
    for scenario in (first, second):
        measure(scenario, 0.0, until=scenario.window_end)
        scenario.drain()
    assert first.digest() == second.digest()
    assert first.sim_metrics() == second.sim_metrics()


@pytest.mark.parametrize("factory", [TinyMesh, TinyChurn])
def test_sim_metrics_ignore_how_far_the_run_went_past_the_window(factory):
    """A faster host simulates further past the window; the sim metrics
    and window counts must not see it."""
    exact, longer = factory(HELD_OUT_SEED), factory(HELD_OUT_SEED)
    measure(exact, 0.0, until=exact.window_end)
    measure(longer, 0.0, until=longer.window_end + 2.0)
    for scenario in (exact, longer):
        scenario.drain()
    assert exact.sim_metrics() == longer.sim_metrics()
    assert exact.counters() == longer.counters()


@pytest.mark.parametrize("factory", [TinyMesh, TinyChurn])
def test_timed_phase_ends_on_a_chunk_boundary(factory):
    """Host rates are medians over whole chunks that cover the phase."""
    scenario = factory(HELD_OUT_SEED)
    timed = measure(scenario, 0.0)
    covered = timed.sim_end - timed.sim_start
    assert len(timed.chunks) == round(covered / scenario.chunk) >= 1
    assert sum(ops for _, _, ops in timed.chunks) == timed.ops
    assert sum(events for _, events, _ in timed.chunks) == timed.events
    assert sum(wall for wall, _, _ in timed.chunks) \
        == pytest.approx(timed.wall, rel=0.05)
    rates = sorted(ops / wall for wall, _, ops in timed.chunks)
    assert rates[0] <= timed.ops_rate() <= rates[-1]
