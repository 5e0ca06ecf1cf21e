"""Smoke test of the end-to-end benchmark: every workload at a quarter
of its pass size (1/50 of ISSUE 13's full-run sizes), one pass each.

Checks the result schema against ``BENCHMARK.json``, the built-in
output check, the tracer's coverage, and that a layer predicted to do
no work on a workload reports zero calls there.
"""

import pytest

from benchmarks.e2e import harness
from benchmarks.e2e.__main__ import verdict
from benchmarks.e2e.workloads import WORKLOADS
from repro.sim.engine import Simulator

SCALE = 0.25
SECONDS = 0.01  # whole passes, at least one: exactly one

SPEC = harness.load_spec()


def check_schema(result: dict, wanted: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [metric["name"] for metric in wanted]
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, detail = harness.measure(name, 1, SECONDS, False, scale=SCALE)
    check_schema(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["problems"] == []
    assert detail["passes"] >= 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_covers_the_wall_and_names_idle_layers(name, tmp_path):
    result, detail = harness.measure(name, 1, SECONDS, True, scale=SCALE,
                                     out_dir=tmp_path)
    check_schema(result, SPEC["per_layer"])
    value = {key: m["value"] for key, m in result["metrics"].items()}
    assert value["trace.coverage_ratio"] >= 0.95
    assert value["trace.overhead_ratio"] > 0
    assert len(detail["top_layers"]) == 3
    assert (tmp_path / f"trace-{name}-1.json").exists()
    if name == "chain_fanout":
        assert value["sim.events"] > 0 and value["agent.events"] > 0
        assert value["core.export.spans"] == value["agent.spans_emitted"]
    else:
        assert value["sim.events"] == 0
        assert value["kernel.syscalls"] == 0
    if name in ("server_replay", "query_mix"):
        assert value["agent.events"] == 0
        assert value["server.store.spans"] > 0
    if name == "agent_replay":
        assert value["server.store.spans"] == 0
    # The patches are gone: a later test sees the program unwrapped.
    assert not hasattr(Simulator.step, "__wrapped__")


def test_same_seed_same_digest_other_seed_other_digest():
    def digest(seed: int) -> str:
        workload = WORKLOADS["chain_fanout"](seed, SCALE)
        workload.setup()
        one = workload.measure(workload.prepare())
        assert one.problems == []
        return harness.sim_digest(one.sim)

    assert digest(1) == digest(1) != digest(2)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [88.0] * 5, "higher", 0.10)[0] == "regressed"
    assert verdict(base, [120.0] * 5, "higher", 0.10)[0] == "improved"
    assert verdict(base, [100.2] * 5, "higher", 0.10)[0] == "unchanged"
    noisy = [80.0, 125.0, 100.0, 90.0, 112.0]
    assert verdict(noisy, [99.0] * 5, "higher", 0.10)[0] == "unresolved"
    # Sim-time metrics are exact: bound 0, any rise is a regression.
    assert verdict([90.0] * 3, [90.0] * 3, "lower", 0.0)[0] == "unchanged"
    assert verdict([90.0] * 3, [90.1] * 3, "lower", 0.0)[0] == "regressed"
