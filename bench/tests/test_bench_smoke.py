"""Smoke test: one small operation per workload through the benchmark's
own code path, the metric names and units against BENCHMARK.json, and the
oracle against an independent form of itself."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402


def _first_ops(workload, tmp_path, count=1):
    """The first operations that request approximants and are not known
    defects, with their oracle values."""
    ops = [op for op in workloads.build(workload, 7, tmp_path / workload)
           if op["requests"] and not op.get("known_defect")][:count]
    return ops, [oracle.expected(op) for op in ops]


def test_benchmark_json_matches_spec():
    on_disk = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    assert [w["name"] for w in on_disk["workloads"]] == list(workloads.NAMES)


def test_inputs_depend_only_on_seed(tmp_path):
    a = workloads.build("boundary", 3, tmp_path / "a")
    b = workloads.build("boundary", 3, tmp_path / "a")
    c = workloads.build("boundary", 4, tmp_path / "a")
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_one_operation_per_workload(workload, tmp_path):
    ops, expected = _first_ops(workload, tmp_path)
    loop = run.Loop(ops, expected, run.op_runner(workload),
                    probe=run.op_probe(workload)).run(count=1)
    assert loop.records[0]["problems"] == []
    metrics, _ = run.end_to_end(loop, [(0.3, 0.08)], workload)
    assert sorted(metrics) == sorted(name for name, *_ in spec.END_TO_END)
    assert all(v > 0 for v in metrics.values())


def test_per_layer_metric_names(tmp_path):
    ops, expected = _first_ops("regular", tmp_path, count=3)
    metrics, loops = run.per_layer("regular", ops, expected, 0.05, tmp_path, "smoke")
    assert sorted(metrics) == sorted(name for name, *_ in spec.PER_LAYER)
    assert not any(r["problems"] for loop in loops for r in loop.records)
    assert (tmp_path / "smoke-spans.json").is_file()


@pytest.mark.parametrize("x", [-3.5, -2.0, 0.9])
def test_geometric_closed_form_matches_direct_sum(x):
    as_custom = {"name": "custom", "doc": {"coefficients": [1.0] * 201, "x": x}}
    closed = oracle.approximant({"name": "geometric", "x": x}, 200)
    assert closed == pytest.approx(oracle.approximant(as_custom, 200), rel=1e-14)
