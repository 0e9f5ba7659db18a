"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Tiny-size runs check that every end-to-end and per-layer metric is
emitted with its unit, that an armed fault is counted instead of
aborting the run, and that the benchmark refuses to run without the
program's source.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args, env=None, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--tiny", "--seconds", "0.3",
         *args], cwd=cwd, capture_output=True, text=True, timeout=300,
        env={**os.environ, **(env or {})})
    return proc


def summary(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(trace):
    out = summary(bench("--trace", str(trace)))
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 3 * 2
    units = run.PER_LAYER if trace else run.END_TO_END
    want = {f"{w}.{k}": u for w in run.WORKLOADS for k, u in units.items()}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    for key, metric in out["metrics"].items():
        assert math.isfinite(metric["value"]), key
        if not trace:
            assert metric["value"] > 0, key


def test_traced_run_attributes_time_to_the_layers():
    metrics = summary(bench("--trace", "1"))["metrics"]
    for name in ("rollout_fp32", "inverse"):
        for layer in ("graph", "network", "network.mlp",
                      "network.aggregate"):
            assert metrics[f"{name}.{layer}.ms_per_frame"]["value"] > 0
    assert metrics["inverse.autodiff.tape_ops_per_op"]["value"] > 0
    assert metrics["inverse.autodiff.tape_peak_mib"]["value"] > 0
    assert metrics["rollout_fp32.engine.self_ms_per_frame"]["value"] > 0
    assert metrics["rollout_fp32.trace.engine_timings_diff"]["value"] < 1
    for part in ("shape", "stress", "boundary", "transfer"):
        assert metrics[f"rollout_fp32.mpm.{part}.ms_per_substep"]["value"] > 0
        assert metrics[f"inverse.mpm.{part}.ms_per_substep"]["value"] == 0
    assert metrics["rollout_fp32.mpm.substeps_per_frame"]["value"] > 0
    assert metrics["rollout_fp32.e2.speedup"]["value"] > 0


def test_single_workload_prints_one_result_object():
    out = summary(bench("--workload", "inverse", "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert set(out["metrics"]) == set(run.END_TO_END)


def test_armed_fault_counts_as_failed_op_and_run_goes_on():
    # the warm-up op takes rollout steps 0-2; step 4 falls in a timed op
    proc = bench("--workload", "rollout_fp32", "--trace", "0",
                 env={"REPRO_FAULTS": "rollout.diverge@4"})
    out = summary(proc)
    assert out["failed"] >= 1 and out["attempted"] > out["failed"]
    assert out["correct"] is False
    assert out["metrics"]["ok_ratio"]["value"] < 1.0
    assert "RolloutDivergedError" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "rollout_fp32", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("cls", [*workloads.WORKLOADS.values(),
                                 workloads.MPMColumn])
def test_same_seed_same_inputs(cls):
    def inputs(seed):
        wl = cls()
        wl.setup(seed, tiny=True)
        arrays = [getattr(wl, "seed_frames", None)]
        if wl.simulator is not None:
            arrays.append(wl.simulator.network.node_encoder.linears[0]
                          .weight.data)
            arrays.append(wl.op_rng(3).uniform(size=2))
        else:
            arrays.append(wl.start["positions"])
        return [a for a in arrays if a is not None]

    a, b, c = inputs(5), inputs(5), inputs(6)
    assert all((x == y).all() for x, y in zip(a, b))
    assert not all((x == z).all() for x, z in zip(a, c))


def test_self_time_subtracts_children():
    rec = tracing.SpanRecorder()
    # op [0, 100] > network [10, 60] > network.mlp [20, 30]; nested
    # network [40, 50] counts once in the total
    rec.spans = [["op", 0, 100, -1, 0], ["network", 10, 60, 0, 0],
                 ["network.mlp", 20, 30, 1, 0], ["network", 40, 50, 1, 0]]
    layers = rec.layer_ms()
    assert layers["op"]["self"] == pytest.approx(50e-6)
    assert layers["network"]["total"] == pytest.approx(50e-6)
    assert layers["network"]["self"] == pytest.approx(30e-6 + 10e-6)
    assert layers["network.mlp"]["total"] == pytest.approx(10e-6)


def test_instrument_restores_every_attribute():
    before = [(owner, attr, vars(owner).get(attr))
              for owner, attr, _ in tracing._targets()]
    with tracing.instrument(tracing.SpanRecorder()):
        assert any(vars(o).get(a) is not f for o, a, f in before)
    assert all(vars(o).get(a) is f for o, a, f in before)
