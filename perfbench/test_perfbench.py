"""Tests of the benchmark itself: every named metric is produced with its
unit, missing hook targets are reported as missing, and the compare step
judges against the bounds."""

import dataclasses
import json
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

import compare  # noqa: E402
import layertrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_metric_and_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layertrace.metric_units()
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert set(e2e) == {"setup_s", "run_s", "peak_rss_mb", "test_risk"}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_run_reports_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--quick",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        if m["value"] is None:  # only the planted solves, which quick mode skips
            assert name.startswith("ksos.solve_s.") and m["missing"]


def test_a_renamed_target_is_reported_missing_never_zero():
    import perturbopt.perturb as perturb

    original, surface_build = perturb.regularized_risk, perturb.crn_risk_surface
    hooks = [
        dataclasses.replace(h, targets=("perturbopt.perturb:renamed_risk",)) if h.name == "perturb.risk" else h
        for h in layertrace.HOOKS
    ]
    tracer = layertrace.Tracer(hooks)
    tracer.install()
    try:
        assert perturb.crn_risk_surface is not surface_build  # the other hooks are live
        report = tracer.report()
    finally:
        tracer.uninstall()
    assert perturb.regularized_risk is original and perturb.crn_risk_surface is surface_build
    report.update(import_s=1.0, main_s=0.25, probes={}, probe_errors={})
    metrics = layertrace.layer_metrics(report, traced_run_s=2.0, untraced_run_s=1.5)
    for name in ("perturb.risk_calls", "perturb.risk_ms_per_call", "perturb.risk_self_s", "perturb.self_s"):
        assert metrics[name]["value"] is None
        assert "perturbopt.perturb:renamed_risk" in metrics[name]["missing"]
    assert metrics["model.predict_calls"] == {"value": 0, "unit": "count"}
    assert metrics["polytopes.argmax_us"]["value"] is None
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.5)
    assert metrics["trace.start_s"]["value"] == pytest.approx(0.75)


def test_compare_judges_each_workload_against_the_bound():
    def runs(values, failed=0):
        return {"runs": [
            {"workload": "sched", "trace": 0, "attempted": 2, "failed": failed,
             "metrics": {"run_s": {"value": v, "unit": "s"}}}
            for v in values
        ]}

    base = runs([10.0, 10.1, 10.2, 9.9, 10.0])
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["run_s"]
    slower = [v * (1 + 2 * bound) for v in (10.0, 10.1, 10.2, 9.9, 10.0)]
    rows = {r[1]: r[-1] for r in compare.compare(base, runs([10.05] * 5), SPEC)}
    assert rows == {"run_s": "within", "failed (trace 0)": "within"}
    rows = {r[1]: r[-1] for r in compare.compare(base, runs(slower, failed=1), SPEC)}
    assert rows == {"run_s": "worse", "failed (trace 0)": "worse"}
    assert compare.verdict([5.0, 10.0, 20.0, 10.0], [9.0] * 4, bound, "lower") == "unresolved"
    assert compare.verdict([5.0, 10.0, 20.0, 10.0], [1.0] * 4, bound, "lower") == "better"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sched", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
