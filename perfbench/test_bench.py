"""Self-test of the benchmark, at quick size.

    python3 -m pytest perfbench/test_bench.py -q

Runs every workload untraced and traced on small inputs and asserts that
every metric BENCHMARK.json names is printed with its unit and that
every correctness check passes at a fixed seed.  Also checks that the
checks themselves catch broken outputs, and that the benchmark refuses
to report from a directory that holds no blowlab sources.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd, workload, trace, seed=7):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_quick_run_reports_every_metric(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "audit-n2":
        # The overflow probe still hits the known defect.
        assert values["testfuncs.overflow_guard_errors"] == 1
        assert values["comparison.ode_steps"] > 0
    elif workload == "blowup-ladder":
        assert values["pde.step.node_updates"] > 0
        assert 0 < values["tstar_grid_rel_diff"] < 0.1
    else:
        assert values["criticality.cells"] == 40 * 40
        assert values["pde.step.calls"] == 0


def test_no_result_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "regions-map", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_subtracts_children():
    spans = [
        [tracing.OPS_SPAN, 0.0, 10.0, None, {}],
        ["pde.step", 1.0, 5.0, 0, {"nodes": 100}],
        ["testfuncs.phi", 2.0, 3.0, 1, {"points": 4}],
    ]
    m = tracing.layer_metrics(spans)
    assert m["pde.step.self_s"] == pytest.approx(3.0)
    assert m["testfuncs.phi.self_s"] == pytest.approx(1.0)
    assert m["pde.step.ns_per_node"] == pytest.approx(3.0 / 100 * 1e9)
    assert m["trace_attributed_frac"] == pytest.approx(0.4)


def test_ladder_check_flags_a_non_decreasing_tstar():
    plan = workloads.blowup_ladder(random.Random(0), quick=True)
    results = {op.label: {"blowup_time": 0.7 - 0.01 * i}
               for i, op in enumerate(plan)}
    assert workloads.check_ladder(plan, results, {}, None)[0] == []
    results[plan[1].label]["blowup_time"] = 0.8
    problems, _ = workloads.check_ladder(plan, results, {}, None)
    assert [label for label, _ in problems] == [plan[1].label]


def test_regions_check_flags_a_recoloured_cell(tmp_path):
    from blowlab import cli

    plan = workloads.regions_map(random.Random(0), quick=True)
    op = plan[0]
    cli.run_experiment(cli.parse_config(json.dumps(op.doc), op.mode), tmp_path)
    results = {op.label: {"outcome": "completed"}}
    dirs = {op.label: tmp_path}
    assert workloads.check_regions(plan, results, dirs, random.Random(1))[0] == []
    svg = tmp_path / "regions.svg"
    svg.write_text(svg.read_text().replace('fill="#4575b4"', 'fill="#d73027"', 1))
    problems, _ = workloads.check_regions(plan, results, dirs, random.Random(1))
    assert problems and "SVG cells" in problems[0][1]
