"""blowlab benchmark: one workload, closed loop, one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload blowup-ladder --seed 1 --seconds 40 --trace 0

Times are scaled by an in-process reference job to a fixed machine
speed (see ``worker.py``); the unscaled medians are printed as well.

Each iteration runs the whole workload (``workloads.py``) in a fresh
``worker.py`` process, so set-up and peak memory are paid and measured
per run, as a CLI user pays them; the next iteration starts when the
previous one has ended.  Iterations repeat until ``--seconds`` is spent
(at least ``MIN_ITERATIONS``).  Every metric is the median over
iterations.

The first iteration checks every output against the package's oracles;
each later one must reproduce the first one's artifacts byte for byte
(blowlab's outputs are deterministic for a given config).  An operation
fails when it raises, returns an unexpected outcome or fails a check.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics, from spans around calls into blowlab's modules
(``tracing.py``), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The names and
units of the metrics come from BENCHMARK.json.  Lines before it give
each metric's spread and the environment.  The program exits 2 without
a result when the checkout holds no blowlab sources, and 1 when a
worker process crashes or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"

MIN_ITERATIONS = 3
# One caller, one thread: the workloads are serial numpy code, and a
# single BLAS/OpenMP thread keeps their timings steady on a shared box.
THREAD_CAPS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                    "NUMEXPR_NUM_THREADS")}
# The whole run, iterations included, must end well inside 180 s.
RUN_LIMIT_S = 160.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small inputs, for the benchmark's self-test")
    args = ap.parse_args()

    if not (ROOT / "src" / "blowlab" / "__init__.py").is_file():
        print(f"no blowlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run_dir = RUNS / f"{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        iterations = _iterate(args, run_dir)
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if RUNS.is_dir() and not any(RUNS.iterdir()):
            RUNS.rmdir()

    plain = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    if args.trace:
        values = {k: _median(it["layers"][k] for it in traced)
                  for k in traced[0]["layers"]}
        # A property of the outputs, which every iteration reproduces.
        values["tstar_grid_rel_diff"] = iterations[0]["extras"].get(
            "tstar_grid_rel_diff", 0.0)
        values["trace_overhead_frac"] = (_median(it["wall_s"] for it in traced)
                                         / _median(it["wall_s"] for it in plain) - 1.0)
        declared = spec["per_layer"]
    else:
        values = {k: _median(it[k] for it in plain)
                  for k in ("wall_s", "setup_s", "peak_rss_mb", "output_mb")}
        declared = spec["end_to_end"]

    for m in declared:
        print(_spread_line(m, iterations, args.trace))
    print("unscaled medians: " + ", ".join(
        f"{k} {_median(it['raw_' + k] for it in plain):.6g} s"
        for k in ("wall_s", "setup_s"))
          + f"; speed scale median {_median(it['scale'] for it in iterations):.4g}"
          + f" (min {min(it['scale'] for it in iterations):.4g},"
          + f" max {max(it['scale'] for it in iterations):.4g})")
    problems = [f"{label}: {why}" for it in iterations
                for label, op in it["ops"].items() for why in op["problems"]]
    for line in problems:
        print(f"FAILED {line}")
    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           **iterations[0]["env"], **THREAD_CAPS,
           "workload": args.workload, "seed": args.seed, "quick": args.quick,
           "iterations": len(plain), "traced_iterations": len(traced)}
    print("env " + json.dumps(env, sort_keys=True))

    attempted = sum(len(it["ops"]) for it in iterations)
    failed = sum(bool(op["problems"]) for it in iterations
                 for op in it["ops"].values())
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


def _iterate(args, run_dir: Path) -> list:
    """Run iterations, closed loop, until the time budget is spent."""
    env = {**os.environ, **THREAD_CAPS}
    start = time.monotonic()
    deadline = start + args.seconds
    minimum = 2 * MIN_ITERATIONS - 1 if args.trace else MIN_ITERATIONS
    iterations, durations = [], []
    while True:
        k = len(iterations)
        out = run_dir / f"it{k}"
        out.mkdir(parents=True)
        traced = bool(args.trace) and k % 2 == 1
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--out", str(out)]
        cmd += (["--trace"] * traced + ["--quick"] * args.quick
                + ["--check"] * (k == 0))
        budget = RUN_LIMIT_S - (time.monotonic() - start)
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], env=env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"iteration {k} overran the {RUN_LIMIT_S:.0f} s "
                               "limit of a run") from None
        durations.append(time.monotonic() - t_spawn)
        if proc.returncode != 0:
            raise RuntimeError(f"iteration {k} exited {proc.returncode}:\n"
                               f"{proc.stdout}{proc.stderr}")
        it = json.loads((out / "result.json").read_text())
        it["traced"] = traced
        if traced:
            spans = json.loads((out / "spans.json").read_text())
            it["layers"] = {**tracing.layer_metrics(spans, it["scale"]),
                            "testfuncs.overflow_guard_errors":
                                it["overflow_guard_errors"],
                            "cli.bytes_written": it["output_bytes"]}
        if iterations:
            for label, digest in it["digests"].items():
                if digest != iterations[0]["digests"][label]:
                    it["ops"][label]["problems"].append(
                        "artifacts differ from the first iteration's")
        iterations.append(it)
        shutil.rmtree(out)
        now = time.monotonic()
        if len(iterations) >= minimum and (
                now + statistics.median(durations) > deadline
                or now - start + max(durations) > RUN_LIMIT_S):
            return iterations


def _median(values) -> float:
    return statistics.median(list(values))


def _spread_line(metric: dict, iterations: list, trace: int) -> str:
    name = metric["name"]
    if trace:
        samples = [it["layers"][name] for it in iterations
                   if it["traced"] and name in it["layers"]]
    else:
        samples = [it[name] for it in iterations if name in it]
    if not samples:
        return f"{name}: one value per run ({metric['unit']})"
    return (f"{name}: median {statistics.median(samples):.6g} {metric['unit']}, "
            f"min {min(samples):.6g}, max {max(samples):.6g}, "
            f"n = {len(samples)} iterations")


if __name__ == "__main__":
    raise SystemExit(main())
