"""One iteration of one workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand.  Imports blowlab
from the checkout's ``src``, parses the workload's configs, runs its
operations in sequence, then checks their outputs and writes
``result.json`` (and, traced, ``spans.json``) into ``--out``.

Times use ``time.monotonic``, which is system-wide, so ``--t-spawn``
taken by the parent just before starting this process marks the start
of set-up as a CLI user pays it: interpreter start, imports, parsing.

The machine this runs on is shared, and its speed drifts by tens of
percent over seconds to minutes.  So the process also times a fixed
reference job just before and just after the operations, and reports
every time scaled to the speed at which that job takes ``REFERENCE_S``:
``scale = REFERENCE_S / measured``.  A change to blowlab moves the
scaled times as it moves the raw ones; the raw times are reported too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from blowlab import cli  # noqa: E402
from blowlab.testfuncs import OverflowGuardError  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


# The reference job's time on an unloaded 2-vCPU box of the kind the
# seed baseline was measured on; it only fixes the unit of scaled times.
REFERENCE_S = 0.04


def _reference_job() -> float:
    """A fixed mix of the kinds of work blowlab does: arithmetic on
    arrays of a few thousand floats, Python-level loops and float
    formatting."""
    x = numpy.linspace(0.0, 1.0, 4096)
    acc = 0.0
    for i in range(600):
        y = numpy.sqrt(x + i) * 0.5 - x ** 2
        acc += float(y.sum())
        acc += len(",".join([f"{v:.17g}" for v in y[:64]]))
    return acc


def _time_reference(samples: list, repeats: int = 3) -> None:
    for _ in range(repeats):
        t = time.perf_counter()
        _reference_job()
        samples.append(time.perf_counter() - t)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--check", action="store_true",
                    help="check the outputs against the oracles")
    args = ap.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    make_plan, check = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    plan = make_plan(rng, args.quick)
    parsed = {op.label: cli.parse_config(json.dumps(op.doc), op.mode)
              for op in plan if op.constants_from is None}
    t_setup = time.monotonic()
    reference = []
    _reference_job()  # warm-up, untimed
    _time_reference(reference)

    t_ops = time.monotonic()
    results, dirs = {}, {}
    with tracer.span(tracing.OPS_SPAN) if tracer else contextlib.nullcontext():
        for op in plan:
            dirs[op.label] = args.out / op.label
            results[op.label] = _run_op(op, parsed, dirs)
    t_end = time.monotonic()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.remove()
    _time_reference(reference)
    scale = REFERENCE_S / statistics.median(reference)

    problems, extras = [], {}
    if args.check:
        try:
            problems, extras = check(plan, results, dirs, rng)
        except Exception as e:  # noqa: BLE001 - a check that cannot run fails every op
            problems = [(op.label, f"check raised {type(e).__name__}: {e}")
                        for op in plan]
    for label, why in problems:
        results[label]["problems"].append(why)
    output_bytes = sum(workloads.output_bytes(d) for d in dirs.values()
                       if d.exists())
    raw_setup_s = t_setup - args.t_spawn
    raw_wall_s = raw_setup_s + t_end - t_ops
    doc = {
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": raw_wall_s,
        "scale": scale,
        "setup_s": raw_setup_s * scale,
        "wall_s": raw_wall_s * scale,
        "peak_rss_mb": peak_rss_kib * 1024 / 1e6,
        "output_bytes": output_bytes,
        "output_mb": output_bytes / 1e6,
        "overflow_guard_errors": sum(r["outcome"] == "OverflowGuardError"
                                     for r in results.values()),
        "ops": results,
        "digests": {label: workloads.digests(d) for label, d in dirs.items()},
        "extras": extras,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__},
    }
    (args.out / "result.json").write_text(json.dumps(doc, indent=1))
    if tracer:
        (args.out / "spans.json").write_text(json.dumps(tracer.spans))
    return 0


def _run_op(op, parsed, dirs) -> dict:
    """Run one operation; record its outcome and anything unexpected."""
    rec = {"outcome": None, "blowup_time": None, "problems": []}
    try:
        config = parsed.get(op.label)
        if config is None:
            audit = json.loads((dirs[op.constants_from] / "audit.json").read_text())
            k = audit["constants"]
            doc = {**op.doc, "C3": k["C3"], "k2": k["k2"], "k4": k["k4"]}
            config = cli.parse_config(json.dumps(doc), op.mode)
        summary = cli.run_experiment(config, dirs[op.label])
    except OverflowGuardError as e:
        rec["outcome"] = "OverflowGuardError"
        if not op.known_defect:
            rec["problems"].append(f"raised OverflowGuardError: {e}")
    except Exception as e:  # noqa: BLE001 - every failure is counted, none stops the run
        rec["outcome"] = type(e).__name__
        rec["problems"].append(f"raised {type(e).__name__}: {e}")
    else:
        rec["outcome"] = summary.outcome
        rec["blowup_time"] = summary.blowup_time
        if summary.outcome != op.expect:
            rec["problems"].append(f"outcome {summary.outcome!r}, "
                                   f"expected {op.expect!r}")
    return rec


if __name__ == "__main__":
    raise SystemExit(main())
