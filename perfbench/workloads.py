"""The benchmark's workloads and the correctness checks on their outputs.

A workload is a list of operations.  One operation is one
``cli.parse_config`` + ``cli.run_experiment`` call, as one CLI run of
blowlab, and the operations run in sequence from one caller.  The seed
chooses only generated inputs (amplitudes, the region window offset,
and the cells and radii that the checks sample), within ranges that
keep every operation's outcome fixed.

Why each workload exists:

* ``blowup-ladder``: the grid-refinement study a user runs to trust a
  blow-up time T*.  ``pde.step`` and ``weighted_power_integral``
  dominate; runs stop at T* ~ 0.66-0.77, so the causal window covers
  only a small part of the mesh (the early-stop use of ``pde``).
* ``audit-n2``: the paper's pipeline (audit the functional bounds, then
  the comparison ODE) in n = 2, the one dimension with no closed-form
  ``phi``, so ``phi`` quadrature dominates.  ``pde.step`` runs to the
  horizon over a window that grows to the full mesh.  The only workload
  that reaches ``comparison`` and ``audit_inequalities``.  Its last
  operation is a probe of a known defect (see ``Op.known_defect``).
* ``regions-map``: a resolution-500 critical-curve map with SVG.
  ``criticality.scan``, CSV formatting and SVG emission dominate; it
  never touches ``pde`` or ``testfuncs``, so a change to those should
  predict no change here.

The ``quick`` sizes exist only for the benchmark's self-test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Op:
    label: str
    mode: str
    doc: dict
    expect: str                          # the RunSummary.outcome it must return
    # Takes C3, k2, k4 from this earlier audit operation's audit.json.
    constants_from: str | None = None
    # The operation probes a known defect: the conjugate-power weight
    # integral trips its overflow guard mid-run on long horizons.  An
    # OverflowGuardError is then a recorded outcome, counted apart from
    # failures, so that a fix shows as the count dropping to zero.
    known_defect: bool = False


def blowup_ladder(rng, quick: bool) -> list:
    amplitude = rng.uniform(19.8, 20.2)
    grids = (500, 1000, 2000) if quick else (2000, 4000, 8000, 16000)
    return [Op(f"n{n}-g{g}", "simulate",
               {"p": 2.0, "q": 2.0, "n": n, "amplitudes": amplitude,
                "grid_points": g, "horizon": 10.0}, "blowup")
            for n in (1, 3) for g in grids]


def audit_n2(rng, quick: bool) -> list:
    amplitude = rng.uniform(0.98, 1.02)
    return [
        Op("audit", "audit",
           {"p": 1.5, "q": 1.5, "n": 2, "amplitudes": amplitude,
            "grid_points": 300 if quick else 1000, "horizon": 5.0},
           "completed"),
        Op("kato", "kato", {"p": 1.5, "q": 1.5, "n": 2}, "blowup",
           constants_from="audit"),
        Op("overflow-probe", "simulate",
           {"p": 1.1, "q": 1.1, "amplitudes": 0.01, "coupling": False,
            "horizon": 80.0, "grid_points": 300},
           "completed", known_defect=True),
    ]


def regions_map(rng, quick: bool) -> list:
    dp = rng.uniform(0.0, 0.5)
    dq = rng.uniform(0.0, 0.5)
    return [Op("map", "regions",
               {"n": 3, "resolution": 40 if quick else 500, "svg": True,
                "p_min": 1.1 + dp, "p_max": 10.0 + dp,
                "q_min": 1.1 + dq, "q_max": 10.0 + dq}, "completed")]


def check_ladder(plan, results, dirs, rng):
    """T* must fall strictly as the grid refines, in each dimension."""
    problems, diffs = [], []
    for n in (1, 3):
        ops = [op for op in plan if op.doc["n"] == n]
        times = [results[op.label]["blowup_time"] for op in ops]
        if None in times:
            continue  # already counted as an unexpected outcome
        for op, coarse, fine in zip(ops[1:], times, times[1:]):
            if not fine < coarse:
                problems.append((op.label, f"T*={fine!r} is not below "
                                           f"T*={coarse!r} on the coarser grid"))
        diffs.append(abs(times[0] - times[-1]) / times[-1])
    return problems, {"tstar_grid_rel_diff": max(diffs, default=0.0)}


def check_audit(plan, results, dirs, rng):
    """The audit is conclusive, and phi on the mesh matches quadrature."""
    import numpy as np

    from blowlab import pde
    from blowlab.testfuncs import phi_quadrature

    problems = []
    op = plan[0]
    if results[op.label]["outcome"] != "completed":
        return problems, {}
    doc = json.loads((dirs[op.label] / "audit.json").read_text())
    if doc["inconclusive"]:
        problems.append((op.label, f"audit inconclusive: {doc['note']}"))
    s = op.doc
    ex = pde.Exponents(p=s["p"], q=s["q"], n=s["n"])
    amp = s["amplitudes"]
    data = pde.InitialData(amplitude_u0=amp, amplitude_u1=amp,
                           amplitude_v0=amp, amplitude_v1=amp)
    r = pde.init_state(ex, data, s["grid_points"], s["horizon"]).r
    radii = [float(r[i]) for i in sorted(rng.sample(range(r.size), 16))]
    # The package's phi against its quadrature oracle, to the tolerance
    # of the acceptance suite's phi criterion.
    got = pde.phi(np.array(radii), s["n"])
    for x, value in zip(radii, got):
        want = phi_quadrature(x, s["n"])
        if not abs(value / want - 1.0) <= 1e-8:
            problems.append((op.label, f"phi({x!r}) = {value!r}, "
                                       f"quadrature gives {want!r}"))
    return problems, {}


def check_regions(plan, results, dirs, rng):
    """Sampled CSV cells match classify; SVG colours match CSV labels."""
    import xml.etree.ElementTree as ET

    from blowlab.cli import _SVG_CATEGORIES
    from blowlab.criticality import classify

    fills = {color: name for name, color in _SVG_CATEGORIES}

    problems = []
    op = plan[0]
    if results[op.label]["outcome"] != "completed":
        return problems, {}
    n = op.doc["n"]
    res = op.doc["resolution"]
    threshold = (n - 1) / 2.0
    with open(dirs[op.label] / "regions.csv") as fh:
        header = next(fh).rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    if len(rows) != res * res:
        problems.append((op.label, f"{len(rows)} CSV rows, want {res * res}"))
    col = {name: i for i, name in enumerate(header)}
    expected = dict.fromkeys(fills.values(), 0)
    for row in rows:
        a_new = float(row[col["alpha_new"]])
        if row[col["label_new"]] == "BlowUp":
            cat = "boundary" if abs(a_new - threshold) <= 1e-12 else "blowup"
        else:
            # label_new is Undetermined with alpha_new on the blow-up side
            # only when the exponent hypotheses fail.
            cat = "hypothesis-failed" if a_new >= threshold else "undetermined"
        expected[cat] += 1
    for i in rng.sample(range(len(rows)), min(200, len(rows))):
        row = rows[i]
        rep = classify(float(row[col["p"]]), float(row[col["q"]]), n)
        want = [rep.alpha_new, rep.alpha_nakao_wakasugi, rep.alpha_wave,
                rep.alpha_damped]
        want = [f"{x:.17g}" for x in want] + [
            rep.label_new.value, rep.label_nakao_wakasugi.value,
            rep.label_wave.value, rep.label_damped.value]
        if row[2:] != want:
            problems.append((op.label, f"row {i} {row} != classify {want}"))
            break

    drawn = dict.fromkeys(fills.values(), 0)
    try:
        for _, el in ET.iterparse(dirs[op.label] / "regions.svg"):
            # Legend swatches are 14 wide; every other coloured rect is a cell.
            if (el.tag.endswith("rect") and el.get("fill") in fills
                    and el.get("width") != "14"):
                drawn[fills[el.get("fill")]] += 1
            el.clear()
    except ET.ParseError as e:
        problems.append((op.label, f"regions.svg does not parse: {e}"))
    else:
        if drawn != expected:
            problems.append((op.label, f"SVG cells {drawn} != CSV labels "
                                       f"{expected}"))
    return problems, {}


WORKLOADS = {
    "blowup-ladder": (blowup_ladder, check_ladder),
    "audit-n2": (audit_n2, check_audit),
    "regions-map": (regions_map, check_regions),
}


def output_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def digests(path: Path) -> dict:
    """SHA-256 of each artifact an operation wrote, except summary.json,
    which records the run's own wall time."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.glob("*")) if f.name != "summary.json"}
