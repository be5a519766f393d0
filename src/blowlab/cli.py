"""Experiment harness: config parsing, dispatch and artifact emission.

Subcommands: ``simulate``, ``audit``, ``kato``, ``regions``, ``phi``.
Each run writes its artifacts (CSV traces, JSON summaries, optional SVG)
into an output directory together with an echo of the fully resolved
configuration, so identical configs reproduce byte-identical outputs.

Detected blow-up is a scientific result, not an error: the process exits
0 for completed runs and for blow-up, 1 for numerical instability, and 2
for configuration errors (found before anything is written) or a tripped
weight-integral overflow guard.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import comparison, criticality, pde
from .criticality import Label
from .exponents import Exponents
from .pde import AMPLITUDE_KEYS, InitialData, Profile
from .testfuncs import phi, phi_asymptotic

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunSummary",
    "parse_config",
    "run_experiment",
    "emit_region_svg",
    "main",
]

MODES = ("simulate", "audit", "kato", "regions", "phi")

# The longest phi table a config may ask for.
MAX_PHI_SAMPLES = 1_000_000


class ConfigError(ValueError):
    """A configuration document violates a precondition."""


_SIM_DEFAULTS = {
    "p": 2.0, "q": 2.0, "n": 1, "R": 1.0,
    "profile": "smooth",
    "amplitude_u0": 1.0, "amplitude_u1": 1.0,
    "amplitude_v0": 1.0, "amplitude_v1": 1.0,
    "grid_points": 2000, "horizon": 10.0, "cfl_factor": 0.5,
    "sample_every": 10, "blowup_threshold": 1e12, "coupling": True,
}

_DEFAULTS = {
    "simulate": _SIM_DEFAULTS,
    "audit": {**_SIM_DEFAULTS, "T0_fraction": 0.3},
    "kato": {
        "p": 2.0, "q": 2.0, "n": 1, "R": 1.0,
        "F1_0": 1000.0, "dF1_0": 100.0, "F2_0": 1000.0, "dF2_0": 100.0,
        "horizon": 50.0, "ode_threshold": 1e12,
        "C3": 1.0, "k2": 1.0, "k4": 1.0,
    },
    "regions": {
        "n": 1, "p_min": 1.1, "p_max": 10.0, "q_min": 1.1, "q_max": 10.0,
        "resolution": 100, "svg": False,
    },
    "phi": {"n": 3, "r_max": 20.0, "samples": 200},
}

_JSON_TYPE_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string"}


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    settings: dict = field(hash=False)

    def echo_text(self) -> str:
        doc = {"mode": self.mode, **self.settings}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_config(text: str, mode: str | None = None) -> ExperimentConfig:
    """Parse and validate a JSON config document.

    Unknown keys are rejected (strict parsing), and so is a value whose
    JSON type differs from its default's (a float default also takes a
    JSON integer; a bool is never a number) or a number that is not
    finite.  Defaults are filled for every missing key, so the resolved
    config round-trips through its own echo.  Parameter ranges are
    checked by building the domain inputs the run starts from, so a
    config that parses runs to a recorded outcome.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed config document: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    doc = dict(doc)
    doc_mode = doc.pop("mode", mode)
    if doc_mode is None:
        raise ConfigError("config must specify a mode")
    if mode is not None and doc_mode != mode:
        raise ConfigError(f"config mode {doc_mode!r} does not match subcommand {mode!r}")
    if doc_mode not in MODES:
        raise ConfigError(f"unknown mode {doc_mode!r}; expected one of {MODES}")

    defaults = _DEFAULTS[doc_mode]
    # "amplitudes" is shorthand for the four data amplitudes, typed like them.
    schema = {**defaults, "amplitudes": 1.0} if "amplitude_u0" in defaults else defaults
    unknown = set(doc) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys for mode {doc_mode!r}: {sorted(unknown)}")
    for key, value in doc.items():
        expected = type(schema[key])
        if not (type(value) is expected or (expected is float and type(value) is int)):
            raise ConfigError(
                f"{key}={value!r} must be a JSON {_JSON_TYPE_NAMES[expected]}")
        # Rejects NaN, +-Infinity (also 1e400, which parses to inf) and
        # integers beyond the float range.
        if expected in (int, float) and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{key}={value!r} must be a finite number")
    if "amplitudes" in doc:
        a = doc.pop("amplitudes")
        for key in AMPLITUDE_KEYS:
            doc.setdefault(key, a)
    settings = {**defaults, **doc}
    _check_run_settings(doc_mode, settings)
    try:
        if doc_mode in ("simulate", "audit"):
            ex, data, mesh = _domain_inputs(doc_mode, settings)
            # Overflow in the seed time level is left for the run to report.
            with np.errstate(all="ignore"):
                pde.init_state(ex, data, **mesh)
        elif doc_mode == "kato":
            _domain_inputs(doc_mode, settings)
        elif doc_mode == "regions":
            criticality.check_window((settings["p_min"], settings["p_max"]),
                                     (settings["q_min"], settings["q_max"]),
                                     settings["resolution"])
            # classify builds Exponents(p, q, n) for every cell of the map.
            Exponents(settings["p_max"], settings["q_max"], settings["n"])
        else:
            phi_asymptotic(settings["r_max"], settings["n"])
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return ExperimentConfig(mode=doc_mode, settings=settings)


def _check_run_settings(mode: str, s: dict) -> None:
    """Ranges of the settings that no domain input checks before a run."""
    positive = {"simulate": ("blowup_threshold",), "audit": ("blowup_threshold",),
                "kato": ("F1_0", "dF1_0", "F2_0", "dF2_0", "horizon", "ode_threshold")}
    for key in positive.get(mode, ()):
        if not s[key] > 0:
            raise ConfigError(f"{key}={s[key]} must be positive")
    if mode in ("simulate", "audit") and s["sample_every"] < 1:
        raise ConfigError(f"sample_every={s['sample_every']} must be >= 1")
    if mode == "audit" and not 0.0 < s["T0_fraction"] < 1.0:
        raise ConfigError(f"T0_fraction={s['T0_fraction']} must lie in (0, 1)")
    if mode == "phi" and not 2 <= s["samples"] <= MAX_PHI_SAMPLES:
        raise ConfigError(f"samples={s['samples']} must lie in [2, {MAX_PHI_SAMPLES}]")


def _domain_inputs(mode: str, s: dict):
    """The domain objects a simulate, audit or kato run starts from.

    Their constructors own the parameter ranges and raise ValueError on
    a setting outside them.  For simulate and audit this returns the
    exponents, the initial data and the mesh keywords of
    ``pde.init_state``; for kato, the comparison-system parameters.
    """
    ex = Exponents(p=float(s["p"]), q=float(s["q"]), n=s["n"], R=float(s["R"]))
    if mode == "kato":
        return comparison.derive_params(ex, {k: s[k] for k in ("C3", "k2", "k4")})
    data = InitialData(Profile(s["profile"]),
                       **{k: float(s[k]) for k in AMPLITUDE_KEYS})
    mesh = {"grid_points": s["grid_points"], "horizon": float(s["horizon"]),
            "cfl_factor": float(s["cfl_factor"]), "coupling": s["coupling"]}
    return ex, data, mesh


@dataclass
class RunSummary:
    wall_time: float
    outcome: str
    blowup_time: float | None
    files: list


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _summary_doc(config: ExperimentConfig, outcome: str,
                 blowup_time: float | None, extra: dict | None = None) -> dict:
    s = config.settings
    doc = {
        "mode": config.mode,
        "outcome": outcome,
        "blowup_time": blowup_time,
        "grid_points": s.get("grid_points"),
        "dt": None,
        "p": s.get("p"),
        "q": s.get("q"),
        "n": s.get("n"),
        "R": s.get("R"),
    }
    if extra:
        doc.update(extra)
    return doc


def run_experiment(config: ExperimentConfig, out_dir) -> RunSummary:
    """Dispatch to the owning module and write all artifacts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    s = config.settings
    files = [_write(out / "config_echo.json", config.echo_text())]
    outcome = "completed"
    blowup_time = None

    if config.mode in ("simulate", "audit"):
        ex, data, mesh = _domain_inputs(config.mode, s)
        trace = pde.run(ex, data, **mesh, sample_every=s["sample_every"],
                        blowup_threshold=float(s["blowup_threshold"]))
        outcome = trace.outcome
        blowup_time = trace.blowup_time
        files.append(_write(out / "trace.csv", "\n".join(trace.csv_rows()) + "\n"))
        # An unstable run has no trustworthy functionals to audit.
        if config.mode == "audit" and outcome != "instability":
            report = pde.audit_inequalities(trace, ex,
                                            T0_fraction=float(s["T0_fraction"]))
            doc = {
                "constants": report.constants(),
                "window": list(report.window),
                "min_passing_T0": report.min_passing_T0,
                "inconclusive": report.inconclusive,
                "note": report.note,
                "inequalities": [asdict(r) for r in report.records],
            }
            files.append(_write(out / "audit.json",
                                json.dumps(doc, sort_keys=True, indent=2) + "\n"))
        summary = _summary_doc(config, outcome, blowup_time, {"dt": trace.dt})

    elif config.mode == "kato":
        params = _domain_inputs(config.mode, s)
        report = comparison.check_conditions(params)
        lines = [
            f"cond1_lhs={report.cond1_lhs:.17g}",
            f"cond1_rhs={report.cond1_rhs:.17g}",
            f"cond1_holds={report.cond1_holds}",
            f"cond1_boundary={report.cond1_boundary}",
            f"cond2_lhs={report.cond2_lhs:.17g}",
            f"cond2_rhs={report.cond2_rhs:.17g}",
            f"cond2_holds={report.cond2_holds}",
            f"cond2_boundary={report.cond2_boundary}",
            f"k5={params.k5:.17g}",
            f"k6={params.k6:.17g}",
            f"k7={params.k7:.17g}",
        ]
        files.append(_write(out / "conditions.txt", "\n".join(lines) + "\n"))
        trace = comparison.integrate_comparison(
            params, float(s["F1_0"]), float(s["dF1_0"]),
            float(s["F2_0"]), float(s["dF2_0"]),
            horizon=float(s["horizon"]), threshold=float(s["ode_threshold"]))
        outcome = trace.terminal_reason.value
        if outcome == "blowup":
            blowup_time = trace.blowup_time
        files.append(_write(out / "ode_trace.csv", "\n".join(trace.csv_rows()) + "\n"))
        summary = _summary_doc(config, outcome, blowup_time)

    elif config.mode == "regions":
        p_range = (float(s["p_min"]), float(s["p_max"]))
        q_range = (float(s["q_min"]), float(s["q_max"]))
        grid = criticality.scan(p_range, q_range, int(s["n"]), int(s["resolution"]))
        rows = ["p,q,alpha_new,alpha_NW,alpha_W,alpha_DW,"
                "label_new,label_NW,label_W,label_DW"]
        for row in grid:
            for c in row:
                rows.append(",".join([
                    f"{c.p:.17g}", f"{c.q:.17g}",
                    f"{c.alpha_new:.17g}", f"{c.alpha_nakao_wakasugi:.17g}",
                    f"{c.alpha_wave:.17g}", f"{c.alpha_damped:.17g}",
                    c.label_new.value, c.label_nakao_wakasugi.value,
                    c.label_wave.value, c.label_damped.value,
                ]))
        files.append(_write(out / "regions.csv", "\n".join(rows) + "\n"))
        if bool(s["svg"]):
            files.append(emit_region_svg(grid, p_range, q_range, out / "regions.svg"))
        summary = _summary_doc(config, outcome, None)

    elif config.mode == "phi":
        n = int(s["n"])
        r = np.linspace(0.0, float(s["r_max"]), int(s["samples"]))
        vals = phi(r, n)
        asym = np.empty_like(vals)
        asym[0] = math.nan
        asym[1:] = phi_asymptotic(r[1:], n)
        rows = ["r,phi,phi_asymptotic"]
        rows += [",".join(f"{x:.17g}" for x in row) for row in zip(r, vals, asym)]
        files.append(_write(out / "phi.csv", "\n".join(rows) + "\n"))
        summary = _summary_doc(config, outcome, None)

    else:  # pragma: no cover - parse_config rejects unknown modes
        raise ConfigError(f"unknown mode {config.mode!r}")

    wall = time.perf_counter() - t_start
    summary["wall_time"] = round(wall, 3)
    files.append(_write(out / "summary.json",
                        json.dumps(summary, sort_keys=True, indent=2) + "\n"))
    return RunSummary(wall_time=wall, outcome=outcome,
                      blowup_time=blowup_time, files=files)


# Cell colors: interior blow-up, boundary blow-up, undetermined, and
# points where the inequality holds but the exponent hypotheses fail.
_SVG_CATEGORIES = (
    ("blowup", "#d73027"),
    ("boundary", "#fc8d59"),
    ("undetermined", "#4575b4"),
    ("hypothesis-failed", "#bdbdbd"),
)


def _svg_category(report) -> str:
    on_curve = abs(report.alpha_new - report.threshold_wavelike) <= 1e-12
    if report.label_new is Label.BLOW_UP:
        return "boundary" if on_curve else "blowup"
    if report.alpha_new >= report.threshold_wavelike and not report.hypotheses_ok:
        return "hypothesis-failed"
    return "undetermined"


def emit_region_svg(grid: list, p_range: tuple, q_range: tuple, path) -> Path:
    """Deterministic 800x800 SVG heat map of the comparison-ODE label.

    ``grid`` is the scan of the window ``p_range`` x ``q_range``; the
    plot area spans that window, so axis ticks are placed from it.
    """
    if not grid or not grid[0]:
        raise ValueError("cannot render an empty grid")
    path = Path(path)
    n_q = len(grid)
    n_p = len(grid[0])
    x0, y0, x1, y1 = 70.0, 40.0, 760.0, 730.0
    (p_lo, p_hi), (q_lo, q_hi) = p_range, q_range
    cw = (x1 - x0) / n_p
    ch = (y1 - y0) / n_q
    colors = dict(_SVG_CATEGORIES)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="0 0 800 800">',
        '<rect x="0" y="0" width="800" height="800" fill="#ffffff"/>',
    ]
    for j, row in enumerate(grid):
        # q grows upward: row j sits at the bottom for j = 0.
        y = y1 - (j + 1) * ch
        for i, cell in enumerate(row):
            x = x0 + i * cw
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw:.2f}" '
                f'height="{ch:.2f}" fill="{colors[_svg_category(cell)]}"/>'
            )
    # Axis ticks at integer exponent values.
    parts.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
                 f'height="{y1 - y0:.2f}" fill="none" stroke="#000000"/>')
    for k in range(int(math.ceil(p_lo)), int(math.floor(p_hi)) + 1):
        x = x0 + (k - p_lo) / (p_hi - p_lo) * (x1 - x0)
        parts.append(f'<line x1="{x:.2f}" y1="{y1:.2f}" x2="{x:.2f}" '
                     f'y2="{y1 + 6:.2f}" stroke="#000000"/>')
        parts.append(f'<text x="{x:.2f}" y="{y1 + 20:.2f}" font-size="12" '
                     f'text-anchor="middle">{k}</text>')
    for k in range(int(math.ceil(q_lo)), int(math.floor(q_hi)) + 1):
        y = y1 - (k - q_lo) / (q_hi - q_lo) * (y1 - y0)
        parts.append(f'<line x1="{x0 - 6:.2f}" y1="{y:.2f}" x2="{x0:.2f}" '
                     f'y2="{y:.2f}" stroke="#000000"/>')
        parts.append(f'<text x="{x0 - 10:.2f}" y="{y + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{k}</text>')
    parts.append(f'<text x="{(x0 + x1) / 2:.2f}" y="770" font-size="14" '
                 'text-anchor="middle">p</text>')
    parts.append('<text x="20" y="385" font-size="14" text-anchor="middle">q</text>')
    lx = x0
    for idx, (name, color) in enumerate(_SVG_CATEGORIES):
        parts.append(f'<rect x="{lx:.2f}" y="10" width="14" height="14" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{lx + 18:.2f}" y="22" font-size="12">{name}</text>')
        lx += 170.0
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path


def _apply_sweep(config: ExperimentConfig, sweep: str) -> list:
    """Parse every value of a ``key=v1,v2,...`` sweep, before any runs."""
    key, _, raw = sweep.partition("=")
    if not raw:
        raise ConfigError(f"malformed sweep spec {sweep!r}; expected key=v1,v2,...")
    values = raw.split(",")
    base = {"mode": config.mode, **config.settings}
    if key == "amplitudes":
        base = {k: v for k, v in base.items() if not k.startswith("amplitude_")}
    elif key not in config.settings:
        raise ConfigError(f"sweep key {key!r} is not a config key for {config.mode!r}")
    configs = []
    for v in values:
        doc = dict(base)
        try:
            doc[key] = json.loads(v)
        except json.JSONDecodeError:
            doc[key] = v
        configs.append((v, parse_config(json.dumps(doc))))
    return configs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="blowlab",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", type=Path, default=None,
                        help="JSON config file (defaults apply if omitted)")
        sp.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory")
        sp.add_argument("--sweep", type=str, default=None,
                        help="one-dimensional sweep: key=v1,v2,...")
    args = parser.parse_args(argv)

    try:
        text = args.config.read_text() if args.config else "{}"
        config = parse_config(text, mode=args.mode)
        sweep = _apply_sweep(config, args.sweep) if args.sweep else None
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    # The one error left at run time is the weight integral's overflow guard.
    try:
        if args.sweep:
            worst = 0
            for value, cfg in sweep:
                summary = run_experiment(cfg, args.out / f"{args.sweep.split('=')[0]}={value}")
                print(f"[{value}] outcome={summary.outcome} "
                      f"blowup_time={summary.blowup_time}")
                if summary.outcome == "instability":
                    worst = 1
            return worst
        summary = run_experiment(config, args.out)
        print(f"outcome={summary.outcome} blowup_time={summary.blowup_time} "
              f"wall_time={summary.wall_time:.3f}s")
        for f in summary.files:
            print(f"wrote {f}")
        return 1 if summary.outcome == "instability" else 0
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
