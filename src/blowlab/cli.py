"""Experiment harness: config parsing, dispatch and artifact emission.

Subcommands: ``simulate``, ``audit``, ``kato``, ``regions``, ``phi``.
Each run writes its artifacts (CSV traces, JSON summaries, optional SVG)
into an output directory together with an echo of the fully resolved
configuration, so identical configs reproduce byte-identical outputs.

Detected blow-up is a scientific result, not an error: the process exits
0 for completed runs and for blow-up, 1 for numerical instability, and 2
for configuration errors (found before anything is written), an output
directory that cannot be written, or a tripped weight-integral overflow
guard.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import criticality, pde
from .criticality import Label
from .exponents import Exponents, check_dimension
from .pde import AMPLITUDE_KEYS, InitialData, Profile
from .testfuncs import OverflowGuardError, check_radius, phi, phi_asymptotic

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
    # The mode's run, planned once by parse_config (see _plan).
    run: Callable = field(compare=False, repr=False)

    def echo_text(self) -> str:
        return _json_text({"mode": self.mode, **self.settings})


def _json_text(doc: dict) -> str:
    """The text of a JSON artifact.  RFC 8259 JSON has no NaN or
    infinity, so a non-finite number raises ValueError instead of being
    written as a bare literal."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def parse_config(text: str, mode: str | None = None) -> ExperimentConfig:
    """Parse and validate a JSON config document.

    Unknown keys are rejected (strict parsing), and so is a value whose
    JSON type differs from its default's (a float default also takes a
    JSON integer; a bool is never a number) or a number that is not
    finite.  Defaults are filled for every missing key, so the resolved
    config round-trips through its own echo.  Parameter ranges are
    checked by the library code that owns them, on the arguments of the
    run's library calls, so a config that parses runs to a recorded
    outcome.  The config keeps the run that its plan returned.
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
                f"{key}={json.dumps(value)} must be a JSON {_JSON_TYPE_NAMES[expected]}")
        # Rejects NaN, +-Infinity (also 1e400, which parses to inf) and
        # integers beyond the float range.
        if expected in (int, float) and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{key}={json.dumps(value)} must be a finite number")
    if "amplitudes" in doc:
        a = doc.pop("amplitudes")
        for key in AMPLITUDE_KEYS:
            doc.setdefault(key, a)
    settings = {**defaults, **doc}
    try:
        run = _plan(doc_mode, settings)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return ExperimentConfig(mode=doc_mode, settings=settings, run=run)


def _plan(mode: str, s: dict):
    """The run of a mode: a function of the output directory that writes
    the mode's artifacts and returns ``(fields, files)``, ``fields`` being
    its own ``summary.json`` entries: ``outcome``, ``blowup_time``, ``dt``.

    Each range is checked first, by the library code that owns it (a
    domain constructor or an entry point's check function), on the very
    values the run passes on, and raises ValueError.  The CLI checks one
    bound of its own: the ``phi`` table length.
    """
    if mode == "regions":
        window = ((s["p_min"], s["p_max"]), (s["q_min"], s["q_max"]))
        criticality.check_window(*window, s["resolution"])
        check_dimension(s["n"])

        def run_regions(out: Path):
            return {"outcome": "completed"}, _write_regions(
                *window, s["n"], s["resolution"], out, s["svg"])
        return run_regions
    if mode == "phi":
        if not 2 <= s["samples"] <= MAX_PHI_SAMPLES:
            raise ConfigError(f"samples={s['samples']} must lie in [2, {MAX_PHI_SAMPLES}]")
        check_dimension(s["n"])
        check_radius(s["r_max"], positive=True)

        def run_phi(out: Path):
            r = np.linspace(0.0, s["r_max"], s["samples"])
            asym = np.full_like(r, math.nan)
            asym[r > 0.0] = phi_asymptotic(r[r > 0.0], s["n"])
            return {"outcome": "completed"}, [_write_table(
                out / "phi.csv", r=r, phi=phi(r, s["n"]), phi_asymptotic=asym)]
        return run_phi
    ex = Exponents(p=float(s["p"]), q=float(s["q"]), n=s["n"], R=float(s["R"]))
    if mode == "kato":
        # Loaded where it runs, here and in the audit; simulate and
        # regions never load it.
        from . import comparison

        params = comparison.derive_params(ex, {k: s[k] for k in ("C3", "k2", "k4")})
        ode = {k: s[k] for k in ("F1_0", "dF1_0", "F2_0", "dF2_0", "horizon",
                                 "ode_threshold")}
        comparison.check_comparison_args(params, **ode)

        def run_kato(out: Path):
            lines = []
            for i, cond in enumerate(comparison.check_conditions(params), start=1):
                lines += [f"cond{i}_lhs={cond.lhs:.17g}", f"cond{i}_rhs={cond.rhs:.17g}",
                          f"cond{i}_holds={cond.holds}", f"cond{i}_boundary={cond.boundary}"]
            lines += [f"{key}={getattr(params, key):.17g}" for key in ("k5", "k6", "k7")]
            files = [_write(out / "conditions.txt", "\n".join(lines) + "\n")]
            trace = comparison.integrate_comparison(params, **ode)
            files.append(_write_table(out / "ode_trace.csv", t=trace.times, F1=trace.F1,
                                      dF1=trace.dF1, F2=trace.F2, dF2=trace.dF2))
            # blowup_time is None unless the outcome is blowup.
            return {"outcome": trace.outcome, "blowup_time": trace.blowup_time}, files
        return run_kato
    data = InitialData(Profile(s["profile"]),
                       **{k: float(s[k]) for k in AMPLITUDE_KEYS})
    mesh = {"grid_points": s["grid_points"], "horizon": float(s["horizon"]),
            "cfl_factor": float(s["cfl_factor"]), "coupling": s["coupling"]}
    sampling = {k: s[k] for k in ("sample_every", "blowup_threshold")}
    pde.check_init_args(ex, data, **mesh)
    pde.check_run_args(**sampling)
    if mode == "audit":
        pde.check_audit_args(T0_fraction=s["T0_fraction"])

    def run_pde(out: Path):
        trace = pde.run(ex, data, **mesh, **sampling)
        files = [_write_table(
            out / "trace.csv", t=trace.times, F1=trace.F1, F2=trace.F2, F3=trace.F3,
            F4=trace.F4, J1=trace.J1, J2=trace.J2, J3=trace.J3, J4=trace.J4,
            max_u=trace.max_abs_u, max_v=trace.max_abs_v, support_r=trace.support_r)]
        # An unstable run has no trustworthy functionals to audit.
        if mode == "audit" and trace.outcome != "instability":
            report = pde.audit_inequalities(trace, ex, T0_fraction=s["T0_fraction"])
            files.append(_write(out / "audit.json", _json_text(asdict(report))))
        return {"outcome": trace.outcome, "blowup_time": trace.blowup_time,
                "dt": trace.dt}, files
    return run_pde


@dataclass
class RunSummary:
    wall_time: float
    outcome: str
    blowup_time: float | None
    files: list


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


# Cells per band of the region map, and rows per block of a CSV table:
# what is formatted at once, so memory does not grow with the output.
_BAND_CELLS = 2_000


@functools.cache
def _group_texts() -> np.ndarray:
    """The 4-digit groups of '%.17g' texts, uint32s of four text bytes, NUL
    for a digit not written.  Rows of 10 000: every digit; no leading zeros
    (0 writes nothing); no leading zeros (0 writes "0"); no trailing zeros."""
    digits = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                      axis=-1).reshape(-1, 4)
    leading = np.logical_or.accumulate(digits != 48, axis=1)
    return (digits * np.stack([
        leading | True, leading, leading | [False, False, False, True],
        np.logical_or.accumulate(digits[:, ::-1] != 48, axis=1)[:, ::-1]])).view(np.uint32).ravel()


# The point and the i - 1 zeros after it at index i, nothing at 0.
_DOTS = np.array([b"", b".", b".0", b".00", b".000"], "S4").view(np.uint32)
_MINUS = np.array([b"", b"-"], "S4").view(np.uint32)
# The powers of ten that are exact doubles or int64s.
_P10 = np.array([float(10 ** j) for j in range(22)])
_P10_INT = 10 ** np.arange(18, dtype=np.int64)


def _split(v):
    """Dekker's split of v into halves of 26 bits: v = hi + lo exactly."""
    c = 134217729.0 * v
    hi = c - (c - v)
    return hi, v - hi


def _round17(a, k):
    """round(a * 10**(16 - k)), ties to even, exactly: Dekker's two-product
    with the exact double 10**(16 - k) gives p + e = a * 10**(16 - k)."""
    b = _P10[16 - k]
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    # p >= 1e16 > 2**53 is an even integer, so rint(e) rounds p + e to even.
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _groups(v, n: int) -> list:
    """The n 4-digit groups of the int64 array v < 10**(4n), high first."""
    low = []
    for _ in range(n - 1):
        top = v // 10_000
        low.append(v - top * 10_000)
        v = top
    return [v, *reversed(low)]


def _g17(x) -> np.ndarray:
    """The text ``'%.17g' % v`` of every v in the float array ``x``, as a
    uint8 array of shape ``x.shape + (width,)``: each text's bytes in
    order, with NUL bytes between and after them.

    Byte for byte CPython's text, whose 17 digits are correctly rounded,
    ties to even.  For 1e-4 <= |v| < 1e16 they are D = round(|v| *
    10**(16 - k)) with k = floor(log10 |v|), from ``_round17``; D must lie
    in [10**16, 10**17), else k was one too small.  Python formats every
    other value (0, subnormal, small, large, inf, nan) one at a time.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x).ravel()
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    # floor((e - 1) log10 2) for a in [2**(e - 1), 2**e): k or k - 1.
    k = (np.frexp(a)[1].astype(np.int64) - 1) * 78913 >> 18
    digits = _round17(a, k)
    up = np.flatnonzero(digits >= 10 ** 17)
    k[up] += 1
    digits[up] = _round17(a[up], k[up])
    # The digits of floor(a), then 16 digits after the point (with the
    # first significant digit apart when a < 1).  A double below 1e16 is
    # never rounded up to the next integer at 17 digits.
    whole = a.astype(np.int64)
    frac = (digits - whole * _P10_INT[np.minimum(16 - k, 17)]) * _P10_INT[np.maximum(k, 0)]
    lead = frac // 10 ** 16
    frac -= lead * 10 ** 16
    n = -(-len(str(whole.max(initial=0))) // 4)
    table = _group_texts()
    minus = x.ravel() < 0
    words = [_MINUS[minus.view(np.uint8)]] if minus.any() else []
    words += [table[g + (whole < 10 ** (4 * (n - i))) * (20_000 if i == n - 1 else 10_000)]
              for i, g in enumerate(_groups(whole, n))]
    words.append(_DOTS[np.where((frac | lead) != 0, np.maximum(-k, 1), 0)])
    if (k < 0).any():
        words.append(table[lead + 10_000])
    rest_zero, tail = np.ones(a.shape, bool), []
    for g in reversed(_groups(frac, 4)):
        tail.append(table[g + 30_000 * rest_zero])
        rest_zero &= g == 0
    out = np.stack(words + tail[::-1], axis=-1).view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [b"%.17g" % v for v in x.ravel()[slow].tolist()]
        width = max(out.shape[1], *map(len, texts))
        out = np.pad(out, ((0, 0), (0, width - out.shape[1])))
        out[slow] = np.array(texts, f"S{width}").view(np.uint8).reshape(-1, width)
    return out.reshape(*x.shape, out.shape[-1])


def _csv_lines(*fields) -> bytes:
    """CSV lines of the texts ``fields``, NUL-padded uint8 arrays of shape
    ``(..., width)`` as ``_g17`` makes them: one line per entry of their
    broadcast leading shape, its fields joined by commas."""
    shape = np.broadcast_shapes(*(f.shape[:-1] for f in fields))
    parts = []
    for f, sep in zip(fields, [","] * (len(fields) - 1) + ["\n"]):
        parts += [np.broadcast_to(f, shape + f.shape[-1:]),
                  np.broadcast_to(np.uint8(ord(sep)), shape + (1,))]
    return np.concatenate(parts, axis=-1).tobytes().translate(None, b"\0")


def _write_table(path: Path, **columns) -> Path:
    """A CSV float table: a header of the column names, then one row per
    sample with each number to 17 significant digits.  It is formatted
    ``_BAND_CELLS`` rows at a time."""
    with path.open("wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        for j in range(0, len(next(iter(columns.values()))), _BAND_CELLS):
            fh.write(_csv_lines(*_g17(np.stack([c[j:j + _BAND_CELLS]
                                                for c in columns.values()]))))
    return path


def run_experiment(config: ExperimentConfig, out_dir) -> RunSummary:
    """Run the config's planned run and write all artifacts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    s = config.settings
    echo = _write(out / "config_echo.json", config.echo_text())
    fields, files = config.run(out)
    wall = time.perf_counter() - t_start
    summary = {"mode": config.mode, "blowup_time": None, "dt": None, **fields,
               "wall_time": round(wall, 3),
               **{key: s.get(key) for key in ("grid_points", "p", "q", "n", "R")}}
    files = [echo, *files, _write(out / "summary.json", _json_text(summary))]
    return RunSummary(wall_time=wall, outcome=summary["outcome"],
                      blowup_time=summary["blowup_time"], files=files)


_ALPHA_FIELDS = ("alpha_new", "alpha_nakao_wakasugi", "alpha_wave", "alpha_damped")

# The four label columns of a cell, as text, indexed by its BlowUp masks
# read as a 4-bit number, label_new the high bit.
_LABEL_TEXT = np.array(
    [",".join((Label.BLOW_UP if k >> bit & 1 else Label.UNDETERMINED).value
              for bit in (3, 2, 1, 0)).encode() for k in range(16)]).view(np.uint8).reshape(16, -1)


def _write_regions(p_range: tuple, q_range: tuple, n: int, resolution: int,
                   out: Path, svg: bool) -> list:
    """Write regions.csv, and with ``svg`` regions.svg, in one streaming
    pass over the dimension-``n`` grid of the window; return their paths.

    The grid is scanned in bands of about ``_BAND_CELLS`` cells, q
    ascending.  Each band's CSV lines, alphas to 17 significant digits,
    and its SVG rows (``emit_region_svg``) are written before the next
    band is scanned, so memory does not grow with the resolution.
    """
    band_rows = max(1, _BAND_CELLS // resolution)
    paths = [out / "regions.csv", *([out / "regions.svg"] if svg else [])]
    svg_map = _SvgMap(p_range, q_range, resolution) if svg else None
    with contextlib.ExitStack() as stack:
        csv_fh = stack.enter_context(paths[0].open("wb"))
        svg_fh = stack.enter_context(paths[1].open("w")) if svg else None
        csv_fh.write(b"p,q,alpha_new,alpha_NW,alpha_W,alpha_DW,"
                     b"label_new,label_NW,label_W,label_DW\n")
        if svg:
            svg_fh.write(svg_map.head)
        for j in range(0, resolution, band_rows):
            cells = np.stack(criticality.scan(p_range, q_range, n, resolution,
                                              rows=range(j, min(j + band_rows, resolution))))
            if svg:
                emit_region_svg(svg_fh, svg_map, cells["category"], j)
            if j == 0:
                p_text = _g17(cells["p"][0])
            labels = _LABEL_TEXT[8 * cells["label_new"] + 4 * cells["label_nakao_wakasugi"]
                                 + 2 * cells["label_wave"] + cells["label_damped"]]
            csv_fh.write(_csv_lines(
                p_text, _g17(cells["q"][:, :1]),
                *_g17(np.stack([cells[key] for key in _ALPHA_FIELDS])), labels))
        if svg:
            svg_fh.write(svg_map.tail)
    return paths


# Each cell category's name and color, in criticality.CATEGORIES order.
_SVG_CATEGORIES = tuple(zip(criticality.CATEGORIES,
                            ("#d73027", "#fc8d59", "#4575b4", "#bdbdbd")))


class _SvgMap:
    """The 800x800 SVG heat map of the comparison-ODE label of a
    ``resolution`` x ``resolution`` scan of the window
    ``p_range`` x ``q_range``: its ``head``, then the cells of every grid
    row, written by ``emit_region_svg`` in any number of calls, then its
    ``tail``.

    The plot area spans the window, so axis ticks are placed from it.
    Each cell is one ``<rect>``.
    """

    # The plot area.
    x0, y0, x1, y1 = 70.0, 40.0, 760.0, 730.0
    head = ('<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
            'viewBox="0 0 800 800">\n'
            '<rect x="0" y="0" width="800" height="800" fill="#ffffff"/>\n')

    def __init__(self, p_range: tuple, q_range: tuple, resolution: int):
        x0, y0, x1, y1 = self.x0, self.y0, self.x1, self.y1
        self.ch = (y1 - y0) / resolution
        cw = (x1 - x0) / resolution
        # A cell's line is its column's head, its row's y and its color's tail.
        self.heads = [f'<rect x="{x0 + i * cw:.2f}" y="' for i in range(resolution)]
        self.tails = [f'" width="{cw:.2f}" height="{self.ch:.2f}" fill="{color}"/>\n'
                      for _, color in _SVG_CATEGORIES]

        # Drawn after the cells: the frame, axis ticks at integer exponent
        # values, the axis names and the legend.
        (p_lo, p_hi), (q_lo, q_hi) = p_range, q_range
        parts = [f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
                 f'height="{y1 - y0:.2f}" fill="none" stroke="#000000"/>']
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
        for name, color in _SVG_CATEGORIES:
            parts.append(f'<rect x="{lx:.2f}" y="10" width="14" height="14" '
                         f'fill="{color}"/>')
            parts.append(f'<text x="{lx + 18:.2f}" y="22" font-size="12">{name}</text>')
            lx += 170.0
        parts.append("</svg>")
        self.tail = "\n".join(parts) + "\n"


def emit_region_svg(fh, svg_map: _SvgMap, categories, j0: int) -> None:
    """Write grid rows ``j0, j0 + 1, ...`` of ``svg_map``, given as rows of
    _SVG_CATEGORIES indices, to the open file ``fh``, one ``<rect>`` per
    cell and one row per write."""
    for j, row in enumerate(categories.tolist(), start=j0):
        # q grows upward: row j sits at the bottom for j = 0.
        y = f"{svg_map.y1 - (j + 1) * svg_map.ch:.2f}"
        fh.write("".join([head + y + svg_map.tails[c]
                          for head, c in zip(svg_map.heads, row)]))


def _apply_sweep(config: ExperimentConfig, sweep: str) -> list:
    """Parse every value of a ``key=v1,v2,...`` sweep, before any runs."""
    key, _, raw = sweep.partition("=")
    if not raw:
        raise ConfigError(f"malformed sweep spec {sweep!r}; expected key=v1,v2,...")
    values = raw.split(",")
    base = {"mode": config.mode, **config.settings}
    # The amplitudes shorthand sweeps the modes that have amplitude keys.
    if key == "amplitudes" and "amplitude_u0" in config.settings:
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
        try:
            text = args.config.read_text() if args.config else "{}"
        except OSError as e:
            raise ConfigError(f"cannot read {str(args.config)!r}: {e.strerror}") from None
        except UnicodeDecodeError as e:
            raise ConfigError(f"cannot read {str(args.config)!r}: {e}") from None
        config = parse_config(text, mode=args.mode)
        sweep = _apply_sweep(config, args.sweep) if args.sweep else None
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    # Run-time exits 2: an unusable output directory, the weight guard.
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
    except (OSError, OverflowGuardError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
