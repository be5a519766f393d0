"""Tests for the experiment harness: strict config parsing, artifact
emission, byte-identical reproducibility, sweeps and the exit-status
contract (blow-up is a scientific outcome, exit 0; instability is 1;
configuration errors are 2)."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from blowlab import cli, comparison, pde
from blowlab.cli import (
    _DEFAULTS,
    _SVG_CATEGORIES,
    MAX_PHI_SAMPLES,
    MODES,
    ConfigError,
    main,
    parse_config,
    run_experiment,
)
from blowlab.criticality import Label, classify, scan
from blowlab.exponents import Exponents, theorem_bounds
from blowlab.pde import CFL_LIMITS, MAX_GRID_POINTS, MAX_STEPS

FAST_SIM = {"grid_points": 250, "horizon": 2.0, "sample_every": 5}

# A mesh coarser than the data (h = 0.99 against R = 0.5) on which F3
# goes negative in n = 8: the run ends as an instability.
SIGN_LOSS = {"p": 4 / 3, "q": 4 / 3, "n": 8, "amplitudes": 0.1, "horizon": 192,
             "grid_points": 200, "R": 0.5, "cfl_factor": 0.45}

# conditions.txt of the default kato config, and of p = q = 1.5, n = 2
# with C3 = 0.37, k2 = 0.81, k4 = 1.9.
CONDITIONS_DEFAULT = """\
cond1_lhs=3
cond1_rhs=9
cond1_holds=True
cond1_boundary=False
cond2_lhs=3
cond2_rhs=9
cond2_holds=True
cond2_boundary=False
k5=0.00012056327160493826
k6=0.22226402294499964
k7=0.095392853546111017
"""
CONDITIONS_N2 = """\
cond1_lhs=2.5
cond1_rhs=6.25
cond1_holds=True
cond1_boundary=False
cond2_lhs=2.5
cond2_rhs=6.5625
cond2_holds=True
cond2_boundary=False
k5=0.0021405680607533136
k6=0.29248648829375085
k7=0.13864259278730284
"""


# A run whose F4 grows past 1e308^(1/q), so that J3 = F4^q leaves the
# float range in its last samples.
J3_OVERFLOW = {"n": 1, "p": 3.931475598811457, "q": 5.8539456536594585,
               "amplitudes": 0.0018512996093755724, "horizon": 397.11609638511845,
               "grid_points": 200, "cfl_factor": 0.8, "R": 1.0, "coupling": True}

# A run whose weight W2 leaves the float range at t = 0 while s'(t + R)
# stays below the 700 of the overflow guard: s' = p/(p-1) = 334.
W2_OVERFLOW = {"n": 3, "p": 1.003, "q": 2, "amplitudes": 0.1, "horizon": 0.5,
               "grid_points": 200}

# A run in which one audit-window sample's F1 second-order shape is about
# 1e-300, so that its fitted-k4 ratio leaves the float range.
K4_OVERFLOW = {"n": 1, "p": 2.206588509314799, "q": 5.772494008007659,
               "amplitudes": 0.011414105206280556, "horizon": 359.58341677137173,
               "grid_points": 200, "cfl_factor": 0.5, "R": 1.0, "coupling": True}

# Runs near p = 1 or q = 1, whose envelope fits leave the float range:
# W4 / env4 is about 1e235 / 1e-140 (C2TILDE_OVERFLOW) and W2 / env2 about
# 1e201 / 1e-202 (C2_OVERFLOW), and env4 = e^{...} (t + R)^{-426} itself
# overflows at 76 of 851 samples, where t + R < 1 (ENV4_OVERFLOW).
C2TILDE_OVERFLOW = {"n": 5, "p": 1.06, "q": 1.0087, "R": 4, "amplitudes": 10,
                    "grid_points": 400, "horizon": 1.3, "coupling": False}
C2_OVERFLOW = {"n": 7, "p": 1.01, "q": 1.12, "R": 4, "amplitudes": 1,
               "grid_points": 200, "horizon": 0.75, "cfl_factor": 0.45}
ENV4_OVERFLOW = {"n": 7, "p": 1.2, "q": 1.007, "R": 0.05, "amplitudes": 500,
                 "grid_points": 400, "horizon": 1.6, "cfl_factor": 0.45,
                 "sample_every": 1, "blowup_threshold": 2e6}

# The simulator runs in every dimension: an n = 5 run on the
# undetermined side of the critical curve.
N5 = {"n": 5, "p": 1.9, "q": 1.6, "amplitudes": 1.0, "grid_points": 1000,
      "horizon": 5.0, "cfl_factor": 0.45}

# An audit whose C3, k2 and k4 seed a kato config that blows up.
CHAIN = {"p": 1.5, "q": 1.5, "n": 2, "amplitudes": 1.0, "grid_points": 300,
         "horizon": 5.0}

# Small data in n = 1, whose F1 second-order margin is 6.4e-8 of a
# 3.9e-7 scale and whose fitted k2 is 0.298.
SMALL_DATA = {"p": 3, "q": 3, "n": 1, "amplitudes": 0.005, "grid_points": 300,
              "horizon": 5}

# Data near the float maximum, whose phi-weighted integrals F3, F4 and C0, C1
# read inf.
DATA_NEAR_MAX = {"amplitudes": 1e308, "grid_points": 300, "horizon": 3}

# A comparison ODE whose right-hand side is finite at T0 but whose square
# norm, in RK45's first-step estimate, leaves the float range.
KATO_HUGE_RHS = {"p": 50, "q": 1.1, "F1_0": 604.0, "dF1_0": 0.0027, "F2_0": 66575.0,
                 "dF2_0": 0.98, "C3": 1e6, "k2": 0.16, "k4": 0.0003,
                 "horizon": 7.3, "ode_threshold": 2e10}


def steps_doc(steps):
    """A simulate config whose run takes about ``steps`` leapfrog steps:
    horizon 10 on R + horizon = 11 over 2006 nodes, so h = 11/2000."""
    return json.dumps({"grid_points": 2006,
                       "cfl_factor": 10.0 / (11.0 / 2000.0 * steps)})

# Out-of-range, mistyped and non-finite configs, and a sweep with one bad
# value: each must be rejected at parse time, before the output directory
# exists.
REJECTED = [
    ("simulate", '{"amplitude_u1": 0.0}', ()),
    ("simulate", '{"amplitudes": 0.0, "coupling": false}', ()),
    ("simulate", '{"R": 800.0}', ()),
    ("kato", '{"n": 9}', ()),
    ("kato", '{"n": 3, "p": 3.5}', ()),
    ("simulate", '{"amplitudes": "5"}', ()),
    ("simulate", '{"amplitudes": true}', ()),
    ("simulate", '{"amplitudes": Infinity}', ()),
    ("simulate", '{"horizon": Infinity}', ()),
    ("simulate", '{"R": Infinity}', ()),
    ("kato", '{"F1_0": Infinity}', ()),
    ("simulate", '{"p": NaN}', ()),
    ("simulate", '{"horizon": 1e400}', ()),
    ("simulate", '{"R": 1e200}', ()),
    ("simulate", '{"horizon": 1e200}', ()),
    ("simulate", json.dumps({"grid_points": MAX_GRID_POINTS + 1}), ()),
    ("simulate", steps_doc(MAX_STEPS + 0.5), ()),
    # cfl_factor 1.0 lies above the n = 2 stability limit 0.9089.  This
    # config once ran into the scheme's unbounded growth and a sign loss.
    ("simulate", json.dumps({"p": 3.843, "q": 2.19, "n": 2, "amplitudes": 0.00165,
                             "horizon": 90.5, "grid_points": 200,
                             "cfl_factor": 1.0, "R": 0.5}), ()),
    ("phi", json.dumps({"samples": MAX_PHI_SAMPLES + 1}), ()),
    ("simulate", '{"grid_points": 250, "horizon": 2.0}',
     ("--sweep", "grid_points=250,10")),
    # One out-of-range setting per mode.
    ("simulate", '{"sample_every": 0}', ()),
    ("audit", '{"T0_fraction": 1.0}', ()),
    ("kato", '{"ode_threshold": -1}', ()),
    ("regions", '{"resolution": 0}', ()),
    ("phi", '{"samples": 1}', ()),
    # cfl_factor 0.8 lies just above the n = 3 limit 0.7926, and the
    # default 0.5 above the n = 8 limit 0.4999.
    ("simulate", '{"n": 3, "cfl_factor": 0.9}', ()),
    ("simulate", '{"n": 3, "cfl_factor": 0.8}', ()),
    ("simulate", '{"n": 8}', ()),
]


def _svg_category(report) -> str:
    """The SVG category of one classify report: the scalar oracle of the
    category map ``emit_region_svg`` draws."""
    on_curve = abs(report.alpha_new - report.threshold_wavelike) <= 1e-12
    if report.label_new is Label.BLOW_UP:
        return "boundary" if on_curve else "blowup"
    if report.alpha_new >= report.threshold_wavelike and not report.hypotheses_ok:
        return "hypothesis-failed"
    return "undetermined"


def cell_centers(lo, hi, resolution) -> list:
    """The centres of ``resolution`` equal cells of [lo, hi]."""
    width = (hi - lo) / resolution
    return [lo + (i + 0.5) * width for i in range(resolution)]


def regions_csv_per_cell(p_range, q_range, n, resolution) -> str:
    """regions.csv as the per-cell writer produced it, from a row-major
    grid of classify reports at the cell centres: the oracle of the
    row-streamed writer."""
    rows = ["p,q,alpha_new,alpha_NW,alpha_W,alpha_DW,"
            "label_new,label_NW,label_W,label_DW"]
    for qv in cell_centers(*q_range, resolution):
        for c in [classify(pv, qv, n) for pv in cell_centers(*p_range, resolution)]:
            rows.append(",".join([
                f"{c.p:.17g}", f"{c.q:.17g}",
                f"{c.alpha_new:.17g}", f"{c.alpha_nakao_wakasugi:.17g}",
                f"{c.alpha_wave:.17g}", f"{c.alpha_damped:.17g}",
                c.label_new.value, c.label_nakao_wakasugi.value,
                c.label_wave.value, c.label_damped.value,
            ]))
    return "\n".join(rows) + "\n"


def regions_svg_cells_per_cell(p_range, q_range, n, resolution) -> list:
    """The cell lines of regions.svg, one ``<rect>`` per cell in grid
    order, q ascending: the plot area [70, 760] x [40, 730] cut into
    ``resolution`` columns and rows, row j at the bottom for j = 0, each
    filled with the category of a classify report at the cell centre.
    The oracle of the band writer ``emit_region_svg``."""
    colors = dict(_SVG_CATEGORIES)
    size = 690.0 / resolution
    return [f'<rect x="{70.0 + i * size:.2f}" y="{730.0 - (j + 1) * size:.2f}" '
            f'width="{size:.2f}" height="{size:.2f}" '
            f'fill="{colors[_svg_category(classify(pv, qv, n))]}"/>'
            for j, qv in enumerate(cell_centers(*q_range, resolution))
            for i, pv in enumerate(cell_centers(*p_range, resolution))]


def svg_cell_lines(path, resolution) -> list:
    """The cell lines of a regions.svg: after the root and the white
    background, before the frame."""
    lines = Path(path).read_text().splitlines()
    assert lines[1] == '<rect x="0" y="0" width="800" height="800" fill="#ffffff"/>'
    assert 'fill="none"' in lines[2 + resolution ** 2]
    return lines[2:2 + resolution ** 2]


def render_regions_svg(out, p_range, q_range, n, resolution) -> Path:
    """regions.svg of the dimension-``n`` window, as ``regions`` writes it."""
    out.mkdir(parents=True, exist_ok=True)
    return cli._write_regions(p_range, q_range, n, resolution, out, True)[1]


def package_env() -> dict:
    """This environment, with the tested package first on PYTHONPATH, for
    a child interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def reject_constant(name):
    """A json.loads parse_constant that fails on NaN and +-Infinity."""
    raise AssertionError(f"{name} is not JSON")


@st.composite
def kato_docs(draw):
    """kato configs over wide ranges: data, constants, thresholds and
    horizons over many orders of magnitude, powers up to 12 or the cap."""
    def log_uniform(lo, hi):
        return 10.0 ** draw(st.floats(lo, hi))

    n = draw(st.sampled_from([1, 2, 3]))
    top = min(theorem_bounds(n)[0][1], 12.0)
    doc = {"n": n, "R": draw(st.sampled_from([0.5, 1.0, 3.0])),
           "ode_threshold": log_uniform(0, 40), "horizon": log_uniform(-1, 3)}
    for key in ("p", "q"):
        doc[key] = draw(st.floats(1.01, top, exclude_max=True))
    for key in ("F1_0", "dF1_0", "F2_0", "dF2_0"):
        doc[key] = log_uniform(-3, 4)
    for key in ("C3", "k2", "k4"):
        doc[key] = log_uniform(-4, 3)
    return doc


@st.composite
def simulation_docs(draw):
    """simulate and audit configs over the ranges of the audit fuzz in
    every dimension: p, q in the theorem range (below 12 for n = 1), a
    CFL factor at or below the dimension's limit, data and horizons over
    several orders of magnitude, coarse grids, coupled and uncoupled."""
    n = draw(st.integers(1, 8))
    doc = {"n": n, "grid_points": draw(st.integers(200, 500)),
           "amplitudes": 10.0 ** draw(st.floats(-3.0, 1.5)),
           "horizon": 10.0 ** draw(st.floats(-1.0, 2.6)),
           "cfl_factor": draw(st.floats(0.25, CFL_LIMITS[n])),
           "coupling": draw(st.booleans())}
    for key, (_, bound, _) in zip("pq", theorem_bounds(n)):
        doc[key] = draw(st.floats(1.0, min(bound, 12.0), exclude_min=True, exclude_max=True))
    return draw(st.sampled_from(["simulate", "audit"])), doc


JSON_VALUES = st.one_of(st.integers(-10, 5000), st.floats(), st.booleans(),
                        st.text(max_size=12))


class TestParseConfig:
    def test_defaults_fill(self):
        cfg = parse_config("{}", mode="simulate")
        assert cfg.mode == "simulate"
        assert cfg.settings["p"] == 2.0
        assert cfg.settings["grid_points"] == 2000
        assert cfg.settings["coupling"] is True

    def test_echo_round_trip(self):
        cfg = parse_config('{"p": 2.5, "horizon": 3.0}', mode="simulate")
        again = parse_config(cfg.echo_text())
        assert again == cfg

    def test_amplitudes_shorthand(self):
        cfg = parse_config('{"amplitudes": 7.0}', mode="audit")
        for key in ("amplitude_u0", "amplitude_u1", "amplitude_v0",
                    "amplitude_v1"):
            assert cfg.settings[key] == 7.0
        # Explicit keys win over the shorthand.
        cfg2 = parse_config('{"amplitudes": 7.0, "amplitude_v1": 1.0}',
                            mode="audit")
        assert cfg2.settings["amplitude_v1"] == 1.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys.*gridpoints"):
            parse_config('{"gridpoints": 100}', mode="simulate")
        with pytest.raises(ConfigError, match="amplitudes"):
            parse_config('{"amplitudes": 2.0}', mode="kato")

    def test_mode_handling(self):
        with pytest.raises(ConfigError, match="must specify a mode"):
            parse_config("{}")
        with pytest.raises(ConfigError, match="does not match subcommand"):
            parse_config('{"mode": "kato"}', mode="simulate")
        with pytest.raises(ConfigError, match="unknown mode"):
            parse_config('{"mode": "simulte"}')

    def test_malformed_document(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("{not json", mode="phi")
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config("[1, 2]", mode="phi")

    def test_validation_messages(self):
        with pytest.raises(ConfigError, match=r"p=1.0 must exceed 1"):
            parse_config('{"p": 1.0}', mode="simulate")
        with pytest.raises(ConfigError, match=r"p=3 >= 2n/\(n-1\)=3 for n=3"):
            parse_config('{"p": 3.0, "q": 2.0, "n": 3}', mode="simulate")
        with pytest.raises(ConfigError, match=r"p=2.2 > \(n\+3\)/\(n-1\)=2 for n=5$"):
            parse_config('{"n": 5, "p": 2.2, "q": 1.5, "cfl_factor": 0.45}', mode="simulate")
        # The default CFL factor 0.5 lies above the n = 8 limit.
        with pytest.raises(ConfigError, match=r"^cfl_factor=0.5: .* limit for n=8$"):
            parse_config('{"n": 8}', mode="simulate")
        with pytest.raises(ConfigError, match="grid_points"):
            parse_config('{"grid_points": 10}', mode="simulate")
        with pytest.raises(ConfigError, match="cfl_factor"):
            parse_config('{"cfl_factor": 2.0}', mode="simulate")
        with pytest.raises(ConfigError, match="T0_fraction"):
            parse_config('{"T0_fraction": 1.5}', mode="audit")
        with pytest.raises(ConfigError, match="resolution"):
            parse_config('{"resolution": 0}', mode="regions")
        with pytest.raises(ConfigError, match="range"):
            parse_config('{"p_min": 0.5}', mode="regions")
        with pytest.raises(ConfigError, match="overflow guard"):
            parse_config('{"r_max": 1000.0}', mode="phi")
        # Mistyped values are rejected, not coerced.
        for mode, doc in (("simulate", '{"coupling": "false"}'),
                          ("simulate", '{"coupling": 0}'),
                          ("simulate", '{"grid_points": 2000.7}'),
                          ("simulate", '{"p": "2"}'),
                          ("simulate", '{"amplitudes": "5"}'),
                          ("simulate", '{"amplitudes": true}'),
                          ("regions", '{"svg": "false"}'),
                          ("regions", '{"n": 2.9}')):
            with pytest.raises(ConfigError, match="must be a JSON"):
                parse_config(doc, mode=mode)
        # The offending value is echoed as JSON spells it.
        for mode, doc, message in (
                ("kato", '{"k2": null}', "k2=null must be a JSON number"),
                ("simulate", '{"coupling": "false"}', 'coupling="false" must be a JSON boolean'),
                ("simulate", '{"coupling": 0}', "coupling=0 must be a JSON boolean"),
                ("simulate", '{"horizon": NaN}', "horizon=NaN must be a finite number")):
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                parse_config(doc, mode=mode)
        for value in ("NaN", "Infinity", "-Infinity", "1e400"):
            with pytest.raises(ConfigError, match="must be a finite number"):
                parse_config(f'{{"horizon": {value}}}', mode="kato")

    @pytest.mark.parametrize("doc, message", [
        ({"C3": 0.0}, "C3=0.0 must be positive"),
        ({"k2": -0.5}, "k2=-0.5 must be positive"),
        ({"k4": -2.0}, "k4=-2.0 must be positive"),
        # The constants an uncoupled audit with amplitude_v0 = 0 reports.
        ({"C3": 0.0, "k2": -1.0, "k4": -1.0}, "C3=0.0 must be positive"),
    ])
    def test_kato_constants_named_in_their_own_terms(self, doc, message):
        # Not as k0, k2 or k4 of the comparison system.
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(json.dumps(doc), mode="kato")

    @pytest.mark.parametrize("mode, key, value", [
        ("simulate", "sample_every", 0),
        ("audit", "sample_every", -3),
        ("simulate", "blowup_threshold", 0),
        ("simulate", "blowup_threshold", -1.0),
        ("audit", "T0_fraction", 1.0),
        ("audit", "T0_fraction", 0),
        ("kato", "F1_0", 0),
        ("kato", "dF1_0", -1.0),
        ("kato", "F2_0", 0.0),
        ("kato", "dF2_0", -2.5),
        ("kato", "horizon", 0.0),
        ("kato", "horizon", -4),
        ("kato", "ode_threshold", -1.0),
    ])
    def test_one_message_per_rule(self, mode, key, value):
        # A setting only the run uses is checked by the library entry
        # point that uses it, with the message that entry point raises.
        with pytest.raises(ConfigError) as parsed:
            parse_config(json.dumps({key: value}), mode=mode)
        ex = Exponents(2.0, 2.0, 1)

        def entry_point():
            if mode == "kato":
                args = {k: _DEFAULTS["kato"][k] for k in
                        ("F1_0", "dF1_0", "F2_0", "dF2_0", "horizon", "ode_threshold")}
                return comparison.integrate_comparison(
                    comparison.derive_params(ex), **{**args, key: value})
            if key == "T0_fraction":
                trace = pde.run(ex, pde.InitialData(), grid_points=200, horizon=0.5)
                return pde.audit_inequalities(trace, ex, T0_fraction=value)
            return pde.run(ex, pde.InitialData(), **{key: value})

        with pytest.raises(ValueError) as direct:
            entry_point()
        assert str(parsed.value) == str(direct.value)
        assert str(parsed.value).startswith(f"{key}={value} ")

    def test_builds_no_mesh(self, monkeypatch):
        # The simulator's ranges are checked by pde.check_init_args alone;
        # parsing samples no data and seeds no time level.
        def no_init_state(*args, **kwargs):
            raise AssertionError("parse_config called init_state")

        monkeypatch.setattr(pde, "init_state", no_init_state)
        for mode in ("simulate", "audit"):
            for doc in ({}, J3_OVERFLOW, {"amplitudes": 1e200}):
                parse_config(json.dumps(doc), mode=mode)
            with pytest.raises(ConfigError, match="cfl_factor"):
                parse_config('{"n": 3, "cfl_factor": 0.9}', mode=mode)

    def test_work_bounds_admit_their_value(self):
        # One past each bound is rejected (REJECTED); the bound itself parses.
        parse_config(json.dumps({"grid_points": MAX_GRID_POINTS}), mode="simulate")
        parse_config(steps_doc(MAX_STEPS - 0.5), mode="simulate")
        parse_config(json.dumps({"samples": MAX_PHI_SAMPLES}), mode="phi")

    @pytest.mark.parametrize("mode", MODES)
    def test_parse_is_total(self, mode):
        # Any object on the mode's keys either parses or is a ConfigError;
        # no other exception escapes the range checks.
        keys = sorted(_DEFAULTS[mode]) + ["amplitudes"]

        @settings(max_examples=60, deadline=None)
        @example({"R": 1e200})
        @example({"horizon": 1e200})
        # Radii at which phi_asymptotic is inf: r^{-(n-1)/2} leaves the float range.
        @example({"r_max": 5e-324})
        @example({"n": 8, "r_max": 1e-100})
        @given(st.dictionaries(st.sampled_from(keys), JSON_VALUES))
        def parses_or_config_error(doc):
            try:
                parse_config(json.dumps(doc), mode=mode)
            except ConfigError:
                pass

        parses_or_config_error()


class TestRunExperiment:
    def test_simulate_artifacts(self, tmp_path):
        cfg = parse_config(json.dumps(FAST_SIM), mode="simulate")
        summary = run_experiment(cfg, tmp_path)
        assert summary.outcome == "completed"
        names = {f.name for f in summary.files}
        assert names == {"config_echo.json", "trace.csv", "summary.json"}
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["mode"] == "simulate"
        assert doc["outcome"] == "completed"
        assert doc["blowup_time"] is None
        assert set(doc) >= {"mode", "outcome", "blowup_time", "grid_points",
                            "dt", "p", "q", "n", "R"}
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == "t,F1,F2,F3,F4,J1,J2,J3,J4,max_u,max_v,support_r"

    @pytest.mark.parametrize("mode", MODES)
    def test_summary_keys(self, tmp_path, mode):
        # Every mode writes the same keys: its own outcome, blowup_time and
        # dt (null where it has none), the wall time and five settings
        # (null where the mode has no such key).
        doc = json.dumps({"simulate": FAST_SIM, "audit": FAST_SIM,
                          "regions": {"resolution": 4}}.get(mode, {}))
        summary = run_experiment(parse_config(doc, mode=mode), tmp_path)
        got = json.loads((tmp_path / "summary.json").read_text())
        assert set(got) == {"mode", "outcome", "blowup_time", "dt", "wall_time",
                            "grid_points", "p", "q", "n", "R"}
        assert (got["mode"], got["outcome"], got["blowup_time"]) == \
            (mode, summary.outcome, summary.blowup_time)
        assert (got["dt"] is None) == (mode in ("kato", "regions", "phi"))
        assert (got["p"] is None) == (mode in ("regions", "phi"))

    def test_audit_artifacts(self, tmp_path):
        cfg = parse_config(json.dumps({**FAST_SIM, "amplitudes": 5.0}),
                           mode="audit")
        run_experiment(cfg, tmp_path)
        doc = json.loads((tmp_path / "audit.json").read_text())
        assert len(doc["inequalities"]) == 5
        assert all(item["passed"] for item in doc["inequalities"])
        assert doc["min_passing_T0"] is not None
        # The note of a conclusive audit names the fitted k2 and k4 by
        # their keys in the document.
        named = re.findall(r"\bconstants\.(\w+)", doc["note"])
        assert doc["inconclusive"] is False and named
        assert set(named) <= set(doc["constants"])

    def test_audit_json_is_the_report(self, tmp_path):
        # audit.json is the audit's report as a dict: its fields are the
        # document's keys, and the CLI writes nothing else.
        doc = {**FAST_SIM, "p": 1.5, "q": 1.5, "n": 2}
        run_experiment(parse_config(json.dumps(doc), mode="audit"), tmp_path)
        ex = Exponents(1.5, 1.5, 2)
        trace = pde.run(ex, pde.InitialData(), grid_points=250, horizon=2.0,
                        sample_every=5)
        report = asdict(pde.audit_inequalities(trace, ex))
        assert len(report["inequalities"]) == 5
        assert (tmp_path / "audit.json").read_text() == cli._json_text(report)

    def test_kato_artifacts(self, tmp_path):
        cfg = parse_config("{}", mode="kato")
        summary = run_experiment(cfg, tmp_path)
        assert summary.outcome == "blowup"
        # conditions.txt is pure float arithmetic, so its bytes are frozen.
        assert (tmp_path / "conditions.txt").read_text() == CONDITIONS_DEFAULT
        header = (tmp_path / "ode_trace.csv").read_text().splitlines()[0]
        assert header == "t,F1,dF1,F2,dF2"

    def test_trace_csv_columns_are_the_trace_in_order(self, tmp_path):
        # Distinct amplitudes and p != q make every column of the first
        # row distinct, so a swap of two columns cannot go unseen.
        amplitudes = {"amplitude_u0": 1.0, "amplitude_u1": 2.0,
                      "amplitude_v0": 3.0, "amplitude_v1": 4.0}
        doc = {"p": 2.0, "q": 3.0, "n": 1, **amplitudes, "grid_points": 300,
               "horizon": 0.5, "sample_every": 5}
        run_experiment(parse_config(json.dumps(doc), mode="simulate"), tmp_path)
        trace = pde.run(Exponents(2.0, 3.0, 1), pde.InitialData(**amplitudes),
                        grid_points=300, horizon=0.5, sample_every=5)
        first = [float(column[0]) for column in (
            trace.times, trace.F1, trace.F2, trace.F3, trace.F4, trace.J1, trace.J2,
            trace.J3, trace.J4, trace.max_abs_u, trace.max_abs_v, trace.support_r)]
        assert len(set(first)) == 12
        header, line = (tmp_path / "trace.csv").read_text().splitlines()[:2]
        assert header == "t,F1,F2,F3,F4,J1,J2,J3,J4,max_u,max_v,support_r"
        assert line == ",".join(f"{x:.17g}" for x in first)

    def test_kato_conditions_with_constants(self, tmp_path):
        cfg = parse_config(json.dumps({"p": 1.5, "q": 1.5, "n": 2, "C3": 0.37,
                                       "k2": 0.81, "k4": 1.9}), mode="kato")
        run_experiment(cfg, tmp_path)
        assert (tmp_path / "conditions.txt").read_text() == CONDITIONS_N2

    def test_regions_artifacts(self, tmp_path):
        cfg = parse_config('{"resolution": 8, "svg": true}', mode="regions")
        run_experiment(cfg, tmp_path)
        lines = (tmp_path / "regions.csv").read_text().splitlines()
        assert len(lines) == 8 * 8 + 1
        labels = {line.split(",")[6] for line in lines[1:]}
        assert labels == {"BlowUp"}
        assert (tmp_path / "regions.svg").read_text().startswith("<svg")

    def test_phi_artifacts(self, tmp_path):
        cfg = parse_config('{"samples": 10}', mode="phi")
        run_experiment(cfg, tmp_path)
        lines = (tmp_path / "phi.csv").read_text().splitlines()
        assert lines[0] == "r,phi,phi_asymptotic"
        assert len(lines) == 11

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("window", [((1.1, 10.0), (1.1, 10.0), 40),
                                        ((1.3, 4.1), (1.05, 3.7), 23),
                                        ((1.5, 2.5), (1.5, 2.5), 1),
                                        # Ten bands, the last of six rows.
                                        ((1.3, 4.1), (1.05, 3.7), 150)])
    def test_regions_csv_equals_per_cell_writer(self, tmp_path, monkeypatch,
                                                n, window):
        (p_min, p_max), (q_min, q_max), resolution = window
        cfg = parse_config(json.dumps(
            {"n": n, "resolution": resolution, "p_min": p_min, "p_max": p_max,
             "q_min": q_min, "q_max": q_max, "svg": True}), mode="regions")
        want = regions_csv_per_cell((p_min, p_max), (q_min, q_max), n, resolution)
        # In bands of 16 rows, whatever the grid size.
        monkeypatch.setattr(cli, "_BAND_CELLS", 16 * resolution)
        run_experiment(cfg, tmp_path)
        assert (tmp_path / "regions.csv").read_text() == want
        # The streamed SVG draws every cell where and as the oracle does.
        want = regions_svg_cells_per_cell((p_min, p_max), (q_min, q_max), n, resolution)
        assert svg_cell_lines(tmp_path / "regions.svg", resolution) == want

    @pytest.mark.parametrize("mode,doc,names", [
        ("simulate", FAST_SIM, {"trace.csv"}),
        ("audit", FAST_SIM, {"trace.csv", "audit.json"}),
        ("kato", {}, {"conditions.txt", "ode_trace.csv"}),
        ("regions", {"resolution": 4, "svg": True}, {"regions.csv", "regions.svg"}),
        ("phi", {"samples": 10}, {"phi.csv"}),
    ])
    def test_config_is_planned_once(self, tmp_path, monkeypatch, mode, doc, names):
        # parse_config plans the run and the config keeps it, so
        # run_experiment writes every artifact without planning again.
        cfg = parse_config(json.dumps(doc), mode=mode)

        def no_plan(*args):
            raise AssertionError("the config was planned again")

        monkeypatch.setattr(cli, "_plan", no_plan)
        summary = run_experiment(cfg, tmp_path)
        names = names | {"config_echo.json", "summary.json"}
        assert {f.name for f in summary.files} == names
        assert {f.name for f in tmp_path.iterdir()} == names
        assert all(f.stat().st_size > 0 for f in summary.files)

    def test_byte_identical_reproducibility(self, tmp_path):
        cfg = parse_config('{"resolution": 6, "svg": true}', mode="regions")
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        for name in ("config_echo.json", "regions.csv", "regions.svg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        sim = parse_config(json.dumps(FAST_SIM), mode="simulate")
        run_experiment(sim, tmp_path / "c")
        run_experiment(sim, tmp_path / "d")
        assert (tmp_path / "c" / "trace.csv").read_bytes() == \
            (tmp_path / "d" / "trace.csv").read_bytes()


def regions_peak_rss_mb(tmp_path, doc: dict) -> float:
    """The peak RSS of a fresh process that runs one ``regions`` config
    through ``cli.main``, in MB."""
    # VmHWM, not ru_maxrss: a child's ru_maxrss starts at the RSS of the
    # process that forked it (Linux keeps the maximum across exec), and
    # the test process is larger than the map.
    code = ("import sys\n"
            "from blowlab.cli import main\n"
            "status = main(['regions', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
            "sys.exit(status)\n")
    tmp_path.mkdir()
    config = tmp_path / "regions.json"
    config.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-c", code, str(config), str(tmp_path / "out")],
                          capture_output=True, text=True, check=True, env=package_env())
    # The resolution-1000 map writes 180 MB.
    shutil.rmtree(tmp_path / "out")
    return int(proc.stdout.split()[-1]) * 1024 / 1e6


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_region_map_memory_does_not_grow_with_resolution(tmp_path):
    # The map is streamed in bands: a 100-fold larger grid, drawn as
    # SVG too, may cost a few bands more, never the grid (the whole
    # grid at resolution 1000 took about 100 MB against 33 MB).
    small = regions_peak_rss_mb(tmp_path / "small", {"resolution": 100})
    large = regions_peak_rss_mb(tmp_path / "large", {"resolution": 1000, "svg": True})
    assert large - small <= 15.0, (small, large)


def g17_lines(x) -> bytes:
    """The texts of cli._g17 over the array x, one line each."""
    return cli._csv_lines(cli._g17(np.asarray(x, dtype=float)))


def percent_lines(x) -> bytes:
    """The same lines from Python's ``'%.17g' % v``, the oracle."""
    return "".join(f"{v:.17g}\n" for v in np.ravel(x).tolist()).encode()


def assert_g17_exact(x):
    got, want = g17_lines(x), percent_lines(x)
    if got != want:
        for v, g, w in zip(np.ravel(x).tolist(), got.split(b"\n"), want.split(b"\n")):
            assert g == w, repr(v)
        pytest.fail("line counts differ")


class TestG17:
    """cli._g17, the '%.17g' kernel of every CSV table, against Python."""

    @staticmethod
    def sweep() -> np.ndarray:
        rng = np.random.default_rng(20)
        parts = []
        for k in range(-4, 16):
            # Uniform in the decade, and uniform in its logarithm.
            parts += [rng.uniform(10.0 ** k, 10.0 ** (k + 1), 15_000),
                      10.0 ** rng.uniform(k, k + 1, 10_000)]
            # Exact ties at 17 digits: j / 2**(17 - k) with j odd is
            # halfway between two 17-digit decimals.
            lo, hi = 10 ** k * 2.0 ** (17 - k), min(10 ** (k + 1) * 2.0 ** (17 - k), 2.0 ** 53)
            parts.append((rng.integers(lo // 2, hi // 2, 2_000) * 2 + 1) / 2.0 ** (17 - k))
        # Ties in the top decade: fractions .25, .5 and .75 in [1e15, 1e16).
        parts.append(rng.integers(10 ** 15, 10 ** 16, 20_000)
                     + rng.choice([0.25, 0.5, 0.75], 20_000))
        # 1 to 3 ulps either side of every power of ten, and the powers
        # themselves: where k from the binary exponent is one too small,
        # the first D of 10**j is exactly 10**17.
        for j in range(-4, 17):
            ulps = [10.0 ** j]
            for _ in range(3):
                ulps = [np.nextafter(ulps[0], 0.0), *ulps, np.nextafter(ulps[-1], np.inf)]
            parts.append(np.array(ulps))
        # Outside [1e-4, 1e16), formatted by Python.
        parts += [10.0 ** rng.uniform(-320, -4, 2_000), 10.0 ** rng.uniform(16, 308, 2_000),
                  np.array([0.0, 1e-4, 1e16, 5e-324, 2.2250738585072009e-308,
                            np.inf, np.nan, sys.float_info.max])]
        x = np.concatenate(parts)
        return np.concatenate([x, -x])

    def test_sweep_equals_percent_format(self):
        x = self.sweep()
        assert x.size >= 10 ** 6
        assert_g17_exact(x)

    def test_sweep_reaches_every_branch(self):
        x = self.sweep()
        a = np.abs(x)
        fast = (a >= 1e-4) & (a < 1e16)
        assert np.isnan(x).any() and np.isinf(x).any() and (x == 0).any()
        assert ((a > 0) & (a < sys.float_info.min)).any()
        # Every decade of [1e-4, 1e16).
        decades = np.searchsorted(10.0 ** np.arange(-3, 16), a[fast], side="right")
        assert np.array_equal(np.unique(decades), np.arange(20))
        # A k one too small gives D = 10**17 exactly for a power of ten.
        assert cli._round17(np.array([10.0, 1e15]), np.array([0, 14])).tolist() == [10 ** 17] * 2
        # Ties go to the even neighbour, both ways.
        ties = np.array([1e15 + 0.25, 1e15 + 0.75])
        assert cli._round17(ties, np.array([15, 15])).tolist() == [
            10 ** 16 + 2, 10 ** 16 + 8]

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats(self, values):
        assert_g17_exact(np.array(values))

    def test_shape(self):
        assert cli._g17(np.ones((2, 3))).shape[:2] == (2, 3)
        assert cli._g17(np.zeros(0)).shape[0] == 0

    def test_table_equals_percent_rows(self, tmp_path, monkeypatch):
        # Across blocks, with Python-formatted values among the others.
        monkeypatch.setattr(cli, "_BAND_CELLS", 7)
        rng = np.random.default_rng(3)
        columns = {"a": rng.normal(size=30) * 10.0 ** rng.integers(-8, 20, 30),
                   "b": np.array([0.0, np.inf, -np.nan, 1e300] * 7 + [1.5, 2.0])}
        path = cli._write_table(tmp_path / "t.csv", **columns)
        rows = zip(*(c.tolist() for c in columns.values()))
        assert path.read_text() == "a,b\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in rows)

    # No rows, one row, and two whole blocks of seven.
    @pytest.mark.parametrize("rows", [0, 1, 14])
    def test_table_block_edges(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(cli, "_BAND_CELLS", 7)
        a = np.linspace(0.5, 2.0, rows)
        path = cli._write_table(tmp_path / "t.csv", a=a, b=-a / 3.0)
        assert path.read_text() == "a,b\n" + "".join(
            f"{v:.17g},{-v / 3.0:.17g}\n" for v in a.tolist())

    def test_group_texts(self):
        # The four texts of each group 0000..9999, NUL where a digit is
        # not written: every digit, no leading zeros, no leading zeros but
        # "0" for 0, no trailing zeros.
        table = cli._group_texts().view(np.uint8).reshape(4, 10_000, 4)
        for g in range(10_000):
            text = f"{g:04d}"
            assert [t.tobytes().replace(b"\0", b"").decode() for t in table[:, g]] == [
                text, text.lstrip("0"), str(g), text.rstrip("0")], g

    def test_label_text_rows(self):
        # Row 8 new + 4 NW + 2 W + DW, one bit per BlowUp label.
        columns = (Label.UNDETERMINED.value, Label.BLOW_UP.value)
        for k in range(16):
            want = ",".join(columns[k >> bit & 1] for bit in (3, 2, 1, 0)).encode()
            assert cli._LABEL_TEXT[k].tobytes().rstrip(b"\0") == want, k

    def test_table_memory_does_not_grow_with_rows(self, tmp_path):
        # Formatted _BAND_CELLS rows at a time: a 200 000-row table of a
        # phi-like mix peaked at 49 MB when formatted whole.
        rng = np.random.default_rng(4)
        peaks = []
        for rows in (20_000, 200_000):
            r = np.linspace(0.0, 700.0, rows)
            columns = {"r": r, "phi": np.exp(r) / (r + 1.0), "x": rng.normal(size=rows)}
            tracemalloc.start()
            try:
                cli._write_table(tmp_path / "t.csv", **columns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 3e6, peaks


class TestSvg:
    def test_small_grid(self, tmp_path):
        path = render_regions_svg(tmp_path, (1.5, 2.5), (1.5, 2.5), 1, 2)
        text = path.read_text()
        assert text.count("<rect") >= 4 + 2
        assert "blowup" in text and "undetermined" in text

    def test_every_category_is_drawn(self, tmp_path):
        # n = 3: the first window holds undetermined, blow-up and
        # hypothesis-failed cells, and (2, 2) lies on the critical curve.
        fills = {color: name for name, color in _SVG_CATEGORIES}
        drawn, expected = Counter(), Counter()
        for p_range, q_range, resolution in (((1.1, 4.0), (1.05, 4.0), 12),
                                             ((1.5, 2.5), (1.5, 2.5), 1)):
            grid = scan(p_range, q_range, 3, resolution)
            path = render_regions_svg(tmp_path / str(resolution), p_range, q_range, 3,
                                      resolution)
            # Legend swatches are 14 wide; every other coloured rect is a cell.
            drawn += Counter(fills[el.get("fill")]
                             for el in ET.parse(path).getroot().iter()
                             if el.tag.endswith("rect") and el.get("fill") in fills
                             and el.get("width") != "14")
            threshold_wavelike = 1.0  # (n - 1)/2 for n = 3
            for cell in (c for row in grid for c in row):
                on_curve = abs(cell["alpha_new"] - threshold_wavelike) <= 1e-12
                if cell["label_new"]:
                    expected["boundary" if on_curve else "blowup"] += 1
                elif cell["alpha_new"] >= threshold_wavelike:
                    expected["hypothesis-failed"] += 1
                else:
                    expected["undetermined"] += 1
        assert drawn == expected
        assert expected == {"undetermined": 102, "blowup": 34,
                            "hypothesis-failed": 8, "boundary": 1}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_category_map_equals_scalar_oracle(self, n):
        names = [name for name, _ in _SVG_CATEGORIES]
        seen = set()
        for p_range, q_range, resolution in (((1.1, 4.0), (1.05, 4.0), 12),
                                             ((1.1, 10.0), (1.1, 10.0), 25),
                                             ((1.5, 2.5), (1.5, 2.5), 1)):
            # One call over the whole grid, as the map makes one per band.
            grid = np.stack(scan(p_range, q_range, n, resolution))
            for cell, k in zip(grid.ravel(), grid["category"].ravel().tolist()):
                p, q = float(cell["p"]), float(cell["q"])
                assert names[k] == _svg_category(classify(p, q, n)), (p, q, n)
                seen.add(names[k])
        # Every n reaches blowup; n = 3 also reaches the other three.
        assert "blowup" in seen
        if n == 3:
            assert seen == set(names)

    @pytest.mark.parametrize("resolution", [1, 4])
    def test_ticks_follow_the_window(self, tmp_path, resolution):
        # The plot area [70, 760] x [40, 730] spans the scanned window, so
        # tick k sits at its place in the window, whatever the resolution.
        p_range, q_range = (1.1, 10.0), (1.5, 4.2)
        path = render_regions_svg(tmp_path, p_range, q_range, 1, resolution)
        lines = [el.attrib for el in ET.parse(path).getroot().iter()
                 if el.tag.endswith("line")]
        p_ticks = [float(a["x1"]) for a in lines if a["y1"] == "730.00"]
        q_ticks = [float(a["y1"]) for a in lines if a["x2"] == "70.00"]
        assert p_ticks == pytest.approx(
            [70.0 + (k - 1.1) / (10.0 - 1.1) * 690.0 for k in range(2, 11)], abs=0.005)
        assert q_ticks == pytest.approx(
            [730.0 - (k - 1.5) / (4.2 - 1.5) * 690.0 for k in range(2, 5)], abs=0.005)


class TestMain:
    @pytest.mark.parametrize("mode, doc", [
        pytest.param("phi", {}, id="phi-default"),
        pytest.param("simulate", N5, id="n5-simulate"),
        pytest.param("audit", N5, id="n5-audit"),
        # phi's largest series terms sit near 1e304 at the guard edge r = 700.
        pytest.param("phi", {"n": 1, "r_max": 700, "samples": 4000}, id="phi-n1"),
        pytest.param("phi", {"n": 8, "r_max": 700, "samples": 4000}, id="phi-n8"),
    ])
    def test_exit_zero_on_completed(self, tmp_path, capsys, mode, doc):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        code = main([mode, "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        out, err = capsys.readouterr()
        assert out.startswith("outcome=completed ") and err == ""

    def test_exit_zero_on_blowup(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"amplitudes": 50.0, "grid_points": 250, "horizon": 10.0}))
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "outcome=blowup" in capsys.readouterr().out

    def test_exit_one_on_instability(self, tmp_path, capsys):
        # An unreachable threshold turns the overflow into NaNs instead
        # of a detected blow-up.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"amplitudes": 50.0, "grid_points": 250, "horizon": 10.0,
             "blowup_threshold": 1e308}))
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "outcome=instability" in capsys.readouterr().out

    def test_sign_loss_is_instability(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(SIGN_LOSS))
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "outcome=instability" in capsys.readouterr().out
        rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert len(rows) >= 2
        # Every cell is a finite real number: no sample after the sign
        # loss reaches the trace, so no F3 ** p is complex.
        for row in rows[1:]:
            assert all(math.isfinite(float(cell)) for cell in row.split(","))

    def test_audit_of_sign_loss(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(SIGN_LOSS))
        code = main(["audit", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["outcome"] == "instability"
        assert not (tmp_path / "out" / "audit.json").exists()

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"p": 0.5}')
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("config", ["missing.json", '{"svg": true}', "."])
    def test_exit_two_on_unreadable_config(self, tmp_path, capsys, monkeypatch,
                                           config):
        monkeypatch.chdir(tmp_path)
        code = main(["regions", "--config", config, "--out", "out"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read {config!r}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [("phi", "--out", "file"),
                                      ("phi", "--out", "file/run"),
                                      ("phi", "--out", "file", "--sweep", "samples=3,4")])
    def test_exit_two_on_unusable_out(self, tmp_path, capsys, monkeypatch, argv):
        # An output directory that cannot be created is one error line,
        # not a traceback, and leaves the file in its way as it was.
        monkeypatch.chdir(tmp_path)
        Path("file").write_text("kept\n")
        code = main(list(argv))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "'file" in err
        assert Path("file").read_text() == "kept\n"

    @pytest.mark.parametrize("mode, doc, message", [
        # The conjugate-power weight integral guards s'(t + R) > 700, which
        # this long uncoupled run reaches.
        pytest.param("simulate", {"p": 1.1, "q": 1.1, "amplitudes": 0.01, "coupling": False,
                                  "horizon": 80, "grid_points": 300},
                     "exponent argument 708 exceeds the overflow guard 700", id="exponent"),
        # W2 leaves the float range while s'(t + R) stays inside the guard.
        pytest.param("audit", W2_OVERFLOW, "overflow guard: the weight at t=0 is beyond "
                     "the float range", id="weight"),
    ])
    def test_exit_two_on_tripped_overflow_guard(self, tmp_path, capsys, mode, doc, message):
        # The guard trips after the echo is written, and is one error line
        # with no warning.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        code = main([mode, "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert (tmp_path / "out" / "config_echo.json").exists()

    def test_other_errors_are_not_usage_errors(self, tmp_path, monkeypatch):
        # The guard and an unusable --out are the only run-time exits 2:
        # any other error of a run is a fault, and keeps its traceback.
        def broken_run(*args, **kwargs):
            raise ValueError("a fault")

        monkeypatch.setattr(pde, "run", broken_run)
        with pytest.raises(ValueError, match="^a fault$"):
            main(["simulate", "--out", str(tmp_path / "out")])

    def test_sweep(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid_points": 250, "horizon": 10.0}))
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out"),
                     "--sweep", "amplitudes=10,20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[10]" in out and "[20]" in out
        assert (tmp_path / "out" / "amplitudes=10" / "trace.csv").exists()
        assert (tmp_path / "out" / "amplitudes=20" / "summary.json").exists()

    @pytest.mark.parametrize("mode,doc,extra", REJECTED)
    def test_rejected_before_any_work(self, tmp_path, capsys, mode, doc, extra):
        config = tmp_path / "cfg.json"
        config.write_text(doc)
        code = main([mode, "--config", str(config),
                     "--out", str(tmp_path / "out"), *extra])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "out").exists()

    def test_audit_of_unstable_run(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"amplitudes": 50.0, "grid_points": 250, "horizon": 10.0,
             "blowup_threshold": 1e308}))
        code = main(["audit", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "outcome=instability" in capsys.readouterr().out
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["outcome"] == "instability"
        assert not (tmp_path / "out" / "audit.json").exists()

    def test_audit_of_first_step_blowup(self, tmp_path, capsys):
        # The initial peak is above the threshold, so the run blows up at
        # t = 0 and the trace holds one sample, which the audit reads.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"amplitudes": 1e13, "grid_points": 250, "horizon": 2.0}))
        code = main(["audit", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "outcome=blowup blowup_time=0.0 " in capsys.readouterr().out
        # Valid JSON: no NaN or Infinity literal, which parse_constant sees.
        doc = json.loads((tmp_path / "out" / "audit.json").read_text(),
                         parse_constant=reject_constant)
        # T0 = 0.3 t[-1] = 0, so the window is that sample.  The data's
        # C3 (7.6e24) dwarfs F1 (1.2e13), so the two first-order F1 bounds
        # fail; the fitted k2 and k4 are both 0.675.
        assert doc["inconclusive"] is False and doc["window"] == [0.0, 0.0]
        assert [r["passed"] for r in doc["inequalities"]] == [False, False, True, True, True]
        assert doc["constants"]["k2"] == doc["constants"]["k4"] == pytest.approx(0.6751, rel=1e-4)
        assert (tmp_path / "out" / "summary.json").exists()

    def test_audit_with_underflowed_weight(self, tmp_path, capsys):
        # J4 = W4^{-(q-1)} underflows to 0 late in this run; the audit
        # reads W4 itself, so C2tilde stays finite and no divide-by-zero
        # warning is raised (the warning filter makes it an error).
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"p": 5.022, "q": 5.806, "n": 1, "amplitudes": 0.0304,
             "horizon": 355, "grid_points": 200, "cfl_factor": 0.9}))
        code = main(["audit", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert float(rows[-1].split(",")[8]) == 0.0
        doc = json.loads((tmp_path / "out" / "audit.json").read_text(),
                         parse_constant=reject_constant)
        assert doc["constants"]["C2tilde"] == pytest.approx(5.6284, rel=1e-4)

    @pytest.mark.parametrize("doc", [CHAIN, SMALL_DATA], ids=["chain", "small-data"])
    def test_audit_seeds_a_kato_blowup(self, tmp_path, capsys, doc):
        # The audit's C3, k2 and k4 make a kato config that blows up, with
        # no warning on stderr in either run.
        config = tmp_path / "audit.json"
        config.write_text(json.dumps(doc))
        assert main(["audit", "--config", str(config), "--out", str(tmp_path / "audit")]) == 0
        assert capsys.readouterr().err == ""
        constants = json.loads((tmp_path / "audit" / "audit.json").read_text(),
                               parse_constant=reject_constant)["constants"]
        config = tmp_path / "kato.json"
        config.write_text(json.dumps({**{k: doc[k] for k in ("p", "q", "n")},
                                      **{k: constants[k] for k in ("C3", "k2", "k4")}}))
        assert main(["kato", "--config", str(config), "--out", str(tmp_path / "kato")]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("outcome=blowup ") and err == ""

    @pytest.mark.parametrize("mode", ["simulate", "audit"])
    def test_powers_beyond_float_range_are_inf(self, tmp_path, capsys, mode):
        # J3 = F4^q leaves the float range late in this run.  The run
        # completes, and J1 and J3 read inf exactly where Python's float
        # power raises OverflowError; every other cell is finite.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(J3_OVERFLOW))
        code = main([mode, "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        out, err = capsys.readouterr()
        assert "outcome=completed " in out and err == ""
        rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        header = rows[0].split(",")
        infinite = Counter()
        for row in rows[1:]:
            cells = dict(zip(header, map(float, row.split(","))))
            for J, base, power in (("J1", "F3", J3_OVERFLOW["p"]),
                                   ("J3", "F4", J3_OVERFLOW["q"])):
                try:
                    want = cells[base] ** power
                except OverflowError:
                    want = math.inf
                assert cells[J] == want
            infinite.update(key for key, x in cells.items() if not math.isfinite(x))
        assert infinite == {"J3": 2}
        if mode == "audit":
            doc = json.loads((tmp_path / "out" / "audit.json").read_text(),
                             parse_constant=reject_constant)
            # Its least F2 second-order ratio, int |u|^q over a shape of
            # about 1e-152, is 4.4e129, finite and positive, and the bound
            # holds.
            assert 0.0 < doc["constants"]["k2"] < math.inf
            assert doc["constants"]["k4"] == pytest.approx(4.4146e129, rel=1e-4)
            record = doc["inequalities"][4]
            assert record["name"] == "F2_second_order" and record["passed"]

    def test_audit_with_fitted_k_beyond_float_range(self, tmp_path, capsys):
        # One window sample's ratio lhs / shape leaves the float range; it
        # is inf, with no warning, and the least ratio is still finite.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(K4_OVERFLOW))
        code = main(["audit", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "out" / "audit.json").read_text(),
                         parse_constant=reject_constant)
        # k4 is the least ratio of the recorded int |u|^q to its shape.
        assert doc["constants"]["k4"] == 2.4713454681399676e+106

    def test_simulate_data_beyond_float_powers(self, tmp_path, capsys):
        # |v0|^p = 1e400 leaves the float range in the seed level: no
        # warning, and the data, above the threshold, blow up at t = 0.
        config = tmp_path / "cfg.json"
        config.write_text('{"amplitudes": 1e200, "grid_points": 400, "horizon": 2.0}')
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        out, err = capsys.readouterr()
        assert out.startswith("outcome=blowup blowup_time=0.0 ") and err == ""
        header, row = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), map(float, row.split(","))))
        assert [key for key, x in cells.items() if not math.isfinite(x)] == ["J1", "J3"]

    def test_audit_of_C3_beyond_float_range(self, tmp_path, capsys):
        # C0 = 2.6e200, so C3 = C0^p C2^{-(p-1)} / (8 alpha1) has no JSON
        # number: the audit writes it as null and is inconclusive.
        config = tmp_path / "cfg.json"
        config.write_text('{"amplitudes": 1e200, "grid_points": 400, "horizon": 2.0}')
        code = main(["audit", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""
        text = (tmp_path / "out" / "audit.json").read_text()
        assert '"C3": null' in text
        doc = json.loads(text, parse_constant=reject_constant)
        assert doc["inconclusive"] is True and doc["inequalities"] == []
        assert (tmp_path / "out" / "summary.json").exists()

    def test_audit_of_C3_underflowed_to_zero(self, tmp_path, capsys):
        # C0 = 2.6e-200, so C3 = C0^p C2^{-(p-1)} / (8 alpha1) is 0: the F1
        # bound is vacuous, and the comparison system needs C3 > 0.  The
        # audit is inconclusive with its own note, not a mid-run error.
        config = tmp_path / "cfg.json"
        config.write_text('{"amplitudes": 1e-200, "grid_points": 300, "horizon": 3}')
        code = main(["audit", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "out" / "audit.json").read_text(),
                         parse_constant=reject_constant)
        assert doc["constants"]["C3"] == 0.0
        assert doc["constants"]["k2"] is None and doc["constants"]["k4"] is None
        assert doc["inconclusive"] is True and doc["inequalities"] == []
        assert doc["note"].startswith("C3 is 0 in float64")

    def test_audit_of_negative_least_ratio(self, tmp_path, capsys):
        # Second differences of the sampled F1 made this run's least F1
        # second-order ratio -3.74, and k2 null.  The recorded source
        # int |v|^p is positive, so the least ratio is too: k2 is 0.298
        # and the record passes.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(SMALL_DATA))
        code = main(["audit", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "out" / "audit.json").read_text(),
                         parse_constant=reject_constant)
        assert doc["constants"]["k2"] == pytest.approx(0.29811, rel=1e-4)
        assert 0.0 < doc["constants"]["k4"] < math.inf
        assert doc["inconclusive"] is False
        record = doc["inequalities"][2]
        assert record["name"] == "F1_second_order" and record["passed"]
        assert record["margin_min"] > 0.0

    def test_audit_of_an_uncoupled_run(self, tmp_path, capsys):
        # With no coupling the step adds no source, so the recorded
        # int |v|^p and int |u|^q are 0: both second-order bounds fail,
        # and their fitted k2 and k4, least ratios of 0, read null.
        config = tmp_path / "cfg.json"
        config.write_text('{"coupling": false, "horizon": 5}')
        code = main(["audit", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "out" / "audit.json").read_text(),
                         parse_constant=reject_constant)
        assert doc["inconclusive"] is False
        assert doc["constants"]["k2"] is None and doc["constants"]["k4"] is None
        assert [r["passed"] for r in doc["inequalities"]] == [True, True, False, True, False]
        for record in (doc["inequalities"][2], doc["inequalities"][4]):
            # The scale max |lhs| of a left side that is 0 throughout is 1.
            assert record["scale"] == 1.0 and record["margin_min"] < 0.0

    def test_audit_of_C2tilde_beyond_float_range(self, tmp_path, capsys):
        # W4 / env4 leaves the float range at every sample (q = 1.0087), so
        # C2tilde reads null; the rest of the audit does not use it.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(C2TILDE_OVERFLOW))
        code = main(["audit", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""
        text = (tmp_path / "out" / "audit.json").read_text()
        assert '"C2tilde": null' in text
        doc = json.loads(text, parse_constant=reject_constant)
        assert doc["inconclusive"] is False and len(doc["inequalities"]) == 5

    def test_audit_of_C2_beyond_float_range(self, tmp_path, capsys):
        # W2 / env2 leaves the float range (p = 1.01): C2 reads null, and
        # C3 = C0^p C2^{-(p-1)} / (8 alpha1) is 0, so the audit is inconclusive.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(C2_OVERFLOW))
        code = main(["audit", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "out" / "audit.json").read_text(),
                         parse_constant=reject_constant)
        assert doc["constants"]["C2"] is None and doc["constants"]["C3"] == 0.0
        assert doc["inconclusive"] is True and doc["inequalities"] == []
        assert doc["note"].startswith("C3 is 0 in float64")

    def test_audit_with_envelope_overflow_at_some_samples(self, tmp_path, capsys):
        # env4 leaves the float range at some samples only: their ratio
        # W4 / env4 is 0, below its true value, so C2tilde is the least
        # upper bound of the others, with no warning.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(ENV4_OVERFLOW))
        code = main(["audit", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "out" / "audit.json").read_text(),
                         parse_constant=reject_constant)
        assert doc["constants"]["C2tilde"] == 2.9526441695191203e+224

    @pytest.mark.parametrize("mode", ["simulate", "audit"])
    @pytest.mark.parametrize("doc", [DATA_NEAR_MAX, {"n": 2, **DATA_NEAR_MAX}],
                             ids=["n1", "n2"])
    def test_data_near_float_maximum(self, tmp_path, capsys, mode, doc):
        # F1 and F2 are about 1.2e308, while the phi-weighted data integrals,
        # F3 and F4 leave the float range: they read inf, not NaN (phi
        # multiplies the field before the cell volumes, none of which is 0),
        # with no warning, and the audit writes C0, C1 and C3 as null.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        code = main([mode, "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        out, err = capsys.readouterr()
        assert out.startswith("outcome=blowup blowup_time=0.0 ") and err == ""
        header, row = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), map(float, row.split(","))))
        assert not any(math.isnan(x) for x in cells.values())
        assert [key for key, x in cells.items() if not math.isfinite(x)] == \
            ["F3", "F4", "J1", "J3"]
        if mode == "audit":
            doc = json.loads((tmp_path / "out" / "audit.json").read_text(),
                             parse_constant=reject_constant)
            constants = doc["constants"]
            assert [key for key, x in constants.items() if x is None] == \
                ["C0", "C1", "C3", "k2", "k4"]
            assert doc["inconclusive"] is True
            assert doc["note"] == ("C3 = C0^p C2^{-(p-1)} / (8 alpha1) leaves "
                                   "the float range")

    def test_kato_with_huge_right_hand_side(self, tmp_path, capsys):
        # F2_0^p = 1.5e241 is finite, but RK45's first-step estimate squares
        # the right-hand side: that overflow is silent, and the run blows up
        # at once.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(KATO_HUGE_RHS))
        code = main(["kato", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        out, err = capsys.readouterr()
        assert out.startswith("outcome=blowup blowup_time=5.489618287124963e-116 ")
        assert err == ""
        rows = (tmp_path / "out" / "ode_trace.csv").read_text().splitlines()
        assert len(rows) == 211

    @pytest.mark.parametrize("doc,blowup_time,rows", [
        pytest.param({}, 0.09698058089686964, 333, id="default"),
        # The constants of the audit-n2 audit (amplitude 1, grid 1000).
        pytest.param({"p": 1.5, "q": 1.5, "n": 2, "C3": 0.07241886135849035,
                      "k2": 0.6103393946639272, "k4": 1.5424272975524305},
                     1.211162661294748, 279, id="audit-n2"),
        # A step fails where the solution leaves the float range.
        pytest.param({"p": 4, "q": 4}, 4.554606335710942e-05, 531, id="p4"),
    ])
    def test_kato_blowup_times(self, tmp_path, capsys, doc, blowup_time, rows):
        # The outcome, blow-up time and row count do not depend on how the
        # right-hand side rounds: numpy's array and scalar powers differ in
        # the last bit, and these values hold for both.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        code = main(["kato", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["outcome"] == "blowup"
        assert summary["blowup_time"] == pytest.approx(blowup_time, rel=1e-9)
        trace = (tmp_path / "out" / "ode_trace.csv").read_text().splitlines()
        assert len(trace) == rows + 1

    @pytest.mark.parametrize("doc", [
        pytest.param({"p": 200, "q": 200}, id="200"),
        pytest.param({"p": 5000, "q": 5000}, id="5000"),
        # (t + R)^{-alpha2} = 0.5^{-4999} is beyond the float range too.
        pytest.param({"p": 5000, "q": 5000, "R": 0.5}, id="5000-R0.5"),
    ])
    def test_kato_with_powers_beyond_float_range(self, tmp_path, capsys, doc):
        # (4(p+1)(p+2))^q in k5 is beyond the float range; k5 saturates to 0.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        code = main(["kato", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        for name in ("conditions.txt", "ode_trace.csv", "summary.json"):
            assert (tmp_path / "out" / name).exists()
        assert "k5=0\n" in (tmp_path / "out" / "conditions.txt").read_text()
        # F2_0^p = 1000^p is inf, so the comparison ODE blows up at T0 = 0,
        # with no warning.
        out, err = capsys.readouterr()
        assert "outcome=blowup blowup_time=0.0 " in out and err == ""
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["outcome"] == "blowup" and doc["blowup_time"] == 0.0
        rows = (tmp_path / "out" / "ode_trace.csv").read_text().splitlines()
        assert rows == ["t,F1,dF1,F2,dF2", "0,1000,100,1000,100"]

    @pytest.mark.parametrize("power", [4, 10])
    def test_kato_step_failure_is_blowup(self, tmp_path, capsys, power):
        # The solution leaves the float range faster than RK45 can resolve
        # in t: F1' reaches 5.9e29 (p = q = 4) or 5.8e32 (p = q = 10) before
        # a step fails.  That is blow-up at the last accepted time.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"p": power, "q": power}))
        code = main(["kato", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "outcome=blowup " in capsys.readouterr().out
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        rows = (tmp_path / "out" / "ode_trace.csv").read_text().splitlines()
        last = [float(x) for x in rows[-1].split(",")]
        assert doc["outcome"] == "blowup" and doc["blowup_time"] == last[0]
        # F grew by many orders, yet stayed below the 1e12 threshold.
        assert 1e6 < max(last[1], last[3]) < 1e12

    def test_kato_data_above_threshold_is_blowup_at_T0(self, tmp_path, capsys):
        # F1_0 = F2_0 = 1000 start above the threshold, so no event can fire.
        config = tmp_path / "cfg.json"
        config.write_text('{"ode_threshold": 1.0}')
        code = main(["kato", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "outcome=blowup blowup_time=0.0 " in capsys.readouterr().out
        rows = (tmp_path / "out" / "ode_trace.csv").read_text().splitlines()
        assert rows == ["t,F1,dF1,F2,dF2", "0,1000,100,1000,100"]

    def test_every_accepted_kato_config_has_a_finite_outcome(self, capsys):
        @settings(max_examples=60, deadline=None)
        @given(kato_docs())
        @example(KATO_HUGE_RHS)
        def finite_outcome(doc):
            try:
                parse_config(json.dumps(doc), mode="kato")
            except ConfigError:
                assume(False)
            with tempfile.TemporaryDirectory() as tmp:
                config = f"{tmp}/cfg.json"
                with open(config, "w") as fh:
                    json.dump(doc, fh)
                assert main(["kato", "--config", config, "--out", f"{tmp}/out"]) == 0
                with open(f"{tmp}/out/summary.json") as fh:
                    summary = json.load(fh, parse_constant=reject_constant)
                with open(f"{tmp}/out/ode_trace.csv") as fh:
                    rows = fh.read().splitlines()[1:]
            capsys.readouterr()
            assert summary["outcome"] in ("horizon", "blowup")
            blowup_time = summary["blowup_time"]
            assert (blowup_time is not None) == (summary["outcome"] == "blowup")
            assert blowup_time is None or math.isfinite(blowup_time)
            assert rows and all(math.isfinite(float(cell))
                                for row in rows for cell in row.split(","))

        finite_outcome()

    def test_every_accepted_phi_config_runs(self, capsys):
        # phi_asymptotic has no value at r = 0, so the table holds nan
        # there, at every radius that linspace rounds to 0: with r_max
        # 5e-324 that is the first 100 of 200.
        @settings(max_examples=60, deadline=None)
        @given(st.fixed_dictionaries({
            "n": st.integers(1, 8),
            "r_max": st.one_of(st.floats(0.0, 1e-300), st.floats(0.0, 720.0)),
            "samples": st.integers(2, 300)}))
        @example({"r_max": 5e-324})
        def runs(doc):
            try:
                parsed = parse_config(json.dumps(doc), mode="phi").settings
            except ConfigError:
                assume(False)
            with tempfile.TemporaryDirectory() as tmp:
                config = f"{tmp}/cfg.json"
                with open(config, "w") as fh:
                    json.dump(doc, fh)
                assert main(["phi", "--config", config, "--out", f"{tmp}/out"]) == 0
                with open(f"{tmp}/out/phi.csv") as fh:
                    rows = [line.split(",") for line in fh.read().splitlines()[1:]]
            capsys.readouterr()
            assert len(rows) == parsed["samples"]
            assert all((float(r) == 0.0) == (asym == "nan") for r, _, asym in rows), rows

        runs()

    def test_every_accepted_simulation_config_ends_cleanly(self, capsys):
        # Exit 0 or 1, or 2 on the weight integral's overflow guard alone;
        # the suite's filter makes a RuntimeWarning an error.
        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(simulation_docs())
        @example(("audit", K4_OVERFLOW))
        @example(("simulate", W2_OVERFLOW))
        @example(("audit", W2_OVERFLOW))
        @example(("audit", C2TILDE_OVERFLOW))
        @example(("audit", C2_OVERFLOW))
        @example(("audit", ENV4_OVERFLOW))
        @example(("simulate", DATA_NEAR_MAX))
        @example(("audit", DATA_NEAR_MAX))
        def ends_cleanly(case):
            mode, doc = case
            try:
                parse_config(json.dumps(doc), mode=mode)
            except ConfigError:
                assume(False)
            with tempfile.TemporaryDirectory() as tmp:
                config = f"{tmp}/cfg.json"
                with open(config, "w") as fh:
                    json.dump(doc, fh)
                code = main([mode, "--config", config, "--out", f"{tmp}/out"])
                err = capsys.readouterr().err
                if code == 2:
                    assert err.startswith("error:") and "overflow guard" in err
                    return
                assert code in (0, 1)
                with open(f"{tmp}/out/trace.csv") as fh:
                    rows = fh.read().splitlines()[1:]
            # Every cell parses as a real float: finite, or inf in a J column.
            assert rows and not any(math.isnan(float(cell))
                                    for row in rows for cell in row.split(","))

        ends_cleanly()

    def test_sweep_bad_key(self, tmp_path, capsys):
        code = main(["phi", "--out", str(tmp_path), "--sweep", "bogus=1,2"])
        assert code == 2

    @pytest.mark.parametrize("mode", ["kato", "regions", "phi"])
    def test_amplitudes_sweep_needs_amplitude_keys(self, tmp_path, capsys, mode):
        # The shorthand stands for the data amplitudes of simulate and
        # audit; the other modes have none to sweep.
        out = tmp_path / "out"
        code = main([mode, "--out", str(out), "--sweep", "amplitudes=1,2"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: sweep key 'amplitudes' is not a config key for {mode!r}\n")
        assert not out.exists()


def rk45_oracle(params, F1_0, dF1_0, F2_0, dF2_0, horizon, ode_threshold):
    """``integrate_comparison`` as scipy's ``solve_ivp`` runs it: RK45 at
    rtol 1e-8 and atol 1e-10 with one terminal event at max(F1, F2) =
    ode_threshold, after the same blow-up-at-T0 check."""
    def rhs(t, y):
        F1, dF1, F2, dF2 = y
        g1, g2 = params.lower_bounds(t, max(F1, 0.0), max(F2, 0.0), which=(2, 4))
        return [dF1, g1 - dF1, dF2, g2]

    def hit_threshold(t, y):
        return max(y[0], y[2]) - ode_threshold

    hit_threshold.terminal = True
    y0 = np.array([F1_0, dF1_0, F2_0, dF2_0], dtype=float)
    if (max(F1_0, F2_0) >= ode_threshold
            or not np.all(np.isfinite(rhs(params.T0, y0)))):
        return comparison.OdeTrace(np.array([params.T0]), *y0[:, np.newaxis],
                                   blowup_time=params.T0, outcome="blowup")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (params.T0, horizon), y0, method="RK45",
                        rtol=1e-8, atol=1e-10, events=hit_threshold)
    horizon_reached = sol.status == 0
    return comparison.OdeTrace(
        sol.t, *sol.y, blowup_time=None if horizon_reached else float(sol.t[-1]),
        outcome="horizon" if horizon_reached else "blowup")


def kato_traces(doc):
    """The comparison solve of the kato config ``doc``, by
    ``integrate_comparison`` and by the scipy oracle."""
    s = parse_config(json.dumps(doc), mode="kato").settings
    params = comparison.derive_params(
        Exponents(p=float(s["p"]), q=float(s["q"]), n=s["n"], R=float(s["R"])),
        {k: s[k] for k in ("C3", "k2", "k4")})
    ode = {k: s[k] for k in ("F1_0", "dF1_0", "F2_0", "dF2_0", "horizon", "ode_threshold")}
    return comparison.integrate_comparison(params, **ode), rk45_oracle(params, **ode)


def assert_same_solve(trace, oracle):
    # The numpy Dormand-Prince port takes scipy's steps in scipy's numpy
    # operations, so every value agrees bit for bit.
    assert trace.outcome == oracle.outcome
    assert trace.times.size == oracle.times.size
    if oracle.blowup_time is None:
        assert trace.blowup_time is None
    else:
        assert trace.blowup_time == pytest.approx(oracle.blowup_time, rel=1e-9)
    for name in ("times", "F1", "dF1", "F2", "dF2"):
        np.testing.assert_array_equal(getattr(trace, name), getattr(oracle, name))


class TestKatoAgainstScipy:
    @pytest.mark.parametrize("doc,blowup_time,rows", [
        pytest.param({}, 0.09698058089686964, 333, id="default"),
        pytest.param({"p": 4, "q": 4}, 4.554606335710942e-05, 531, id="p4"),
        pytest.param({"p": 200, "q": 200}, 0.0, 1, id="200"),
        pytest.param({"p": 5000, "q": 5000}, 0.0, 1, id="5000"),
        # The constants that the audit-n2 audit (amplitude 1, grid 1000)
        # and an audit of CHAIN (grid 300) gave when the audit fitted
        # finite differences of the trace.
        pytest.param({"p": 1.5, "q": 1.5, "n": 2, "C3": 0.07241886135849035,
                      "k2": 0.6103393946639272, "k4": 1.5424272975524305},
                     1.211162661294748, 279, id="audit-n2"),
        pytest.param({"p": 1.5, "q": 1.5, "n": 2, "C3": 0.07240507049691755,
                      "k2": 0.6108343451486321, "k4": 1.561861162177372},
                     1.2056456332240324, 279, id="ci-chain"),
        pytest.param(KATO_HUGE_RHS, 5.489618287124963e-116, 210, id="huge-rhs"),
    ])
    def test_measured_configs(self, doc, blowup_time, rows):
        trace, oracle = kato_traces(doc)
        assert_same_solve(trace, oracle)
        assert trace.outcome == "blowup"
        assert trace.blowup_time == pytest.approx(blowup_time, rel=1e-9)
        assert trace.times.size == rows

    def test_every_accepted_config(self):
        @settings(max_examples=60, deadline=None)
        @given(kato_docs())
        def same_solve(doc):
            try:
                parse_config(json.dumps(doc), mode="kato")
            except ConfigError:
                assume(False)
            assert_same_solve(*kato_traces(doc))

        same_solve()
