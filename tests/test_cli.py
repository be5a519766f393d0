"""Tests for the experiment harness: strict config parsing, artifact
emission, byte-identical reproducibility, sweeps and the exit-status
contract (blow-up is a scientific outcome, exit 0; instability is 1;
configuration errors are 2)."""

import json
import xml.etree.ElementTree as ET
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowlab.cli import (
    _DEFAULTS,
    _SVG_CATEGORIES,
    MAX_PHI_SAMPLES,
    MODES,
    ConfigError,
    emit_region_svg,
    main,
    parse_config,
    run_experiment,
)
from blowlab.criticality import Label, scan
from blowlab.pde import MAX_GRID_POINTS, MAX_STEPS

FAST_SIM = {"grid_points": 250, "horizon": 2.0, "sample_every": 5}


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
    ("phi", json.dumps({"samples": MAX_PHI_SAMPLES + 1}), ()),
    ("simulate", '{"grid_points": 250, "horizon": 2.0}',
     ("--sweep", "grid_points=250,10")),
]

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
        with pytest.raises(ConfigError, match="n=4: the radial simulator"):
            parse_config('{"n": 4}', mode="simulate")
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
        for value in ("NaN", "Infinity", "-Infinity", "1e400"):
            with pytest.raises(ConfigError, match="must be a finite number"):
                parse_config(f'{{"horizon": {value}}}', mode="kato")

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

    def test_audit_artifacts(self, tmp_path):
        cfg = parse_config(json.dumps({**FAST_SIM, "amplitudes": 5.0}),
                           mode="audit")
        run_experiment(cfg, tmp_path)
        doc = json.loads((tmp_path / "audit.json").read_text())
        assert len(doc["inequalities"]) == 5
        assert all(item["passed"] for item in doc["inequalities"])
        assert doc["min_passing_T0"] is not None

    def test_kato_artifacts(self, tmp_path):
        cfg = parse_config("{}", mode="kato")
        summary = run_experiment(cfg, tmp_path)
        assert summary.outcome == "blowup"
        text = (tmp_path / "conditions.txt").read_text()
        assert "cond1_holds=True" in text and "cond2_holds=True" in text
        header = (tmp_path / "ode_trace.csv").read_text().splitlines()[0]
        assert header == "t,F1,dF1,F2,dF2"

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


class TestSvg:
    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty grid"):
            emit_region_svg([], (1.5, 2.5), (1.5, 2.5), tmp_path / "x.svg")

    def test_small_grid(self, tmp_path):
        grid = scan((1.5, 2.5), (1.5, 2.5), 1, 2)
        path = emit_region_svg(grid, (1.5, 2.5), (1.5, 2.5), tmp_path / "map.svg")
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
            path = emit_region_svg(grid, p_range, q_range, tmp_path / "map.svg")
            # Legend swatches are 14 wide; every other coloured rect is a cell.
            drawn += Counter(fills[el.get("fill")]
                             for el in ET.parse(path).getroot().iter()
                             if el.tag.endswith("rect") and el.get("fill") in fills
                             and el.get("width") != "14")
            for cell in (c for row in grid for c in row):
                on_curve = abs(cell.alpha_new - cell.threshold_wavelike) <= 1e-12
                if cell.label_new is Label.BLOW_UP:
                    expected["boundary" if on_curve else "blowup"] += 1
                elif cell.alpha_new >= cell.threshold_wavelike:
                    expected["hypothesis-failed"] += 1
                else:
                    expected["undetermined"] += 1
        assert drawn == expected
        assert expected == {"undetermined": 102, "blowup": 34,
                            "hypothesis-failed": 8, "boundary": 1}

    @pytest.mark.parametrize("resolution", [1, 4])
    def test_ticks_follow_the_window(self, tmp_path, resolution):
        # The plot area [70, 760] x [40, 730] spans the scanned window, so
        # tick k sits at its place in the window, whatever the resolution.
        p_range, q_range = (1.1, 10.0), (1.5, 4.2)
        grid = scan(p_range, q_range, 1, resolution)
        path = emit_region_svg(grid, p_range, q_range, tmp_path / "map.svg")
        lines = [el.attrib for el in ET.parse(path).getroot().iter()
                 if el.tag.endswith("line")]
        p_ticks = [float(a["x1"]) for a in lines if a["y1"] == "730.00"]
        q_ticks = [float(a["y1"]) for a in lines if a["x2"] == "70.00"]
        assert p_ticks == pytest.approx(
            [70.0 + (k - 1.1) / (10.0 - 1.1) * 690.0 for k in range(2, 11)], abs=0.005)
        assert q_ticks == pytest.approx(
            [730.0 - (k - 1.5) / (4.2 - 1.5) * 690.0 for k in range(2, 5)], abs=0.005)


class TestMain:
    def test_exit_zero_on_completed(self, tmp_path, capsys):
        code = main(["phi", "--out", str(tmp_path)])
        assert code == 0
        assert "outcome=completed" in capsys.readouterr().out

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

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"p": 0.5}')
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_exit_two_on_tripped_overflow_guard(self, tmp_path, capsys):
        # The conjugate-power weight integral guards s'(t + R) > 700, which
        # this long uncoupled run reaches mid-run, after the echo is written.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"p": 1.1, "q": 1.1, "amplitudes": 0.01, "coupling": False,
             "horizon": 80, "grid_points": 300}))
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflow guard" in err
        assert (tmp_path / "out" / "config_echo.json").exists()

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
        # its first step and the trace holds one sample.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"amplitudes": 1e13, "grid_points": 250, "horizon": 2.0}))
        code = main(["audit", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "outcome=blowup" in capsys.readouterr().out
        doc = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert doc["inconclusive"] is True
        # T0 = 0.3 t[-1] = 0, and blow-up comes after it; the window is
        # empty because the last three samples are excluded.
        assert doc["note"] == ("audit window empty: every sample at or after "
                               "T0 = 0 is among the last three, which are "
                               "excluded")
        assert (tmp_path / "out" / "summary.json").exists()

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
        # F2_0^p = 1000^p is inf, so the comparison ODE blows up at T0 = 0.
        assert "outcome=blowup blowup_time=0.0 " in capsys.readouterr().out
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["outcome"] == "blowup" and doc["blowup_time"] == 0.0
        rows = (tmp_path / "out" / "ode_trace.csv").read_text().splitlines()
        assert rows == ["t,F1,dF1,F2,dF2", "0,1000,100,1000,100"]

    def test_sweep_bad_key(self, tmp_path, capsys):
        code = main(["phi", "--out", str(tmp_path), "--sweep", "bogus=1,2"])
        assert code == 2
