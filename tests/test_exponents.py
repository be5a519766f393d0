"""Tests for the parameter domain and for the import graph it allows.

The domain rules (n in [1, 8], p, q > 1, the theorem's bounds) live in
``blowlab.exponents``, which loads no other blowlab module, numpy or
scipy.  So the critical-curve layer loads neither the solver nor scipy.
The comparison layer integrates its ODE with its own numpy
Dormand-Prince 5(4) pair and its own Brent root finder, and its Y and Z
brackets with ``testfuncs.gauss_panels``; ``testfuncs.phi`` sums its
power series in numpy.  So the test functions, the simulator and the
CLI load no scipy module at all, and neither does a run of any mode,
``kato`` included, nor a call of a Y or Z helper: each runs with scipy's
import blocked.
Each import is checked in a fresh interpreter, since this process has
loaded them all.
"""

import json
import math
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import blowlab
from blowlab.comparison import (
    KatoParams,
    derive_params,
    integrate_comparison,
    y_blowup_time,
    y_closed_form,
    z_blowup_time,
    z_closed_form,
)
from blowlab.exponents import (
    MAX_DIMENSION,
    DomainError,
    Exponents,
    check_dimension,
    check_nonnegative,
    check_positive,
    check_powers,
    check_theorem_range,
    theorem_bounds,
    theorem_range,
)
from blowlab.pde import AMPLITUDE_KEYS, InitialData, init_state, run

SRC = str(Path(blowlab.__file__).resolve().parent.parent)

UNIT = Exponents(2.0, 2.0, 1)


def kato_params(key, x):
    weights = dict(alpha1=1.0, alpha2=1.0, beta1=1.0, beta2=1.0, beta3=1.0)
    return KatoParams(p=2.0, q=2.0, **{**weights, key: x})


def derived(key, x):
    return derive_params(UNIT, {key: x})


def comparison_run(key, x):
    args = dict(F1_0=1.0, dF1_0=1.0, F2_0=1.0, dF2_0=1.0, horizon=1.0,
                ode_threshold=1e12)
    return integrate_comparison(derive_params(UNIT), **{**args, key: x})


# Every positivity check of the library entry points: the key it names
# and the call that checks it, as a function of the value.
POSITIVE = {
    "Exponents.R": ("R", lambda x: Exponents(2.0, 2.0, 1, R=x)),
    **{f"KatoParams.{k}": (k, partial(kato_params, k))
       for k in ("k0", "k1", "k2", "k3", "k4", "R")},
    **{f"derive_params.{k}": (k, partial(derived, k)) for k in ("C3", "k2", "k4")},
    "init_state.horizon": ("horizon", lambda x: init_state(UNIT, InitialData(), 200,
                                                           horizon=x)),
    "run.blowup_threshold": ("blowup_threshold",
                             lambda x: run(UNIT, InitialData(), blowup_threshold=x)),
    **{f"integrate_comparison.{k}": (k, partial(comparison_run, k))
       for k in ("F1_0", "dF1_0", "F2_0", "dF2_0", "ode_threshold")},
}


def bernoulli(function, key, x):
    """``function`` at kappa = 1, rate (nu or gamma) 0, alpha = 0,
    beta = 2, R = 1, start 0 and initial value 1/2 (and t = 1/2 for a
    closed form), with ``key`` ("kappa" or "rate") set to x."""
    kappa, rate = (x, 0.0) if key == "kappa" else (1.0, x)
    tail = (0.5,) if function in (y_closed_form, z_closed_form) else ()
    return function(kappa, rate, 0.0, 2.0, 1.0, 0.0, 0.5, *tail)


# Every nonnegativity check, as POSITIVE; the rate is nu for the Y
# problem and gamma for the Z problem.
NONNEGATIVE = {
    **{f"KatoParams.{k}": (k, partial(kato_params, k))
       for k in ("alpha2", "beta2", "beta3", "T0")},
    **{f"InitialData.{k}": (k, lambda x, k=k: InitialData(**{k: x}))
       for k in AMPLITUDE_KEYS},
    **{f"{f.__name__}.{name}": (name, partial(bernoulli, f, key))
       for f, rate in ((y_closed_form, "nu"), (y_blowup_time, "nu"),
                       (z_closed_form, "gamma"), (z_blowup_time, "gamma"))
       for key, name in (("kappa", "kappa"), ("rate", rate))},
}


def fresh_python(code: str, *args: str) -> str:
    """The standard output of ``code``, run with ``args`` in a fresh
    interpreter that imports this blowlab."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, check=True, env=env).stdout


def modules_after_import(module: str, then: str = "") -> set:
    """The modules loaded after importing ``module`` and running ``then``."""
    loaded = set(fresh_python(
        f"import sys, {module}\n{then}\nprint('\\n'.join(sys.modules))").split())
    assert module in loaded
    return loaded


# Every CLI mode's default run, into the directory argv[1], and the four
# Bernoulli helpers, with scipy's import blocked: the exit statuses and
# the helpers' values, as JSON on the last line.
SCIPY_BLOCKED = """\
import json, sys
sys.modules["scipy"] = None
from blowlab.cli import MODES, main
from blowlab.comparison import y_blowup_time, y_closed_form, z_blowup_time, z_closed_form
statuses = [main([mode, "--out", f"{sys.argv[1]}/{mode}"]) for mode in MODES]
print(json.dumps([statuses, y_closed_form(1.0, 0.0, 0.0, 2.0, 1.0, 0.0, 1.0, 0.5),
                  y_blowup_time(1.0, 0.0, 0.0, 2.0, 1.0, 0.0, 1.0),
                  z_closed_form(10.0, 0.0, 0.0, 2.0, 1.0, 0.0, 1.0, 0.05),
                  z_blowup_time(10.0, 0.0, 0.0, 2.0, 1.0, 0.0, 1.0)]))
"""


def scipy_modules(loaded: set) -> list:
    return sorted(m for m in loaded if m == "scipy" or m.startswith("scipy."))


class TestImportGraph:
    def test_exponents_loads_nothing_heavy(self):
        loaded = modules_after_import("blowlab.exponents")
        assert sorted(m for m in loaded if m.startswith("blowlab.")) == ["blowlab.exponents"]
        assert "numpy" not in loaded
        assert scipy_modules(loaded) == []

    def test_criticality_loads_no_solver_and_no_scipy(self):
        loaded = modules_after_import("blowlab.criticality")
        assert not loaded & {"blowlab.pde", "blowlab.comparison", "blowlab.testfuncs"}
        assert scipy_modules(loaded) == []

    def test_cli_loads_no_ode_solver(self):
        loaded = modules_after_import("blowlab.cli")
        assert not loaded & {"scipy.integrate", "scipy.optimize"}

    def test_pde_loads_no_ode_solver(self):
        # The audit imports its weights from comparison where it runs.
        loaded = modules_after_import("blowlab.pde")
        assert "blowlab.comparison" not in loaded
        assert not loaded & {"scipy.integrate", "scipy.optimize"}

    @pytest.mark.parametrize("mode", ["simulate", "regions"])
    def test_default_run_loads_no_comparison(self, mode, tmp_path):
        # Only kato and the audit run the comparison layer.
        loaded = modules_after_import("blowlab.cli", (
            f"blowlab.cli.run_experiment(blowlab.cli.parse_config('{{}}', {mode!r}),"
            f" {str(tmp_path)!r})"))
        assert "blowlab.pde" in loaded
        assert "blowlab.comparison" not in loaded
        assert (tmp_path / "summary.json").is_file()

    @pytest.mark.parametrize("module", ["blowlab.cli", "blowlab.pde", "blowlab.testfuncs"])
    def test_loads_no_scipy(self, module):
        loaded = modules_after_import(module)
        assert "blowlab.testfuncs" in loaded
        assert scipy_modules(loaded) == []

    @pytest.mark.parametrize("mode", ["simulate", "audit", "regions"])
    def test_parsing_loads_no_scipy(self, mode):
        # init_state applies phi's radius guard without evaluating phi.
        loaded = modules_after_import(
            "blowlab.cli", f"blowlab.cli.parse_config('{{}}', {mode!r})")
        assert "blowlab.pde" in loaded
        assert scipy_modules(loaded) == []

    @pytest.mark.parametrize("mode", ["simulate", "audit", "phi", "kato"])
    def test_default_run_loads_no_scipy(self, mode, tmp_path):
        # phi sums its power series in numpy, and comparison integrates its
        # ODE in numpy.
        loaded = modules_after_import("blowlab.cli", (
            f"blowlab.cli.run_experiment(blowlab.cli.parse_config('{{}}', {mode!r}),"
            f" {str(tmp_path)!r})"))
        assert "blowlab.testfuncs" in loaded
        assert scipy_modules(loaded) == []
        assert (tmp_path / "summary.json").is_file()

    def test_audit_seeded_kato_loads_no_scipy(self, tmp_path):
        # The constants of the audit-n2 audit (amplitude 1, grid 1000): the
        # audit -> kato chain blows up, and its ODE solve loads no scipy.
        doc = {"p": 1.5, "q": 1.5, "n": 2, "C3": 0.07241886135849035,
               "k2": 0.6103393946639272, "k4": 1.5424272975524305}
        loaded = modules_after_import("blowlab.cli", (
            f"blowlab.cli.run_experiment(blowlab.cli.parse_config({json.dumps(doc)!r},"
            f" 'kato'), {str(tmp_path)!r})"))
        assert "blowlab.comparison" in loaded
        assert scipy_modules(loaded) == []
        assert json.loads((tmp_path / "summary.json").read_text())["outcome"] == "blowup"

    def test_runs_with_scipy_blocked(self, tmp_path):
        # A blocked import raises, so this also catches an import made
        # inside a function.  Y = 1/(1 - t) and Z = e^{-t}/(1 - 10(1 - e^{-t})).
        statuses, y, t_y, z, t_z = json.loads(
            fresh_python(SCIPY_BLOCKED, str(tmp_path)).splitlines()[-1])
        assert statuses == [0] * 5
        assert y == pytest.approx(2.0, rel=1e-12)
        assert t_y == pytest.approx(1.0, abs=1e-9)
        assert z == pytest.approx(math.exp(-0.05) / (1.0 + 10.0 * math.expm1(-0.05)),
                                  rel=1e-12)
        assert t_z == pytest.approx(math.log(10.0 / 9.0), abs=1e-9)

    def test_comparison_loads_no_solver(self):
        loaded = modules_after_import("blowlab.comparison")
        assert not loaded & {"blowlab.pde", "blowlab.testfuncs"}
        assert scipy_modules(loaded) == []


class TestDomain:
    def test_dimension(self):
        for n in (1, MAX_DIMENSION, np.int64(3)):
            check_dimension(n)
        for n in (0, MAX_DIMENSION + 1):
            with pytest.raises(DomainError, match=rf"n={n} must lie in \[1, 8\]"):
                check_dimension(n)
        for n in (2.0, True, "3"):
            with pytest.raises(DomainError, match="must be an integer"):
                check_dimension(n)

    def test_powers(self):
        check_powers(1.0000001, 7.0)
        with pytest.raises(DomainError, match="p=1.0 must exceed 1"):
            check_powers(1.0, 0.5)
        with pytest.raises(DomainError, match="q=0.5 must exceed 1"):
            check_powers(2.0, 0.5)

    def test_bounds(self):
        # 2n/(n-1), exclusive and infinite for n = 1, then the inclusive
        # (n+3)/(n-1) and n/(n-2).
        assert theorem_bounds(1) == [("2n/(n-1)", math.inf, False)] * 2
        assert theorem_bounds(2) == [("2n/(n-1)", 4.0, False)] * 2
        assert theorem_bounds(3) == [("2n/(n-1)", 3.0, False)] * 2
        assert theorem_bounds(5) == [("(n+3)/(n-1)", 2.0, True), ("n/(n-2)", 5.0 / 3.0, True)]

    @pytest.mark.parametrize("n", range(1, MAX_DIMENSION + 1))
    def test_theorem_range_on_arrays(self, n):
        # The bounds as the theorem states them: p, q < 2n/(n-1) for
        # n <= 3; p <= (n+3)/(n-1) and q <= n/(n-2) for n >= 4.
        if n <= 3:
            cap = math.inf if n == 1 else 2.0 * n / (n - 1)
            bounds = [cap] if cap < math.inf else []

            def rule(p, q):
                return p < cap and q < cap
        else:
            bounds = [(n + 3) / (n - 1), n / (n - 2)]

            def rule(p, q):
                return p <= bounds[0] and q <= bounds[1]
        x = [1.01, 1.2, 2.0, 3.0, 4.0, 12.0]
        x += [v for b in bounds for v in (np.nextafter(b, 0.0), b, np.nextafter(b, 9.0))]
        x = np.array(x)
        mask = theorem_range(x[np.newaxis, :], x[:, np.newaxis], n)
        for j, q in enumerate(x.tolist()):
            for i, p in enumerate(x.tolist()):
                ok = theorem_range(p, q, n)
                assert type(ok) is bool and ok == mask[j, i] == rule(p, q)
                try:
                    check_theorem_range(p, q, n)
                except DomainError:
                    assert not ok
                else:
                    assert ok


    @pytest.mark.parametrize("p, q, n, message", [
        (4.5, 2.0, 2, "p=4.5 >= 2n/(n-1)=4 for n=2"),
        (2.0, 3.0, 3, "q=3 >= 2n/(n-1)=3 for n=3"),
        (2.2, 1.5, 5, "p=2.2 > (n+3)/(n-1)=2 for n=5"),
        (1.5, 1.4, 8, "q=1.4 > n/(n-2)=1.33333 for n=8"),
    ])
    def test_range_check_names_the_power_and_its_bound(self, p, q, n, message):
        assert not theorem_range(p, q, n)
        with pytest.raises(DomainError, match=f"^exponents out of range: {re.escape(message)}$"):
            check_theorem_range(p, q, n)


class TestPositivity:
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("check", sorted(POSITIVE))
    def test_entry_checks_reject_nonpositive_and_nan(self, check, value):
        key, call = POSITIVE[check]
        with pytest.raises(DomainError, match=rf"^{key}={value} must be positive$"):
            call(value)

    @pytest.mark.parametrize("check", sorted(NONNEGATIVE))
    def test_nonnegative_checks_admit_zero(self, check):
        NONNEGATIVE[check][1](0.0)

    @pytest.mark.parametrize("value", [-1.0, math.nan])
    @pytest.mark.parametrize("check", sorted(NONNEGATIVE))
    def test_nonnegative_checks_reject_negative_and_nan(self, check, value):
        key, call = NONNEGATIVE[check]
        with pytest.raises(DomainError, match=rf"^{key}={value} must be nonnegative$"):
            call(value)

    def test_first_failure_named(self):
        check_positive(a=1, b=1e-300)
        with pytest.raises(DomainError, match=r"^b=0 must be positive$"):
            check_positive(a=1, b=0, c=-1)
        check_nonnegative(a=1, b=0.0)
        with pytest.raises(DomainError, match=r"^b=-1 must be nonnegative$"):
            check_nonnegative(a=0, b=-1, c=math.nan)
