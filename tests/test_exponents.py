"""Tests for the parameter domain and for the import graph it allows.

The domain rules (n in [1, 8], p, q > 1, the 2n/(n-1) cap) live in
``blowlab.exponents``, which loads no other blowlab module, numpy or
scipy.  So the critical-curve layer loads neither the solver nor scipy,
and the comparison layer does not load the solver.  Each import is
checked in a fresh interpreter, since this process has loaded them all.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blowlab
from blowlab.exponents import (
    MAX_DIMENSION,
    DomainError,
    Exponents,
    check_dimension,
    check_powers,
)

SRC = str(Path(blowlab.__file__).resolve().parent.parent)


def modules_after_import(module: str) -> set:
    code = f"import sys, {module}; print('\\n'.join(sys.modules))"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    loaded = set(out.stdout.split())
    assert module in loaded
    return loaded


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

    def test_comparison_loads_no_solver(self):
        # scipy.integrate loads scipy.special itself, so scipy is not checked.
        loaded = modules_after_import("blowlab.comparison")
        assert not loaded & {"blowlab.pde", "blowlab.testfuncs"}


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

    def test_cap(self):
        assert Exponents(2.0, 2.0, 1).cap == math.inf
        assert Exponents(2.0, 2.0, 2).cap == 4.0
        assert Exponents(2.0, 2.0, 3).cap == 3.0
        assert Exponents(3.0, 2.0, 3).at_cap("p") == "p=3 >= 2n/(n-1)=3 for n=3"
        # The cap is exclusive for the simulator.
        assert not Exponents(2.0, 3.0, 3).simulator_range_ok()
        assert Exponents(2.0, np.nextafter(3.0, 0.0), 3).simulator_range_ok()
