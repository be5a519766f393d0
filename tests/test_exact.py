"""The solver against an exact solution of the linear PDE.

Oracle: d'Alembert's formula.  An uncoupled radial free wave in n = 3,
v_tt = v_rr + (2/r) v_r, has r v solving the 1-D wave equation with the
odd extension, so from v(0) = v0, v_t(0) = 0

    v(r, t) = (F(r - t) + F(r + t)) / (2 r),   F(s) = s v0(|s|),

with the limit F'(t) at r = 0.  The run is stepped with ``init_state``
and ``step`` as ``run`` steps it, and compared at the state's own time,
which lies within dt of the horizon.
"""

import math

import numpy as np
import pytest

from blowlab.exponents import Exponents
from blowlab.pde import InitialData, init_state, step

HORIZON = 4.0
# The free wave starts from the smooth bump v0 of R = 1 and unit
# amplitude; u stays 0.
DATA = InitialData(amplitude_u0=0.0, amplitude_u1=0.0, amplitude_v0=1.0, amplitude_v1=0.0)


def bump(s):
    """The smooth bump exp(1 - 1/(1 - s^2)) for s < 1, 0 beyond."""
    out = np.zeros_like(s)
    inside = s < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def v_exact(r, t):
    """d'Alembert's solution in n = 3 from v0 = bump, v1 = 0, for t > 1."""
    def F(s):
        return s * bump(np.abs(s))
    with np.errstate(invalid="ignore"):
        v = (F(r - t) + F(r + t)) / (2.0 * r)
    # At r = 0 the limit F'(t) vanishes, since t lies beyond the support.
    v[r == 0.0] = 0.0
    return v


def max_error(grid_points: int) -> float:
    """max |v - v_exact| over the mesh after ceil(HORIZON / dt) steps."""
    state = init_state(Exponents(1.5, 2.5, 3), DATA, grid_points, HORIZON, coupling=False)
    for _ in range(math.ceil(HORIZON / state.dt)):
        state = step(state)
    size = state.r.size
    assert not state.fields[:size].any()
    return float(np.max(np.abs(state.fields[size:] - v_exact(state.r, state.time))))


class TestFreeWave:
    @pytest.fixture(scope="class")
    def errors(self):
        # Measured: 7.04e-4, 2.09e-4, 5.56e-5 and 1.42e-5.
        return {grid: max_error(grid) for grid in (500, 1000, 2000, 4000)}

    def test_second_order(self, errors):
        # A second-order scheme cuts the error 4x per halving of h; the
        # measured ratios are 3.4, 3.8 and 3.9, and 3x is required.
        e = list(errors.values())
        assert all(coarse >= 3.0 * fine for coarse, fine in zip(e, e[1:])), errors

    def test_error_at_grid_2000(self, errors):
        assert errors[2000] <= 1e-4, errors
