"""The coupled, nonlinear solver against an exact solution.

Data that are constant on the ball |x| < a, with values u0, u1, v0 and
v1, give by finite speed of propagation the spatially constant solution
at the origin for t < a: the ODE system

    u'' + u' = |v|^p,   v'' = |u|^q,

the same in every dimension.  The scheme keeps it bit for bit: the
finite-volume Laplacian of a constant is exactly 0.0, since each flux is
f[i+1] - f[i] = 0.  So the centre node follows a scalar leapfrog with
``init_state``'s seed and ``step``'s operation order until the discrete
cone, one node per step, brings in the data's edge.

The data are a plateau: 1 for r/R <= 1/2, then the C-infinity step
g(1 - x) / (g(1 - x) + g(x)), g(x) = exp(-1/x), x = (r/R - 1/2) / (1/2),
down to 0 at r = R, with R = 4.  In float64 the step stays exactly 1
up to x = 0.026, so with the CFL factor c the centre is exact for
t < 2.05 c, 0.92 at c = 0.45.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from blowlab.exponents import Exponents
from blowlab.pde import DEFAULT_BLOWUP_THRESHOLD, InitialData, init_state, run, step

R = 4.0
# Every run below ends by t = 0.9, inside the exact window of its CFL factor.
HORIZON = 0.9


def g(x):
    """exp(-1/x) for x > 0, 0 elsewhere."""
    out = np.zeros_like(x)
    positive = x > 0.0
    out[positive] = np.exp(-1.0 / x[positive])
    return out


@dataclass(frozen=True)
class FlatTop(InitialData):
    """The plateau data of the module docstring."""

    def shape(self, r, R):
        x = np.clip(2.0 * np.asarray(r, dtype=float) / R - 1.0, 0.0, 1.0)
        return g(1.0 - x) / (g(1.0 - x) + g(x))


def power(x, s):
    """|x|^s as ``pde._sources`` takes it: a numpy array power in place,
    which need not equal Python's float ** bit for bit."""
    base = np.abs(np.array([x]))
    base **= s
    return float(base[0])


class TestCentreNode:
    @pytest.mark.parametrize("n, p, q, cfl, amplitudes, outcome", [
        (1, 2.0, 3.0, 0.5, (4.0, 2.0, 6.0, 1.0), "blowup"),        # 587 steps, t = 0.72
        (3, 1.9, 2.5, 0.5, (8.0, 4.0, 12.0, 2.0), "blowup"),       # 561 steps, t = 0.69
        (5, 1.6, 1.5, 0.5, (200.0, 100.0, 300.0, 50.0), "horizon"),    # 733 steps
        (8, 1.5, 1.3, 0.45, (2000.0, 1000.0, 3000.0, 500.0), "horizon"),  # 814 steps
    ])
    def test_equals_scalar_leapfrog(self, n, p, q, cfl, amplitudes, outcome):
        u0, u1, v0, v1 = amplitudes
        data = FlatTop(amplitude_u0=u0, amplitude_u1=u1, amplitude_v0=v0, amplitude_v1=v1)
        state = init_state(Exponents(p, q, n, R=R), data, 2000, HORIZON, cfl_factor=cfl)
        dt, centre = state.dt, state.r.size   # u_0 sits at centre - 1, v_0 at centre

        # The seed: fields - dt velocities + dt^2/2 (Laplacian - u1 + |v0|^p).
        u_prev = u1 * -dt + u0 + (-u1 + power(v0, p)) * (0.5 * dt**2)
        v_prev = v1 * -dt + v0 + power(u0, q) * (0.5 * dt**2)
        u, v, t = u0, v0, 0.0
        assert state.fields_prev[centre - 1:centre + 1].tolist() == [u_prev, v_prev]

        n_steps = math.ceil(HORIZON / dt)
        spare = np.zeros(2 * centre)
        k = 0
        while k < n_steps and not state.peak > DEFAULT_BLOWUP_THRESHOLD:
            state, spare = step(state, out=spare), state.fields_prev
            u, u_prev, v, v_prev = (
                (2.0 * u - u_prev * (1.0 - 0.5 * dt) + power(v, p) * dt**2) / (1.0 + 0.5 * dt),
                u, 2.0 * v - v_prev + power(u, q) * dt**2, v)
            t += dt
            k += 1
            assert state.fields[centre - 1:centre + 1].tolist() == [u, v], (k, t)
            assert state.time == t
        # The plateau holds the peak, so the run ends where the ODE crosses.
        assert state.peak == max(u, v)
        assert (outcome == "blowup") == (state.peak > DEFAULT_BLOWUP_THRESHOLD)
        assert k == n_steps or outcome == "blowup"


def ode_crossing(p, q, amplitude):
    """The time at which max(u, v) of the ODE system, from every datum
    equal to ``amplitude``, crosses the blow-up threshold (DOP853)."""
    def rhs(t, y):
        return [y[1], abs(y[2]) ** p - y[1], y[3], abs(y[0]) ** q]

    def crossing(t, y):
        return max(y[0], y[2]) - DEFAULT_BLOWUP_THRESHOLD
    crossing.terminal = True
    sol = solve_ivp(rhs, (0.0, 2.0), [amplitude] * 4, method="DOP853",
                    rtol=1e-13, atol=1e-13, events=crossing)
    return float(sol.t_events[0][0])


class TestBlowupTime:
    # p = q = 2 with every amplitude 20 crosses at t = 0.63377; at horizon 2
    # the dt of grids 1 000, 2 000 and 4 000 is 3.0e-3, 1.5e-3 and 7.5e-4.
    GRIDS = (1000, 2000, 4000)

    @pytest.fixture(scope="class")
    def times(self):
        data = FlatTop(**dict.fromkeys(("amplitude_u0", "amplitude_u1", "amplitude_v0",
                                        "amplitude_v1"), 20.0))
        traces = {n: [run(Exponents(2.0, 2.0, n, R=R), data, grid, 2.0)
                      for grid in self.GRIDS] for n in (1, 3)}
        assert [trace.outcome for n in (1, 3) for trace in traces[n]] == ["blowup"] * 6
        return {n: [trace.blowup_time for trace in traces[n]] for n in (1, 3)}

    def test_same_in_every_dimension(self, times):
        assert times[1] == times[3]

    def test_first_order(self, times):
        # Measured 9.09e-3, 4.15e-3 and 2.44e-3: the ratios 2.2 and 1.7
        # are uneven, as the crossing is read at the first step past it.
        T = ode_crossing(2.0, 2.0, 20.0)
        errors = [t - T for t in times[1]]
        assert 0.0 < errors[2] < errors[1] < errors[0]
        assert 2.5 < errors[0] / errors[2] < 6.0   # 4 at first order, 16 at second
        # The grid-2000 bound is the measured 4.15e-3 with a 20% margin.
        assert errors[1] <= 5e-3
