"""Tests for the radial finite-difference simulator and functional audit.

Oracles: exact polynomial moments of the initial data, scipy quadrature,
and the closed-form mass ODEs of the uncoupled system (the damped mass
relaxes as F1(0) + (1 - e^{-t}) F1'(0); the undamped mass is affine).
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.integrate import quad

from blowlab.exponents import Exponents
from blowlab.pde import (
    AuditReport,
    BlowUpDetected,
    InitialData,
    NumericalInstability,
    Profile,
    audit_inequalities,
    functionals,
    init_state,
    run,
    step,
    support_radius,
)
from blowlab.testfuncs import TestFunctionKind as Kind
from blowlab.testfuncs import radial_laplacian, sphere_area, weighted_power_integral

FIELDS = ("u", "u_prev", "v", "v_prev")


def smooth_data(amplitude=1.0):
    return InitialData(profile=Profile.SMOOTH_BUMP,
                       amplitude_u0=amplitude, amplitude_u1=amplitude,
                       amplitude_v0=amplitude, amplitude_v1=amplitude)


class TestExponents:
    def test_validation(self):
        with pytest.raises(ValueError):
            Exponents(1.0, 2.0, 1)
        with pytest.raises(ValueError):
            Exponents(2.0, 2.0, 0)
        with pytest.raises(ValueError):
            Exponents(2.0, 2.0, 1, R=0.0)

    def test_simulator_range(self):
        assert Exponents(7.0, 9.0, 1).simulator_range_ok()
        assert Exponents(2.0, 2.0, 3).simulator_range_ok()
        assert not Exponents(3.0, 2.0, 3).simulator_range_ok()

    def test_theorem_range(self):
        assert Exponents(2.0, 2.0, 1).theorem_range_ok()
        assert Exponents(2.0, 2.0, 3).theorem_range_ok()
        assert not Exponents(4.5, 2.0, 2).theorem_range_ok()


class TestInitialData:
    def test_compact_support(self):
        data = smooth_data()
        r = np.linspace(0.0, 3.0, 301)
        vals = data.shape(r, 1.0)
        assert np.all(vals[r >= 1.0] == 0.0)
        assert np.all(vals[r < 1.0] > 0.0)

    def test_polynomial_mass_oracle(self):
        # int_{-1}^{1} (1 - x^2)^3 dx = 32/35 exactly.
        data = InitialData(profile=Profile.POLYNOMIAL_BUMP)
        r = np.linspace(0.0, 1.0, 20001)
        mass = sphere_area(1) * np.trapezoid(data.shape(r, 1.0), r)
        assert mass == pytest.approx(32.0 / 35.0, rel=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            InitialData(amplitude_u0=-1.0)


class TestInitState:
    def test_grid_geometry(self):
        ex = Exponents(2.0, 2.0, 1)
        state = init_state(ex, smooth_data(), 500, horizon=5.0)
        assert state.r[0] == 0.0
        # The mesh covers R + horizon plus a five-cell margin.
        assert state.r[-1] == pytest.approx(ex.R + 5.0 + 5.0 * state.h, rel=1e-12)
        assert state.dt == pytest.approx(0.5 * state.h, rel=1e-15)

    def test_backward_seed_is_second_order(self):
        # Halving dt must shrink the seed defect ~4x against the exact
        # relation u(-dt) = u0 - dt u1 + dt^2/2 u_tt + O(dt^3).
        ex = Exponents(2.0, 2.0, 1)
        s1 = init_state(ex, smooth_data(), 500, 5.0, cfl_factor=0.5)
        s2 = init_state(ex, smooth_data(), 500, 5.0, cfl_factor=0.25)
        lead1 = np.max(np.abs(s1.u_prev - (s1.u - s1.dt * s1.u)))
        lead2 = np.max(np.abs(s2.u_prev - (s2.u - s2.dt * s2.u)))
        assert lead1 > 0.0 and lead2 > 0.0

    def test_rejections(self):
        ex = Exponents(2.0, 2.0, 1)
        with pytest.raises(ValueError, match="200 grid points"):
            init_state(ex, smooth_data(), 100, 5.0)
        with pytest.raises(ValueError, match="horizon"):
            init_state(ex, smooth_data(), 500, -1.0)
        with pytest.raises(ValueError, match="CFL factor"):
            init_state(ex, smooth_data(), 500, 5.0, cfl_factor=1.5)
        with pytest.raises(ValueError, match="n <= 3"):
            init_state(Exponents(1.2, 1.2, 4), smooth_data(), 500, 5.0)
        with pytest.raises(ValueError, match="out of range"):
            init_state(Exponents(3.0, 2.0, 3), smooth_data(), 500, 5.0)

    def test_coupled_needs_positive_data(self):
        ex = Exponents(2.0, 2.0, 1)
        data = InitialData(amplitude_u1=0.0)
        with pytest.raises(ValueError, match="strictly positive"):
            init_state(ex, data, 500, 5.0, coupling=True)
        # With the coupling off the same datum is legitimate.
        init_state(ex, data, 500, 5.0, coupling=False)
        zero = InitialData(amplitude_u0=0.0, amplitude_u1=0.0,
                           amplitude_v0=0.0, amplitude_v1=0.0)
        with pytest.raises(ValueError, match="vanish identically"):
            init_state(ex, zero, 500, 5.0, coupling=False)


class TestStep:
    def test_zero_state_is_fixed_point(self):
        ex = Exponents(2.0, 2.0, 1)
        state = init_state(ex, smooth_data(), 500, 5.0)
        zero = replace(state, u=np.zeros_like(state.u),
                       u_prev=np.zeros_like(state.u),
                       v=np.zeros_like(state.v),
                       v_prev=np.zeros_like(state.v))
        out = step(zero)
        assert np.all(out.u == 0.0) and np.all(out.v == 0.0)

    def test_cfl_guard(self):
        state = init_state(Exponents(2.0, 2.0, 1), smooth_data(), 500, 5.0)
        with pytest.raises(ValueError, match="CFL"):
            step(state, dt=2.0 * state.h)

    def test_blowup_detected(self):
        ex = Exponents(2.0, 2.0, 1)
        state = init_state(ex, smooth_data(), 500, 5.0)
        big = replace(state, u=state.u * 1e13, u_prev=state.u_prev * 1e13)
        with pytest.raises(BlowUpDetected) as info:
            step(big)
        assert info.value.time >= 0.0
        assert info.value.peak > 1e12

    def test_instability_detected(self):
        # Overflow to non-finite values below an (infinite) threshold is
        # instability, not blow-up.
        ex = Exponents(2.0, 2.0, 1)
        state = init_state(ex, smooth_data(), 500, 5.0)
        huge = replace(state, u=state.u * 1e200, u_prev=state.u_prev * 1e200)
        with pytest.raises(NumericalInstability):
            step(huge, blowup_threshold=math.inf)

    def test_causal_clip_conserves_mass(self):
        ex = Exponents(2.0, 2.0, 3)
        state = init_state(ex, smooth_data(), 800, 5.0, coupling=False)
        w = state.r**2
        before = np.dot(state.v, w)
        drift = np.dot(state.v, w) - np.dot(state.v_prev, w)
        for _ in range(200):
            state = step(state)
        # v is undamped and uncoupled: the discrete weighted mass grows
        # exactly linearly, clip included.
        expected = before + 200 * drift
        assert np.dot(state.v, w) == pytest.approx(expected, rel=1e-10)


def step_full_mesh(state, dt=None, blowup_threshold=1e12):
    """Oracle: the leapfrog step computed over the whole mesh.

    This is the step as it was before it was confined to the causal
    window; the windowed step must reproduce it bit for bit.
    """
    if dt is None:
        dt = state.dt
    ex = state.exponents
    n = ex.n
    lap_u = radial_laplacian(state.u, state.r, state.h, n)
    lap_v = radial_laplacian(state.v, state.r, state.h, n)
    with np.errstate(over="ignore", invalid="ignore"):
        if state.coupling:
            f_u = np.abs(state.v) ** ex.p
            f_v = np.abs(state.u) ** ex.q
        else:
            f_u = 0.0
            f_v = 0.0
        u_next = (2.0 * state.u - (1.0 - 0.5 * dt) * state.u_prev
                  + dt**2 * (lap_u + f_u)) / (1.0 + 0.5 * dt)
        v_next = 2.0 * state.v - state.v_prev + dt**2 * (lap_v + f_v)
    u_next[-1] = 0.0
    v_next[-1] = 0.0

    t_next = state.time + dt
    outside = np.searchsorted(state.r, t_next + ex.R + 2.0 * state.h, side="right")
    if outside < state.r.size:
        edge = outside - 1
        w = state.r[edge:] ** (n - 1)
        u_next[edge] += np.dot(u_next[outside:], w[1:]) / w[0]
        v_next[edge] += np.dot(v_next[outside:], w[1:]) / w[0]
        u_next[outside:] = 0.0
        v_next[outside:] = 0.0
    peak = np.maximum(np.max(np.abs(u_next)), np.max(np.abs(v_next)))
    if not np.isfinite(peak):
        peak_prev = np.maximum(np.max(np.abs(state.u)), np.max(np.abs(state.v)))
        if peak_prev > blowup_threshold:
            raise BlowUpDetected(state.time, peak_prev)
        raise NumericalInstability(t_next)
    if peak > blowup_threshold:
        raise BlowUpDetected(t_next, peak)
    return replace(state, time=t_next, u=u_next, u_prev=state.u,
                   v=v_next, v_prev=state.v)


def step_beside_oracle(state, steps, blowup_threshold=1e12):
    """Advance ``step`` and the full-mesh oracle side by side.

    Every step must agree bit for bit.  Returns the last state and the
    failure both raised at the same step, or None.
    """
    oracle = state
    for _ in range(steps):
        try:
            oracle = step_full_mesh(oracle, blowup_threshold=blowup_threshold)
        except (BlowUpDetected, NumericalInstability) as expected:
            with pytest.raises(type(expected)) as info:
                step(state, blowup_threshold=blowup_threshold)
            assert info.value.time == expected.time
            assert getattr(info.value, "peak", None) == getattr(expected, "peak", None)
            return state, expected
        state = step(state, blowup_threshold=blowup_threshold)
        assert state.time == oracle.time
        for name in FIELDS:
            assert np.array_equal(getattr(state, name), getattr(oracle, name)), name
    return state, None


class TestCausalWindow:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("coupling", [True, False])
    @pytest.mark.parametrize("profile", list(Profile))
    def test_matches_full_mesh_step_past_horizon(self, n, coupling, profile):
        ex = Exponents(1.5, 2.5, n)
        horizon = 2.0
        state = init_state(ex, InitialData(profile=profile), 250, horizon,
                           coupling=coupling)
        # Twenty steps past the horizon the causal radius has left the
        # mesh, so the window has reached the last node and then covered
        # the whole mesh.
        steps = math.ceil(horizon / state.dt) + 20
        state, failure = step_beside_oracle(state, steps)
        assert failure is None
        assert state.time + ex.R + 2.0 * state.h > state.r[-1]

    @pytest.mark.parametrize("threshold, error", [
        (1e12, BlowUpDetected),
        (math.inf, NumericalInstability),
    ])
    def test_same_failure_at_same_step(self, threshold, error):
        ex = Exponents(2.0, 2.0, 3)
        state = init_state(ex, smooth_data(amplitude=20.0), 400, 10.0)
        _, failure = step_beside_oracle(state, math.ceil(10.0 / state.dt),
                                        blowup_threshold=threshold)
        assert type(failure) is error
        # Blow-up comes at T* ~ 0.6, while the window is a small prefix.
        assert failure.time < 1.0

    def test_input_state_unchanged(self):
        ex = Exponents(2.0, 2.0, 1)
        state = init_state(ex, smooth_data(), 400, 5.0)
        for _ in range(50):
            state = step(state)
        before = {name: getattr(state, name).copy() for name in FIELDS}
        out = step(state)
        for name in FIELDS:
            assert np.array_equal(getattr(state, name), before[name])
        assert out.u is not state.u and out.v is not state.v
        assert out.u.size == out.v.size == state.r.size


class TestSupportRadius:
    def test_initial_support(self):
        ex = Exponents(2.0, 2.0, 1)
        state = init_state(ex, smooth_data(), 2000, 5.0)
        assert support_radius(state) <= ex.R

    def test_zero_state(self):
        ex = Exponents(2.0, 2.0, 1)
        state = init_state(ex, smooth_data(), 500, 5.0)
        zero = replace(state, u=np.zeros_like(state.u), v=np.zeros_like(state.v))
        assert support_radius(zero) == 0.0

    def test_finite_propagation(self):
        ex = Exponents(2.0, 2.0, 1)
        state = init_state(ex, smooth_data(), 600, 5.0)
        for _ in range(300):
            state = step(state)
            assert support_radius(state) <= state.time + ex.R + 2.0 * state.h


class TestFunctionals:
    def test_initial_polynomial_masses(self):
        ex = Exponents(2.0, 2.0, 1)
        data = InitialData(profile=Profile.POLYNOMIAL_BUMP)
        state = init_state(ex, data, 4000, 5.0)
        vals = functionals(state)
        assert vals["F1"] == pytest.approx(32.0 / 35.0, rel=1e-5)
        assert vals["F2"] == pytest.approx(32.0 / 35.0, rel=1e-5)

    def test_weighted_mass_against_quad_oracle(self):
        # F3(0) = int (1-x^2)^3 2 cosh x over [-1, 1], by symmetry twice
        # the half-line integral.
        ex = Exponents(2.0, 2.0, 1)
        data = InitialData(profile=Profile.POLYNOMIAL_BUMP)
        state = init_state(ex, data, 4000, 5.0)
        oracle, _ = quad(lambda x: (1.0 - x * x) ** 3 * 2.0 * math.cosh(x), 0.0, 1.0)
        oracle *= sphere_area(1)
        assert functionals(state)["F3"] == pytest.approx(oracle, rel=1e-5)

    def test_j_columns_are_powers(self):
        ex = Exponents(2.0, 3.0, 1)
        state = init_state(ex, smooth_data(), 800, 5.0)
        vals = functionals(state)
        assert vals["J1"] == pytest.approx(vals["F3"] ** ex.p, rel=1e-12)
        assert vals["J3"] == pytest.approx(vals["F4"] ** ex.q, rel=1e-12)
        W2 = weighted_power_integral(Kind.PSI2, ex.p / (ex.p - 1.0),
                                     0.0, ex.R, ex.n)
        assert vals["J2"] == pytest.approx(W2 ** (-(ex.p - 1.0)), rel=1e-10)


class TestRun:
    def test_trace_shapes_and_csv(self):
        ex = Exponents(2.0, 2.0, 1)
        trace = run(ex, smooth_data(), grid_points=400, horizon=2.0,
                    sample_every=5)
        m = trace.times.size
        for col in (trace.F1, trace.F2, trace.F3, trace.F4, trace.J1,
                    trace.J2, trace.J3, trace.J4, trace.max_abs_u,
                    trace.max_abs_v, trace.support_r):
            assert col.shape == (m,)
        assert np.all(np.diff(trace.times) > 0.0)
        rows = list(trace.csv_rows())
        assert rows[0] == "t,F1,F2,F3,F4,J1,J2,J3,J4,max_u,max_v,support_r"
        assert len(rows) == m + 1
        assert trace.outcome == "completed"

    def test_mass_odes_uncoupled(self):
        ex = Exponents(2.0, 2.0, 1)
        trace = run(ex, smooth_data(), grid_points=800, horizon=4.0,
                    coupling=False)
        t = trace.times
        dF1_0 = trace.F1[0]  # u1 profile equals u0 profile at amplitude 1
        model1 = trace.F1[0] + (1.0 - np.exp(-t)) * dF1_0
        model2 = trace.F2[0] + t * trace.F2[0]
        assert np.max(np.abs(trace.F1 - model1)) <= 2e-3 * np.max(model1)
        assert np.max(np.abs(trace.F2 - model2)) <= 1e-6 * np.max(model2)

    def test_blowup_outcome_and_monotone_amplitude(self):
        ex = Exponents(2.0, 2.0, 1)
        t_star = []
        for amp in (10.0, 20.0):
            trace = run(ex, smooth_data(amplitude=amp), grid_points=400,
                        horizon=10.0)
            assert trace.outcome == "blowup"
            assert trace.blowup_time is not None
            t_star.append(trace.blowup_time)
        assert t_star[1] < t_star[0]

    def test_sample_every_validation(self):
        with pytest.raises(ValueError):
            run(Exponents(2.0, 2.0, 1), smooth_data(), grid_points=400,
                horizon=1.0, sample_every=0)

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, math.nan])
    def test_blowup_threshold_validation(self, threshold):
        # A threshold below every peak would record blow-up at t = dt.
        with pytest.raises(ValueError, match="blowup_threshold"):
            run(Exponents(2.0, 2.0, 1), smooth_data(), grid_points=400,
                horizon=1.0, blowup_threshold=threshold)

    def test_array_fields_are_csv_columns_in_order(self):
        # Distinct amplitudes and p != q make every column of the first
        # row distinct, so a swap of two array fields cannot go unseen.
        ex = Exponents(2.0, 3.0, 1)
        data = InitialData(amplitude_u0=1.0, amplitude_u1=2.0,
                           amplitude_v0=3.0, amplitude_v1=4.0)
        trace = run(ex, data, grid_points=300, horizon=0.5, sample_every=5)
        state0 = init_state(ex, data, 300, 0.5)
        want = {"times": 0.0, **functionals(state0),
                "max_abs_u": float(np.max(np.abs(state0.u))),
                "max_abs_v": float(np.max(np.abs(state0.v))),
                "support_r": support_radius(state0)}
        arrays = [f.name for f in fields(trace)
                  if isinstance(getattr(trace, f.name), np.ndarray)]
        assert arrays == list(want)
        assert tuple(getattr(trace, name)[0] for name in arrays) == \
            tuple(want.values())
        header, first = list(trace.csv_rows())[:2]
        assert header == "t,F1,F2,F3,F4,J1,J2,J3,J4,max_u,max_v,support_r"
        assert first == ",".join(f"{x:.17g}" for x in want.values())


@pytest.fixture(scope="module")
def reference():
    ex = Exponents(2.0, 2.0, 1)
    trace = run(ex, smooth_data(amplitude=5.0), grid_points=800, horizon=10.0)
    return ex, trace


class TestAudit:
    def test_all_inequalities_hold(self, reference):
        ex, trace = reference
        report = audit_inequalities(trace, ex)
        assert isinstance(report, AuditReport)
        assert report.all_pass
        names = [r.name for r in report.records]
        assert names == ["F1_lower", "F1_first_order", "F1_second_order",
                         "F2_lower", "F2_second_order"]
        for rec in report.records:
            assert rec.margin_min >= -1e-9 * rec.scale

    def test_constants_positive_and_consistent(self, reference):
        ex, trace = reference
        report = audit_inequalities(trace, ex)
        c = report.constants()
        assert all(v > 0.0 for v in c.values())
        # C3 is determined by C0, C2 and the dimension weights.
        growth = 4.0 * (2.0 + (2.0 - ex.p) * (ex.n - 1))
        assert c["C3"] == pytest.approx(
            c["C0"] ** ex.p * c["C2"] ** (-(ex.p - 1.0)) / growth, rel=1e-12)

    def test_min_passing_T0_reported(self, reference):
        ex, trace = reference
        report = audit_inequalities(trace, ex)
        assert report.min_passing_T0 is not None
        assert 0.0 <= report.min_passing_T0 <= report.window[0]

    def test_empty_window_is_inconclusive(self, reference):
        ex, trace = reference
        report = audit_inequalities(trace, ex, T0_fraction=0.999999)
        assert report.inconclusive
        assert not report.all_pass
        assert report.min_passing_T0 is None

    @pytest.mark.parametrize("samples", [1, 2, 3])
    def test_short_trace_is_inconclusive(self, reference, samples):
        # The last three samples are always excluded, so at most three
        # samples leave the window empty, before any derivative is taken.
        ex, trace = reference
        short = replace(trace, **{f.name: getattr(trace, f.name)[:samples]
                                  for f in fields(trace)
                                  if isinstance(getattr(trace, f.name), np.ndarray)})
        report = audit_inequalities(short, ex)
        assert report.inconclusive
        assert report.records == []
        assert report.min_passing_T0 is None
        assert report.note.startswith("audit window empty: every sample at or "
                                      f"after T0 = {0.3 * short.times[-1]:.6g}")

    def test_instability_rejected(self, reference):
        ex, trace = reference
        broken = replace(trace, outcome="instability")
        with pytest.raises(ValueError, match="unstable"):
            audit_inequalities(broken, ex)

    def test_t0_fraction_domain(self, reference):
        ex, trace = reference
        with pytest.raises(ValueError):
            audit_inequalities(trace, ex, T0_fraction=0.0)
