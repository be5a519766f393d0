"""Tests for the radial finite-difference simulator and functional audit.

Oracles: exact polynomial moments of the initial data, scipy quadrature,
and the closed-form mass ODEs of the uncoupled system (the damped mass
relaxes as F1(0) + (1 - e^{-t}) F1'(0); the undamped mass is affine).
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import blowlab
from blowlab.cli import parse_config, run_experiment
from blowlab.comparison import derive_params
from blowlab.exponents import Exponents
from blowlab.pde import (
    CFL_LIMITS,
    AuditReport,
    InitialData,
    Profile,
    audit_inequalities,
    check_init_args,
    functionals,
    init_state,
    run,
    step,
    support_radius,
)
from blowlab.testfuncs import TestFunctionKind as Kind
from blowlab.testfuncs import (
    ball_volume,
    phi,
    radial_laplacian,
    radial_stencil,
    sphere_area,
    weighted_power_integral,
)

FIELDS = ("u", "u_prev", "v", "v_prev")
# The keys of ``functionals``, in order.
FUNCTIONALS = ("F1", "F2", "F3", "F4", "dF1", "dF2", "int_v_p", "int_u_q")


def mirrored(u, v):
    """The fields u and v of one level as one fresh mirrored buffer."""
    return np.concatenate((np.asarray(u)[::-1], v))


def mesh_order(state):
    """The fields of ``FIELDS`` as attributes: mesh-order views of the
    halves of ``state``'s mirrored levels."""
    size = state.r.size
    return SimpleNamespace(u=state.fields[size - 1::-1], u_prev=state.fields_prev[size - 1::-1],
                           v=state.fields[size:], v_prev=state.fields_prev[size:])


def with_fields(state, **changes):
    """``state`` with the named fields of ``FIELDS`` replaced and the others
    copied, in freshly built mirrored buffers; every other keyword goes to
    ``replace`` as it is."""
    old = vars(mesh_order(state))
    values = {name: changes.pop(name, old[name]) for name in FIELDS}
    return replace(state, **changes, fields=mirrored(values["u"], values["v"]),
                   fields_prev=mirrored(values["u_prev"], values["v_prev"]))


def dimension_case(n):
    """Exponents and a CFL factor that dimension n = 1..8 admits: p = 1.5,
    q = 2.5 at the default factor for n <= 3, p = q = 1.3 at 0.45 above."""
    if n <= 3:
        return Exponents(1.5, 2.5, n), 0.5
    return Exponents(1.3, 1.3, n), 0.45


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
        # init_state owns the simulator's range: the theorem's, whose cap
        # 2n/(n-1) is exclusive for n <= 3 and whose bounds are inclusive
        # for n >= 4, and the CFL limit of each dimension.
        for ex in (Exponents(7.0, 9.0, 1), Exponents(2.0, 2.0, 3),
                   Exponents(2.0, np.nextafter(3.0, 0.0), 3), Exponents(2.0, 5.0 / 3.0, 5),
                   Exponents(11.0 / 7.0, 4.0 / 3.0, 8)):
            init_state(ex, smooth_data(), 200, horizon=1.0, cfl_factor=0.45)
        for ex, message in (
                (Exponents(3.0, 2.0, 3), r"^exponents out of range: p=3 >= 2n/\(n-1\)=3 for n=3$"),
                (Exponents(2.0, 3.0, 3), r"^exponents out of range: q=3 >= 2n/\(n-1\)=3 for n=3$"),
                (Exponents(2.2, 1.5, 5),
                 r"^exponents out of range: p=2.2 > \(n\+3\)/\(n-1\)=2 for n=5$"),
                (Exponents(1.5, 1.4, 8),
                 r"^exponents out of range: q=1.4 > n/\(n-2\)=1.33333 for n=8$")):
            with pytest.raises(ValueError, match=message):
                init_state(ex, smooth_data(), 200, horizon=1.0, cfl_factor=0.45)
        # The default CFL factor 0.5 lies above the n = 8 limit.
        with pytest.raises(ValueError, match=r"^cfl_factor=0.5: CFL factor must lie in "
                           r"\(0, 0.4999\], the leapfrog stability limit for n=8$"):
            init_state(Exponents(1.5, 1.3, 8), smooth_data(), 200, horizon=1.0)

    def test_theorem_range(self):
        init_state(Exponents(2.0, 2.0, 1), smooth_data(), 200, horizon=1.0)
        init_state(Exponents(2.0, 2.0, 3), smooth_data(), 200, horizon=1.0)
        with pytest.raises(ValueError, match=r"^exponents out of range: p=4.5 >= 2n/\(n-1\)=4 for n=2$"):
            init_state(Exponents(4.5, 2.0, 2), smooth_data(), 200, horizon=1.0)


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
        # The mesh covers R + horizon plus a five-cell margin, out to the
        # radius that the argument check returns.
        assert state.r[-1] == pytest.approx(ex.R + 5.0 + 5.0 * state.h, rel=1e-12)
        assert state.r[-1] == check_init_args(ex, smooth_data(), 500, 5.0, 0.5, True)
        assert state.dt == pytest.approx(0.5 * state.h, rel=1e-15)

    def test_backward_seed_is_second_order(self):
        # The seed is the Taylor expansion u(-dt) = u0 - dt u1 + dt^2/2 u_tt
        # + O(dt^3), so its defect against the first-order u0 - dt u1 is the
        # dt^2 term: halving dt on the same mesh shrinks it 4x, for v too.
        ex = Exponents(2.0, 2.0, 1)
        defects = []
        for cfl in (0.5, 0.25):
            state = init_state(ex, smooth_data(), 500, 5.0, cfl_factor=cfl)
            u0, u1, v0, v1 = smooth_data().sample(state.r, ex.R)
            seed = mesh_order(state)
            defects.append([np.max(np.abs(seed.u_prev - (u0 - state.dt * u1))),
                            np.max(np.abs(seed.v_prev - (v0 - state.dt * v1)))])
        for coarse, fine in zip(*defects):
            assert fine > 0.0
            assert 3.9 <= coarse / fine <= 4.1

    def test_rejections(self):
        ex = Exponents(2.0, 2.0, 1)
        with pytest.raises(ValueError, match="200 grid points"):
            init_state(ex, smooth_data(), 100, 5.0)
        with pytest.raises(ValueError, match="horizon"):
            init_state(ex, smooth_data(), 500, -1.0)
        with pytest.raises(ValueError, match="CFL factor"):
            init_state(ex, smooth_data(), 500, 5.0, cfl_factor=1.5)
        for n, limit in CFL_LIMITS.items():
            with pytest.raises(ValueError, match=rf"^cfl_factor={limit + 0.001}: CFL "
                               rf"factor must lie in \(0, {limit}\], the leapfrog "
                               rf"stability limit for n={n}$"):
                init_state(Exponents(2.0, 2.0, n), smooth_data(), 500, 5.0,
                           cfl_factor=limit + 0.001)
        # 0.8 lies just above the n = 3 limit.
        with pytest.raises(ValueError, match=r"^cfl_factor=0.8: .* limit for n=3$"):
            init_state(Exponents(2.0, 2.0, 3), smooth_data(), 500, 5.0, cfl_factor=0.8)
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
        zero = with_fields(state, **dict.fromkeys(FIELDS, np.zeros(state.r.size)))
        out = mesh_order(step(zero))
        assert np.all(out.u == 0.0) and np.all(out.v == 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cfl_guard(self, n):
        # The guard is the init_state limit of the dimension: dt at the
        # limit steps, and the next float above it raises.
        state = init_state(Exponents(2.0, 2.0, n), smooth_data(), 500, 5.0)
        at_limit = CFL_LIMITS[n] * state.h
        step(replace(state, dt=at_limit))
        for dt in (np.nextafter(at_limit, 1.0), 2.0 * state.h, 0.0):
            with pytest.raises(ValueError, match="CFL"):
                step(replace(state, dt=dt))

    def test_peak(self):
        # init_state and step report max(|u|, |v|) over the mesh.
        ex = Exponents(2.0, 2.0, 1)
        state = init_state(ex, InitialData(amplitude_u0=2.0, amplitude_v0=3.0), 500, 5.0)
        for _ in range(3):
            f = mesh_order(state)
            assert state.peak == max(np.max(np.abs(f.u)), np.max(np.abs(f.v)))
            state = step(state)

    def test_blowup_detected(self):
        # A peak above the threshold, which run records as blow-up.
        ex = Exponents(2.0, 2.0, 1)
        state = init_state(ex, smooth_data(), 500, 5.0)
        f = mesh_order(state)
        big = with_fields(state, u=f.u * 1e13, u_prev=f.u_prev * 1e13)
        out = step(big)
        assert out.time == big.time + big.dt
        assert math.isfinite(out.peak) and out.peak > 1e12

    def test_instability_detected(self):
        # Overflow to non-finite values, which run records as instability
        # whatever its threshold.
        ex = Exponents(2.0, 2.0, 1)
        state = init_state(ex, smooth_data(), 500, 5.0)
        f = mesh_order(state)
        huge = with_fields(state, u=f.u * 1e200, u_prev=f.u_prev * 1e200)
        assert not math.isfinite(step(huge).peak)

    def test_causal_clip_conserves_mass(self):
        ex = Exponents(2.0, 2.0, 3)
        state = init_state(ex, smooth_data(), 800, 5.0, coupling=False)
        # The shell volumes V_i, scaled alike.
        w = 1.0 / plain_stencil(state)[1]
        f = mesh_order(state)
        before = np.dot(f.v, w)
        drift = np.dot(f.v, w) - np.dot(f.v_prev, w)
        for _ in range(200):
            state = step(state)
        # v is undamped and uncoupled: the mass sum V_i v_i that the
        # stencil conserves grows exactly linearly, clip included.
        expected = before + 200 * drift
        assert np.dot(mesh_order(state).v, w) == pytest.approx(expected, rel=1e-10)


def radial_laplacian_oracle(f, stencil):
    """Oracle: the flux-form radial Laplacian with one temporary per
    sub-expression, instead of written in place."""
    faces, inverse_volumes = stencil[:, :f.size - 1]
    flux = np.concatenate(([0.0], faces * (f[1:] - f[:-1])))
    lap = np.zeros_like(f)
    lap[:-1] = (flux[1:] - flux[:-1]) * inverse_volumes
    return lap


def plain_stencil(state):
    """The stencil rows of the mesh's nodes 0 .. N-1: the second half of
    the mirrored rows."""
    return state.stencil[:, state.r.size:]


def shell_volumes(state):
    """Oracle: |S^{n-1}| V_i, the measure of each node's cell [r_{i-1/2},
    r_{i+1/2}] (the origin's is [0, h/2]), from the radii alone."""
    n = state.exponents.n
    return ball_volume(n) * np.diff((state.r + state.h / 2.0) ** n, prepend=0.0)


def functionals_full_mesh(state):
    """Oracle: the values of ``functionals`` from ``math.fsum`` of the
    whole mesh's volume-weighted terms, each as a pair (value, sum of the
    terms' magnitudes).  dF1 and dF2 are the centred differences that
    the leapfrog identities give, from the level sums and the sources."""
    ex = state.exponents
    vol = shell_volumes(state)
    phi_mesh = phi(state.r, ex.n)
    level = mesh_order(state)
    t, dt = state.time, state.dt

    def integral(f, factor=1.0):
        terms = (f * vol).tolist()
        return factor * math.fsum(terms), factor * math.fsum(map(abs, terms))

    with np.errstate(over="ignore"):
        S1, S2 = (integral(np.abs(f) ** s if state.coupling else 0.0 * f)
                  for f, s in ((level.v, ex.p), (level.u, ex.q)))
    du, dv = integral(level.u - level.u_prev), integral(level.v - level.v_prev)
    return {"F1": integral(level.u), "F2": integral(level.v),
            "F3": integral(level.v * phi_mesh, math.exp(-t)),
            "F4": integral(level.u * phi_mesh, math.exp(-Kind.PSI1.decay_rate * t)),
            "dF1": tuple((d + dt**2 / 2.0 * s) / (dt * (1.0 + dt / 2.0))
                         for d, s in zip(du, S1)),
            "dF2": tuple(d / dt + dt / 2.0 * s for d, s in zip(dv, S2)),
            "int_v_p": S1, "int_u_q": S2}


def functionals_mesh_order(state):
    """Oracle: F1-F4 as numpy sums of the mesh-order products u vol,
    v vol, v phi vol and u phi vol over the nodes inside the causal
    radius, and the sources and rates from the sums of |v|^p vol,
    |u|^q vol and the level changes, with the volumes and phi of the
    mesh's nodes 0 .. N-1 built here in mesh order; the mirrored sums
    must equal these bit for bit."""
    ex = state.exponents
    n = ex.n
    end = state.r.searchsorted(state.time + state.exponents.R + 2.0 * state.h, side="right")
    vol = (sphere_area(n) * state.h ** (n - 2) / plain_stencil(state)[1])[:end]
    phi_w = phi(state.r, n)[:end]
    f = mesh_order(state)
    u, v = f.u[:end], f.v[:end]
    t, dt = state.time, state.dt
    with np.errstate(over="ignore", invalid="ignore"):
        S1, S2 = (float(np.add.reduce(np.abs(g) ** s * vol)) if state.coupling else 0.0
                  for g, s in ((v, ex.p), (u, ex.q)))
        du = float(np.add.reduce((u - f.u_prev[:end]) * vol))
        dv = float(np.add.reduce((v - f.v_prev[:end]) * vol))
        return {"F1": float(np.add.reduce(u * vol)), "F2": float(np.add.reduce(v * vol)),
                "F3": math.exp(-t) * float(np.add.reduce(v * phi_w * vol)),
                "F4": math.exp(-Kind.PSI1.decay_rate * t)
                * float(np.add.reduce(u * phi_w * vol)),
                "dF1": (du + dt**2 / 2.0 * S1) / (dt * (1.0 + dt / 2.0)),
                "dF2": dv / dt + dt / 2.0 * S2, "int_v_p": S1, "int_u_q": S2}


def near_full_mesh(got, want):
    """Every value within 1e-13 of the oracle's sum of term magnitudes."""
    return list(got) == list(want) == list(FUNCTIONALS) and all(
        abs(got[key] - value) <= 1e-13 * scale for key, (value, scale) in want.items())


def weights(ex, times):
    """W2 and W4 at the recorded times, one pass each."""
    return (weighted_power_integral(Kind.PSI2, ex.p / (ex.p - 1.0), times, ex.R, ex.n),
            weighted_power_integral(Kind.PSI1, ex.q / (ex.q - 1.0), times, ex.R, ex.n))


def peaks_full_mesh(state):
    """Oracle: max |u|, max |v| and the support radius as a sample read
    them before the reads were confined to the causal window."""
    f = mesh_order(state)
    mag = np.maximum(np.abs(f.u), np.abs(f.v))
    peak = float(np.max(mag))
    support = float(state.r[np.nonzero(mag > 1e-12 * peak)[0][-1]]) if peak else 0.0
    return float(np.max(np.abs(f.u))), float(np.max(np.abs(f.v))), support


def same_bits(a, b):
    """Equal bit for bit: unlike ==, tells -0.0 from 0.0."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def step_full_mesh(state):
    """Oracle: the leapfrog step computed over the whole mesh.

    This is the step as it was before it was confined to the causal
    window and written in place; the step must reproduce it, and its
    peak, bit for bit.
    """
    dt = state.dt
    ex = state.exponents
    stencil = plain_stencil(state)
    f = mesh_order(state)
    lap_u = radial_laplacian_oracle(f.u, stencil)
    lap_v = radial_laplacian_oracle(f.v, stencil)
    with np.errstate(over="ignore", invalid="ignore"):
        if state.coupling:
            f_u = np.abs(f.v) ** ex.p
            f_v = np.abs(f.u) ** ex.q
        else:
            f_u = 0.0
            f_v = 0.0
        u_next = (2.0 * f.u - (1.0 - 0.5 * dt) * f.u_prev
                  + dt**2 * (lap_u + f_u)) / (1.0 + 0.5 * dt)
        v_next = 2.0 * f.v - f.v_prev + dt**2 * (lap_v + f_v)
    u_next[-1] = 0.0
    v_next[-1] = 0.0

    t_next = state.time + dt
    outside = np.searchsorted(state.r, t_next + ex.R + 2.0 * state.h, side="right")
    if outside < state.r.size:
        edge = outside - 1
        w = 1.0 / stencil[1, edge:]
        u_next[edge] += np.dot(u_next[outside:], w[1:]) / w[0]
        v_next[edge] += np.dot(v_next[outside:], w[1:]) / w[0]
        u_next[outside:] = 0.0
        v_next[outside:] = 0.0
    peak = np.maximum(np.max(np.abs(u_next)), np.max(np.abs(v_next)))
    return with_fields(state, time=t_next, u=u_next, u_prev=f.u,
                       v=v_next, v_prev=f.v, peak=float(peak))


def peak_outcome(peak, blowup_threshold):
    """How ``run`` ends on a step with this peak: instability for a
    non-finite peak, blowup for one above the threshold, else None."""
    if not math.isfinite(peak):
        return "instability"
    return "blowup" if peak > blowup_threshold else None


def step_beside_oracle(state, steps, blowup_threshold=1e12):
    """Advance ``step`` two ways beside the full-mesh oracle: into fresh
    arrays, and, as ``run`` does, into the level two steps back.

    Every step must agree bit for bit, signs of zeros and the peak
    included, and all three must reach the same outcome at the same step.
    Returns the last state and that outcome, or None if none ended.
    """
    oracle = state
    # Steps 2 and 3 write into the first state's levels, so the recycling
    # path starts from a copy and leaves the caller's state as it is.
    recycled = with_fields(state)
    spare = np.zeros(2 * state.r.size)
    for _ in range(steps):
        oracle = step_full_mesh(oracle)
        state = step(state)
        recycled, spare = step(recycled, out=spare), recycled.fields_prev
        outcome = peak_outcome(oracle.peak, blowup_threshold)
        for got in (state, recycled):
            assert got.time == oracle.time
            assert same_bits(got.peak, oracle.peak)
            for name in FIELDS:
                assert same_bits(getattr(mesh_order(got), name),
                                 getattr(mesh_order(oracle), name)), name
            assert peak_outcome(got.peak, blowup_threshold) == outcome
        if outcome is not None:
            return state, outcome
    return state, None


class TestCausalWindow:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("coupling", [True, False])
    @pytest.mark.parametrize("profile", list(Profile))
    def test_matches_full_mesh_step_past_horizon(self, n, coupling, profile):
        ex, cfl = dimension_case(n)
        horizon = 2.0
        state = init_state(ex, InitialData(profile=profile), 250, horizon,
                           cfl_factor=cfl, coupling=coupling)
        # Twenty steps past the horizon the causal radius has left the
        # mesh, so the window has reached the last node and then covered
        # the whole mesh.
        steps = math.ceil(horizon / state.dt) + 20
        state, failure = step_beside_oracle(state, steps)
        assert failure is None
        assert state.time + ex.R + 2.0 * state.h > state.r[-1]

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("threshold, outcome", [
        (1e12, "blowup"),
        (math.inf, "instability"),
    ])
    def test_same_failure_at_same_step(self, n, threshold, outcome):
        ex, cfl = (Exponents(2.0, 2.0, n), 0.5) if n <= 3 else dimension_case(n)
        state = init_state(ex, smooth_data(amplitude=20.0 if n <= 3 else 1e6), 400, 10.0,
                           cfl_factor=cfl)
        last, failure = step_beside_oracle(state, math.ceil(10.0 / state.dt),
                                           blowup_threshold=threshold)
        assert failure == outcome
        # Blow-up comes at T* ~ 0.6 for n <= 3 and by t = 1.5 above, while
        # the window is a small prefix.
        assert last.time < (1.0 if n <= 3 else 1.5)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_drawn_runs_match_full_mesh_step(self, data):
        # Any dimension, either coupling, amplitudes from 0 (uncoupled runs
        # only) to 1e6, driven to blow-up or to a non-finite peak: the
        # step into fresh buffers and into the level two back agree with
        # the full-mesh oracle bit for bit.
        n = data.draw(st.integers(1, 8), label="n")
        coupling = data.draw(st.booleans(), label="coupling")
        amplitude = st.floats(0.0, 1e6, exclude_min=coupling)
        amplitudes = data.draw(st.lists(amplitude, min_size=4, max_size=4), label="amplitudes")
        assume(max(amplitudes) > 0.0)
        ex, cfl = dimension_case(n)
        state = init_state(ex, InitialData(data.draw(st.sampled_from(list(Profile))),
                                           *amplitudes),
                           data.draw(st.integers(200, 400), label="grid"),
                           data.draw(st.floats(0.5, 20.0), label="horizon"),
                           cfl_factor=cfl, coupling=coupling)
        step_beside_oracle(state, data.draw(st.integers(1, 200), label="steps"),
                           blowup_threshold=data.draw(st.sampled_from([1e12, math.inf])))

    def test_input_state_unchanged(self):
        ex = Exponents(2.0, 2.0, 1)
        state = init_state(ex, smooth_data(), 400, 5.0)
        for _ in range(50):
            state = step(state)
        before = {name: view.copy() for name, view in vars(mesh_order(state)).items()}
        out = step(state)
        # Into arrays that hold 0.0 from the causal end on, but not before it.
        halves = (np.full(state.r.size, 7.0), np.full(state.r.size, -7.0))
        end = state.r.searchsorted(state.time + ex.R + 2.0 * state.h, side="right")
        for array in halves:
            array[end:] = 0.0
        dead = mirrored(*halves)
        into = step(state, out=dead)
        for name, view in vars(mesh_order(state)).items():
            assert np.array_equal(view, before[name])
        assert not np.shares_memory(out.fields, state.fields)
        assert not np.shares_memory(out.fields, state.fields_prev)
        assert out.fields.size == 2 * state.r.size
        assert into.fields is dead
        assert into.fields_prev is state.fields
        assert same_bits(into.peak, out.peak)
        for name in FIELDS:
            assert same_bits(getattr(mesh_order(into), name), getattr(mesh_order(out), name)), name

    def test_step_into_out_allocates_no_mesh_array(self):
        # A 16 000-node mesh with a causal window of about 160 nodes.
        # Stepping into the level two steps back allocates window-sized
        # arrays only; a step without ``out`` allocates one buffer of two
        # mesh lengths, which shows the guard sees numpy's allocations.
        state = init_state(Exponents(2.0, 2.0, 1), smooth_data(), 16000, 100.0)
        spare = np.zeros(2 * state.r.size)
        for _ in range(3):
            state, spare = step(state, out=spare), state.fields_prev
        peaks = []
        tracemalloc.start()
        try:
            for kwargs in ({"out": spare}, {}):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                step(state, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[0] < state.r.nbytes < peaks[1]


class TestFullMeshOracles:
    """The in-place Laplacian against its one-temporary-per-expression
    form, and the windowed step and sample reads against the full-mesh
    code they replaced, bit for bit; F1-F4 against exactly rounded sums
    over the whole mesh."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("size", [3, 4, 17, 1000])
    def test_radial_laplacian(self, n, size):
        # Each field of a mirrored pair, over the first m nodes.  The v
        # half is the oracle bit for bit on any input.  The u half takes
        # every flux negated, so it is the oracle bit for bit on fields
        # with no -0.0 and no NaN (as the solver's are), and equal in
        # value, NaN where NaN, on any input.
        rng = np.random.default_rng(1000 * n + size)
        stencil = radial_stencil(size, 3.0 / (size - 1), n)
        plain = stencil[:, size:]
        f = rng.standard_normal(size) * rng.choice([1e-300, 1e-3, 1.0, 1e150], size)
        f[::5] = 0.0
        f[1::7] = -0.0
        extreme = rng.choice([np.inf, -np.inf, np.nan, 1e308, -1e308, 1.0], size)
        with np.errstate(over="ignore", invalid="ignore"):
            for g in (f, f[: max(3, size // 2)], np.zeros(size), -np.zeros(size), extreme):
                m = g.size
                rows = stencil[:, size - m:size + m]
                clean = np.where(np.isnan(g), 1.0, g) + 0.0
                for u, v in ((clean, g), (g, clean)):
                    lap = radial_laplacian(mirrored(u, v), *rows)
                    assert same_bits(lap[m:], radial_laplacian_oracle(v, plain[:, :m]))
                    assert np.array_equal(lap[m - 1::-1], radial_laplacian_oracle(u, plain[:, :m]),
                                          equal_nan=True)
                lap = radial_laplacian(mirrored(clean, clean), *rows)
                want = radial_laplacian_oracle(clean, plain[:, :m])
                assert same_bits(lap[m - 1::-1], want) and same_bits(lap[m:], want)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("coupling", [True, False])
    @pytest.mark.parametrize("profile", list(Profile))
    def test_run_samples(self, n, coupling, profile):
        # Every sample of a run, t = 0 included, against the full-mesh
        # step, sums and reads.
        ex, cfl = dimension_case(n)
        data = InitialData(profile=profile, amplitude_u0=1.5, amplitude_v1=0.5)
        trace = run(ex, data, grid_points=250, horizon=1.0, sample_every=7,
                    cfl_factor=cfl, coupling=coupling)
        state = init_state(ex, data, 250, 1.0, cfl_factor=cfl, coupling=coupling)
        samples = [state]
        n_steps = math.ceil(1.0 / state.dt)
        for k in range(1, n_steps + 1):
            state = step_full_mesh(state)
            if k % 7 == 0 or k == n_steps:
                samples.append(state)
        assert trace.outcome == "completed"
        assert len(samples) == trace.times.size > 20
        for i, s in enumerate(samples):
            got = {key: float(getattr(trace, key)[i]) for key in FUNCTIONALS}
            assert near_full_mesh(got, functionals_full_mesh(s)), s.time
        times = np.array([s.time for s in samples])
        max_u, max_v, support = np.array([peaks_full_mesh(s) for s in samples]).T
        # The weights of the oracle's own recorded times, and J1-J4 as
        # powers of the trace's F3 and F4 and of those weights.
        W2, W4 = weights(ex, times)
        J = [[x ** power for x in base.tolist()]
             for base, power in ((trace.F3, ex.p), (W2, -(ex.p - 1.0)),
                                 (trace.F4, ex.q), (W4, -(ex.q - 1.0)))]
        want = (times, *J, W2, W4, max_u, max_v, support)
        got = (trace.times, trace.J1, trace.J2, trace.J3, trace.J4, trace.W2, trace.W4,
               trace.max_abs_u, trace.max_abs_v, trace.support_r)
        for column, expected in zip(got, want):
            assert same_bits(column, expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("coupling", [True, False])
    @pytest.mark.parametrize("profile", list(Profile))
    def test_as_the_window_reaches_the_last_node(self, n, coupling, profile):
        # The functionals that a sample measures of the fields.
        ex = Exponents(1.5, 2.5, n)
        horizon = 1.0
        state = init_state(ex, InitialData(profile=profile), 250, horizon,
                           coupling=coupling)
        last = state.r[-1]
        reached = []
        # From t = 0 to twenty steps past the horizon; the causal radius
        # passes the last node three cells after the horizon.
        for k in range(math.ceil(horizon / state.dt) + 21):
            if k == 0 or k % 25 == 0 or state.time > horizon - 10.0 * state.h:
                assert near_full_mesh(functionals(state), functionals_full_mesh(state)), state.time
                reached.append(bool(state.time + ex.R + 2.0 * state.h > last))
            state = step(state)
        assert reached[0] is False and reached[-1] is True
        assert reached.count(False) > 5 and reached.count(True) > 5


class TestSupportRadius:
    def test_initial_support(self):
        ex = Exponents(2.0, 2.0, 1)
        state = init_state(ex, smooth_data(), 2000, 5.0)
        assert support_radius(state) <= ex.R

    def test_zero_state(self):
        ex = Exponents(2.0, 2.0, 1)
        state = init_state(ex, smooth_data(), 500, 5.0)
        zero = with_fields(state, u=np.zeros(state.r.size), v=np.zeros(state.r.size))
        assert support_radius(zero) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_state(self, bad):
        ex = Exponents(2.0, 2.0, 1)
        state = init_state(ex, smooth_data(), 500, 5.0)
        v = mesh_order(state).v.copy()
        v[3] = bad
        state = with_fields(state, v=v)
        with pytest.raises(ValueError, match=f"non-finite peak {abs(bad)}"):
            support_radius(state)

    def test_finite_propagation(self):
        ex = Exponents(2.0, 2.0, 1)
        state = init_state(ex, smooth_data(), 600, 5.0)
        for _ in range(300):
            state = step(state)
            # support_radius reads only the causal window, so the whole
            # mesh is checked here.
            outside = state.r > state.time + ex.R + 2.0 * state.h
            assert outside.any()
            f = mesh_order(state)
            assert not f.u[outside].any() and not f.v[outside].any()
            assert support_radius(state) == peaks_full_mesh(state)[2]


class TestFunctionals:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("coupling", [True, False])
    def test_mesh_order_sums_bit_for_bit(self, n, coupling):
        # At every step of a run from a window of eight nodes (R = 0.02 is
        # about six cells) until it covers the whole mesh, F1-F4 equal the
        # mesh-order sums bit for bit.
        ex, cfl = dimension_case(n)
        ex = replace(ex, R=0.02)
        horizon = 1.0
        state = init_state(ex, InitialData(amplitude_u0=1.5, amplitude_v1=0.5), 300, horizon,
                           cfl_factor=cfl, coupling=coupling)
        ends = []
        for _ in range(math.ceil(horizon / state.dt) + 10):
            got, want = functionals(state), functionals_mesh_order(state)
            assert list(got) == list(want)
            assert all(same_bits(got[key], want[key]) for key in want), (state.time, got, want)
            ends.append(state.causal_window.stop - state.r.size)
            state = step(state)
        assert ends[0] == 8 and ends[-1] == state.r.size

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

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("coupling", [True, False])
    def test_discrete_mass_identity(self, n, coupling):
        # Summed over the cells, the stencil's fluxes cancel, so the
        # leapfrog levels of F1 and F2 satisfy the discrete F1'' + F1' =
        # int |v|^p and F2'' = int |u|^q exactly, up to rounding:
        #   F1^{k+1} (1 + dt/2) - 2 F1^k + (1 - dt/2) F1^{k-1} = dt^2 sum V |v^k|^p,
        #   F2^{k+1} - 2 F2^k + F2^{k-1} = dt^2 sum V |u^k|^q.
        # The sources that functionals records are these sums (0 in an
        # uncoupled run), and its dF1 and dF2 the centred differences
        # (F^{k+1} - F^{k-1}) / (2 dt) of the levels.
        ex = Exponents(4.0 / 3.0, 4.0 / 3.0, n)
        state = init_state(ex, smooth_data(), 600, 10.0, cfl_factor=0.45, coupling=coupling)
        vol = shell_volumes(state)
        dt = state.dt
        F, sources = [], []
        for _ in range(401):
            level = mesh_order(state)
            sources.append([math.fsum((vol * np.abs(f) ** s).tolist()) if coupling else 0.0
                            for f, s in ((level.v, ex.p), (level.u, ex.q))])
            F.append(functionals(state))
            state = step(state)
        F1, F2, dF1, dF2, S1, S2 = (np.array([f[key] for f in F]) for key in
                                    ("F1", "F2", "dF1", "dF2", "int_v_p", "int_u_q"))
        oracle1, oracle2 = np.array(sources).T
        assert np.all(np.abs(S1 - oracle1) <= 1e-14 * oracle1)
        assert np.all(np.abs(S2 - oracle2) <= 1e-14 * oracle2)
        assert bool(np.all(S1 > 0.0)) == bool(np.all(S2 > 0.0)) == coupling
        residual1 = F1[2:] * (1.0 + dt / 2.0) - 2.0 * F1[1:-1] + (1.0 - dt / 2.0) * F1[:-2] \
            - dt**2 * S1[1:-1]
        residual2 = F2[2:] - 2.0 * F2[1:-1] + F2[:-2] - dt**2 * S2[1:-1]
        assert np.max(np.abs(residual1)) <= 1e-13 * np.max(F1)
        assert np.max(np.abs(residual2)) <= 1e-13 * np.max(F2)
        # Relative to the largest rate: uncoupled, dF1 decays as e^{-t}
        # while the levels' rounding does not (at most 8.8e-13, n = 8).
        for rate, level in ((dF1, F1), (dF2, F2)):
            centred = (level[2:] - level[:-2]) / (2.0 * dt)
            assert np.max(np.abs(rate[1:-1] - centred)) <= 1e-12 * np.max(np.abs(rate))
        # At t = 0 the backward level is the seed's Taylor level, so the
        # rates are int u1 and int v1, here equal to F1 and F2.
        assert dF1[0] == pytest.approx(F1[0], rel=1e-12)
        assert dF2[0] == pytest.approx(F2[0], rel=1e-12)

    def test_j_columns_are_powers(self):
        # A run derives W2 and W4 in one pass over its recorded times, and
        # J1-J4 as the float64 powers of its F3, W2, F4 and W4 columns.
        ex = Exponents(2.0, 3.0, 1)
        trace = run(ex, smooth_data(), grid_points=400, horizon=2.0, sample_every=5)
        assert trace.times.size > 20
        W2, W4 = weights(ex, trace.times)
        assert same_bits(trace.W2, W2) and same_bits(trace.W4, W4)
        for J, base, power in ((trace.J1, trace.F3, ex.p),
                               (trace.J2, trace.W2, -(ex.p - 1.0)),
                               (trace.J3, trace.F4, ex.q),
                               (trace.J4, trace.W4, -(ex.q - 1.0))):
            assert same_bits(J, [np.float64(x) ** power for x in base])


class TestRun:
    def test_trace_shapes_and_csv(self, tmp_path):
        ex = Exponents(2.0, 2.0, 1)
        trace = run(ex, smooth_data(), grid_points=400, horizon=2.0,
                    sample_every=5)
        m = trace.times.size
        for col in (trace.F1, trace.F2, trace.F3, trace.F4, trace.J1,
                    trace.J2, trace.J3, trace.J4, trace.max_abs_u,
                    trace.max_abs_v, trace.support_r):
            assert col.shape == (m,)
        assert np.all(np.diff(trace.times) > 0.0)
        doc = {"p": 2.0, "q": 2.0, "n": 1, "grid_points": 400, "horizon": 2.0,
               "sample_every": 5}
        run_experiment(parse_config(json.dumps(doc), mode="simulate"), tmp_path)
        rows = (tmp_path / "trace.csv").read_text().splitlines()
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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_adjoint_identities_uncoupled(self, n):
        # psi2 and psi1 solve the adjoint equations, so in a linear run
        # e^t F3 = G0 cosh t + G1 sinh t and F4 = a + b e^{-sqrt(5) t},
        # with a + b = H0, l+ a + l- b = H1, l+- = (-1 +- sqrt(5))/2,
        # G_j = int v_j phi and H_j = int u_j phi.  The discrete error
        # falls under refinement.  For n <= 3 it is at most 8.6e-5
        # relative at grid 1000.  From n = 4 the coarse error grows with
        # n, to 1.6e-2 for n = 8, and at grid 2000 it is at most 1.5e-3.
        lp, lm = (-1.0 + math.sqrt(5.0)) / 2.0, (-1.0 - math.sqrt(5.0)) / 2.0
        errors = []
        for grid in (1000, 2000):
            # p and q do not enter F3 and F4 of an uncoupled run; these lie
            # in the theorem range of every dimension.
            trace = run(Exponents(4.0 / 3.0, 4.0 / 3.0, n), smooth_data(), grid_points=grid,
                        horizon=10.0, cfl_factor=0.45, coupling=False)
            t, di = trace.times, trace.data_integrals
            b = (di["int_phi_u1"] - lp * di["int_phi_u0"]) / (lm - lp)
            F3 = np.exp(-t) * (di["int_phi_v0"] * np.cosh(t) + di["int_phi_v1"] * np.sinh(t))
            F4 = di["int_phi_u0"] - b + b * np.exp(-math.sqrt(5.0) * t)
            errors.append([np.max(np.abs(trace.F3 / F3 - 1.0)),
                           np.max(np.abs(trace.F4 / F4 - 1.0))])
        coarse, fine = errors
        assert max(coarse) <= 2e-4 if n <= 3 else max(fine) <= 2e-3
        assert fine[0] < coarse[0] and fine[1] < coarse[1]

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
        with pytest.raises(ValueError, match=r"^sample_every=0 must be >= 1$"):
            run(Exponents(2.0, 2.0, 1), smooth_data(), grid_points=400,
                horizon=1.0, sample_every=0)

    def test_sign_loss_is_instability(self):
        # h = 0.99 > R = 0.5: the data sit on the origin node alone, and
        # in n = 8 F3 goes negative (first at t = 36.61, -3.9e-7, and
        # -2.1e-4 at the sample t = 40.2, with a peak of 0.12), so F3 ** p
        # would be complex.  The run ends at the first such sample and
        # keeps only the 9 samples before it.
        ex = Exponents(4.0 / 3.0, 4.0 / 3.0, 8, R=0.5)
        data = smooth_data(amplitude=0.1)
        trace = run(ex, data, grid_points=200, horizon=192.0, cfl_factor=0.45)
        assert trace.outcome == "instability"
        assert trace.blowup_time is None
        assert trace.times.size >= 1
        columns = np.array([trace.F1, trace.F2, trace.F3, trace.F4, trace.J1,
                            trace.J2, trace.J3, trace.J4])
        assert columns.dtype == np.float64
        assert np.all(np.isfinite(columns)) and np.all(columns[:4] >= 0.0)
        # The next sample, the one that ended the run, has a negative F.
        state = init_state(ex, data, 200, horizon=192.0, cfl_factor=0.45)
        for _ in range(10 * trace.times.size):
            state = step(state)
        f = functionals(state)
        assert min(f["F1"], f["F2"], f["F3"], f["F4"]) < 0.0

    @pytest.mark.parametrize("n", [1, 3])
    def test_signed_rate_is_not_instability(self, n):
        # Only F1-F4 decide rule 4.  Uncoupled from u1 = 0, F1' = 0, so
        # the recorded dF1 is rounding of either sign, and the run
        # completes with its negative samples.
        data = InitialData(amplitude_u0=1.0, amplitude_u1=0.0, amplitude_v0=1.0,
                           amplitude_v1=0.0)
        trace = run(Exponents(2.0, 2.0, n), data, grid_points=400, horizon=2.0,
                    sample_every=1, coupling=False)
        assert trace.outcome == "completed"
        assert np.min(trace.dF1) < 0.0 and np.max(np.abs(trace.dF1)) < 1e-12

    @pytest.mark.parametrize("amplitude, threshold", [(1e13, 1e12), (1.0, 0.5)])
    def test_data_above_threshold_blow_up_at_t0(self, amplitude, threshold):
        # The initial peak is the amplitude, at the origin.
        trace = run(Exponents(2.0, 2.0, 1), smooth_data(amplitude=amplitude),
                    grid_points=250, horizon=2.0, blowup_threshold=threshold)
        assert trace.outcome == "blowup"
        assert trace.blowup_time == 0.0
        assert trace.times.tolist() == [0.0]
        assert trace.max_abs_u.tolist() == [amplitude]

    def test_powers_beyond_the_float_range_are_inf(self):
        # |v0|^p = 1e400 in the seed level and F3^p, F4^q in J1, J3 leave
        # the float range.  Each saturates to inf without a RuntimeWarning
        # (which the test configuration makes an error), and the data,
        # above the threshold, blow up at t = 0.
        trace = run(Exponents(2.0, 2.0, 1), smooth_data(amplitude=1e200),
                    grid_points=400, horizon=2.0)
        assert trace.outcome == "blowup" and trace.blowup_time == 0.0
        assert trace.J1.tolist() == trace.J3.tolist() == [math.inf]
        for column in (trace.F1, trace.F2, trace.F3, trace.F4, trace.J2,
                       trace.J4, trace.W2, trace.W4, trace.max_abs_u):
            assert np.all(np.isfinite(column))

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, math.nan])
    def test_blowup_threshold_validation(self, threshold):
        # A threshold of 0 or below would record blow-up at t = 0 for
        # every datum.
        with pytest.raises(ValueError, match="blowup_threshold"):
            run(Exponents(2.0, 2.0, 1), smooth_data(), grid_points=400,
                horizon=1.0, blowup_threshold=threshold)

    def test_array_fields_hold_the_first_sample_in_order(self):
        # Distinct amplitudes and p != q make every field of the first
        # sample distinct, so a swap of two array fields cannot go unseen.
        ex = Exponents(2.0, 3.0, 1)
        data = InitialData(amplitude_u0=1.0, amplitude_u1=2.0,
                           amplitude_v0=3.0, amplitude_v1=4.0)
        trace = run(ex, data, grid_points=300, horizon=0.5, sample_every=5)
        state0 = init_state(ex, data, 300, 0.5)
        f = functionals(state0)
        W2, W4 = (float(w[0]) for w in weights(ex, trace.times))
        want = {"times": 0.0, **f,
                "J1": f["F3"] ** ex.p, "J2": W2 ** (-(ex.p - 1.0)),
                "J3": f["F4"] ** ex.q, "J4": W4 ** (-(ex.q - 1.0)),
                "W2": W2, "W4": W4,
                "max_abs_u": float(np.max(np.abs(mesh_order(state0).u))),
                "max_abs_v": float(np.max(np.abs(mesh_order(state0).v))),
                "support_r": support_radius(state0)}
        arrays = [f.name for f in fields(trace)
                  if isinstance(getattr(trace, f.name), np.ndarray)]
        assert arrays == list(want)
        assert tuple(getattr(trace, name)[0] for name in arrays) == \
            tuple(want.values())
        assert len(set(want.values())) == len(want) == 18

    def test_same_bytes_on_one_blas_thread(self):
        # OpenBLAS splits a dot of more than 10 000 elements across its
        # threads, which rounds differently.  With R = 10 the causal window
        # holds 11 400 of 12 000 nodes from t = 0, so every sum of this run
        # is that long; the run and its audit must not depend on the
        # thread count.
        code = ("from dataclasses import asdict\n"
                "from blowlab.exponents import Exponents\n"
                "from blowlab.pde import AMPLITUDE_KEYS, InitialData, audit_inequalities, run\n"
                "ex = Exponents(2.0, 2.0, 1, R=10.0)\n"
                "data = InitialData(**dict.fromkeys(AMPLITUDE_KEYS, 0.01))\n"
                "trace = run(ex, data, grid_points=12000, horizon=0.05, sample_every=5)\n"
                "for value in [*vars(trace).values(), asdict(audit_inequalities(trace, ex))]:\n"
                "    print(value.tobytes().hex() if hasattr(value, 'tobytes') else repr(value))\n")
        src = str(Path(blowlab.__file__).resolve().parents[1])
        caps = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {key: value for key, value in os.environ.items() if key not in caps}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  check=True, env={**env, **extra}).stdout
                   for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"})]
        assert outputs[0] == outputs[1] != ""


class TestCflLimits:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_limit_from_stencil_spectrum(self, n):
        # Leapfrog on u'' = L u is stable for dt^2 rho(L) <= 4, so the CFL
        # factor limit is 2/sqrt(rho) with rho the spectral radius of
        # h^2 L, the radial stencil on nodes 0 .. N-2 (the outer node is
        # held at 0).  The spectrum is real, and each constant lies just
        # below the limit, at any N.
        for size in (200, 400):
            h = 1.0 / (size - 1)
            stencil = radial_stencil(size, h, n)
            # Each unit vector as the v half of a pair whose u half is 0.
            matrix = np.column_stack([radial_laplacian(mirrored(0.0 * e, e), *stencil)[size:]
                                      for e in np.eye(size)]) * h**2
            eigenvalues = np.linalg.eigvals(matrix[:-1, :-1])
            assert np.max(np.abs(eigenvalues.imag)) <= 1e-9
            limit = 2.0 / math.sqrt(np.max(np.abs(eigenvalues)))
            assert limit - 1e-4 < CFL_LIMITS[n] < limit

    @pytest.mark.parametrize("n, horizon", [(1, 340.0), (2, 340.0), (3, 340.0), (4, 340.0),
                                            (5, 170.0), (6, 80.0), (7, 30.0), (8, 15.0)])
    def test_uncoupled_run_at_the_limit_completes(self, n, horizon):
        # Above the limit the scheme grows without bound: 0.0002 above it
        # this run would report blow-up at t = 109, 102, 38.8, 15.4, 5.45
        # and 2.72 for n = 1, 2, 5, 6, 7 and 8, and lose F3's sign at
        # t = 45 and 48 for n = 3 and 4.  From n = 5 the powers are 4/3,
        # inside the theorem range, and the horizon keeps s'(t + R) inside
        # the weight guard.  From n = 6 it also ends before F3 loses its
        # sign, as it does on long runs (at t = 92 in n = 6 and t = 17 in
        # n = 8 at horizon 170), and the peak rises above the data's as
        # the wave focuses on the origin, to 3.6 in n = 8.
        ex = Exponents(2.0, 2.0, n) if n <= 4 else Exponents(4.0 / 3.0, 4.0 / 3.0, n)
        trace = run(ex, smooth_data(amplitude=0.3), grid_points=3000,
                    horizon=horizon, sample_every=100, cfl_factor=CFL_LIMITS[n],
                    coupling=False)
        assert trace.outcome == "completed"
        assert max(trace.max_abs_u.max(), trace.max_abs_v.max()) < (1.0 if n <= 7 else 4.0)


@pytest.fixture(scope="module")
def reference():
    ex = Exponents(2.0, 2.0, 1)
    trace = run(ex, smooth_data(amplitude=5.0), grid_points=800, horizon=10.0)
    return ex, trace


@pytest.fixture(scope="module")
def reference_n2():
    ex = Exponents(1.7, 2.5, 2)
    trace = run(ex, smooth_data(), grid_points=400, horizon=5.0)
    return ex, trace


class TestAudit:
    def test_all_inequalities_hold(self, reference):
        ex, trace = reference
        report = audit_inequalities(trace, ex)
        assert isinstance(report, AuditReport)
        assert report.all_pass
        names = [r.name for r in report.inequalities]
        assert names == ["F1_lower", "F1_first_order", "F1_second_order",
                         "F2_lower", "F2_second_order"]
        for rec in report.inequalities:
            assert rec.margin_min >= -1e-9 * rec.scale

    def test_constants_positive_and_consistent(self, reference):
        ex, trace = reference
        report = audit_inequalities(trace, ex)
        c = report.constants
        assert all(v > 0.0 for v in c.values())
        # C3 is determined by C0, C2 and the dimension weights.
        growth = 4.0 * (2.0 + (2.0 - ex.p) * (ex.n - 1))
        assert c["C3"] == pytest.approx(
            c["C0"] ** ex.p * c["C2"] ** (-(ex.p - 1.0)) / growth, rel=1e-12)

    @pytest.mark.parametrize("trace_fixture", ["reference", "reference_n2"])
    def test_audits_the_kato_system(self, trace_fixture, request):
        # The five audited bounds are the comparison system that kato
        # integrates, with k0..k4 = C3, 4 C3, the two Hoelder floors and 1.
        # The n = 2 trace tells the weights apart: at p = q = 2, n = 1
        # alpha1, alpha2, beta1 and beta2 are all 1.
        ex, trace = request.getfixturevalue(trace_fixture)
        report = audit_inequalities(trace, ex)
        c = report.constants
        kp = derive_params(ex, {"C3": c["C3"],
                                "k2": ball_volume(ex.n) ** (1.0 - ex.p),
                                "k4": ball_volume(ex.n) ** (1.0 - ex.q)})
        assert c["C3"] == (c["C0"]**ex.p * c["C2"] ** (-(ex.p - 1.0))
                           / (8.0 * kp.alpha1))
        assert [rec.constant for rec in report.inequalities] == \
            [kp.k0, kp.k1, kp.k2, kp.k3, kp.k4]
        # The left sides are the recorded identities: F1'' + F1' and F2''
        # are the sources int |v|^p and int |u|^q.
        t, F1, F2 = trace.times, trace.F1, trace.F2
        s = t + kp.R
        lhs = [F1, trace.dF1 + F1, trace.int_v_p, F2, trace.int_u_q]
        rhs = [kp.k0 * s**kp.alpha1,
               kp.k1 * s**kp.alpha1,
               kp.k2 * (s**-kp.alpha2 * F2**kp.p),
               kp.k3 * s**kp.beta1,
               kp.k4 * (np.exp(-kp.beta3 * t) * s**-kp.beta2 * F1**kp.q)]
        assert report.window[1] == t[-1]
        window = t >= report.window[0]
        assert window.sum() > 10
        for rec, lower, upper in zip(report.inequalities, lhs, rhs):
            assert rec.margin_min == np.min((lower - upper)[window]), rec.name

    def test_fitted_constants_skip_underflowed_shapes(self, reference):
        # Where F1 = 1e-200, F1^q and with it the F2 second-order shape
        # underflow to 0.  k4 is the least ratio over the other window
        # samples, and None when no window sample is left.
        ex, trace = reference
        t = trace.times
        base = audit_inequalities(trace, ex)
        start, end = base.window
        window = (t >= start) & (t <= end)
        late = t > np.median(t[window])
        w = derive_params(ex)
        for kept in (late, np.zeros_like(late)):
            F1 = np.where(kept, trace.F1, 1e-200)
            report = audit_inequalities(replace(trace, F1=F1), ex)
            assert report.window == (start, end)
            shape = np.exp(-w.beta3 * t) * (t + ex.R) ** -w.beta2 * F1**ex.q
            assert np.all(shape[window & ~kept] == 0.0)
            if kept.any():
                keep = window & kept
                assert report.constants["k4"] == np.min(trace.int_u_q[keep] / shape[keep])
            else:
                assert report.constants["k4"] is None
            # F2 and int |v|^p are untouched, so k2, their least ratio over
            # the whole window, is the unchanged trace's.
            assert report.constants["k2"] == base.constants["k2"] > 0.0

    def test_fitted_k_of_a_zero_source_is_null(self, reference):
        # A source of 0 over the window gives the least ratio 0, which
        # the comparison system rejects as k4: it reads null, and the
        # record fails, while k2 keeps its value.
        ex, trace = reference
        base = audit_inequalities(trace, ex)
        window = trace.times >= base.window[0]
        report = audit_inequalities(
            replace(trace, int_u_q=np.where(window, 0.0, trace.int_u_q)), ex)
        assert report.constants["k4"] is None
        assert report.constants["k2"] == base.constants["k2"] > 0.0
        assert not report.inequalities[4].passed and report.inequalities[2].passed

    def test_min_passing_T0_reported(self, reference):
        ex, trace = reference
        report = audit_inequalities(trace, ex)
        assert report.min_passing_T0 is not None
        assert 0.0 <= report.min_passing_T0 <= report.window[0]

    @pytest.mark.parametrize("samples, T0_fraction",
                             [(None, 0.3), (None, 0.999999), (1, 0.3), (2, 0.3), (3, 0.3)])
    def test_window_ends_at_the_last_sample(self, reference, samples, T0_fraction):
        # T0 = T0_fraction t[-1] lies below t[-1], or at t[-1] = 0 for a
        # one-sample trace, so the window runs through the last sample
        # and is never empty: every trace is audited, however short.
        ex, trace = reference
        if samples is not None:
            trace = replace(trace, **{f.name: getattr(trace, f.name)[:samples]
                                      for f in fields(trace)
                                      if isinstance(getattr(trace, f.name), np.ndarray)})
        t = trace.times
        report = audit_inequalities(trace, ex, T0_fraction=T0_fraction)
        assert not report.inconclusive and len(report.inequalities) == 5
        assert report.window == (float(t[t >= T0_fraction * t[-1]][0]), float(t[-1]))

    def test_C3_beyond_float_range_is_inconclusive(self):
        # C0 = 2.6e200, so C0^p leaves the float range: the audit says so
        # in its note, with C3 None, instead of raising OverflowError.
        ex = Exponents(2.0, 2.0, 1)
        trace = run(ex, smooth_data(1e200), grid_points=400, horizon=2.0)
        report = audit_inequalities(trace, ex)
        assert report.constants["C3"] is None and math.isfinite(report.constants["C0"])
        assert report.inconclusive and report.inequalities == []
        assert report.note == ("C3 = C0^p C2^{-(p-1)} / (8 alpha1) leaves the "
                               "float range")

    def test_instability_rejected(self, reference):
        ex, trace = reference
        broken = replace(trace, outcome="instability")
        with pytest.raises(ValueError, match="unstable"):
            audit_inequalities(broken, ex)

    def test_t0_fraction_domain(self, reference):
        ex, trace = reference
        for value in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match=rf"^T0_fraction={value} must lie in \(0, 1\)$"):
                audit_inequalities(trace, ex, T0_fraction=value)
