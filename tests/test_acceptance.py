"""Acceptance gate: ten criteria, one pass/fail line each.

Every criterion is checked at its stated tolerance against an
independent oracle (closed forms, scipy adaptive integration, or exact
algebraic identities); the expensive simulations are shared through
module-scoped fixtures.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from blowlab.comparison import (
    derive_params,
    integrate_comparison,
    reduction_equiv_check,
    y_blowup_time,
    z_blowup_time,
)
from blowlab.criticality import Label, classify, scan
from blowlab.exponents import Exponents
from blowlab.pde import (
    InitialData,
    Profile,
    audit_inequalities,
    init_state,
    run,
)
from blowlab.testfuncs import TestFunctionKind as Kind
from blowlab.testfuncs import (
    phi,
    phi_asymptotic,
    phi_quadrature,
    sphere_area,
    verify_wave_identity,
)

RNG = np.random.default_rng(20260823)


@pytest.fixture
def report(capsys):
    """One pass/fail line per criterion, emitted past output capture."""

    def _report(number: int, ok: bool, text: str) -> bool:
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {text}")
        return ok

    return _report


def uniform_data(amplitude: float) -> InitialData:
    return InitialData(profile=Profile.SMOOTH_BUMP,
                       amplitude_u0=amplitude, amplitude_u1=amplitude,
                       amplitude_v0=amplitude, amplitude_v1=amplitude)


@pytest.fixture(scope="module")
def uncoupled_traces():
    """Coupling-off runs for both supported dimensions at the reference
    grid and at the doubled grid (which halves both h and dt)."""
    out = {}
    for n in (1, 3):
        ex = Exponents(2.0, 2.0, n, 1.0)
        for gp in (2000, 4000):
            out[(n, gp)] = (ex, run(ex, uniform_data(1.0), grid_points=gp,
                                    horizon=10.0, cfl_factor=0.5,
                                    coupling=False))
    return out


@pytest.fixture(scope="module")
def audit_run():
    ex = Exponents(2.0, 2.0, 1, 1.0)
    trace = run(ex, uniform_data(5.0), grid_points=2000, horizon=10.0,
                cfl_factor=0.5)
    return ex, trace, audit_inequalities(trace, ex)


@pytest.fixture(scope="module")
def coupled_traces():
    ex = Exponents(2.0, 2.0, 1, 1.0)
    return {amp: run(ex, uniform_data(amp), grid_points=2000, horizon=10.0,
                     cfl_factor=0.5)
            for amp in (10.0, 20.0, 50.0)}


def test_criterion_01_reduction_identity_suite(report):
    checked = 0
    ok = True
    while checked < 10_000:
        p = float(RNG.uniform(1.0, 5.0))
        q = float(RNG.uniform(1.0, 5.0))
        if p <= 1.0 or q <= 1.0:
            continue
        n = int(RNG.integers(1, 9))
        if 1.0 + (2.0 - p) / 2.0 * (n - 1) <= 0.0:
            continue
        if not reduction_equiv_check(p, q, n):
            ok = False
            break
        checked += 1
    assert report(1, ok, f"reduction identity holds on {checked} random "
                  "(p, q, n) draws at 1e-9")


def test_criterion_02_phi_oracle_agreement(report):
    r = np.linspace(0.0, 20.0, 200)
    worst = 0.0
    for n, closed in ((1, 2.0 * np.cosh(r)),
                      (3, np.array([4.0 * math.pi * math.sinh(x) / x if x > 0
                                    else 4.0 * math.pi for x in r]))):
        by_quad = np.array([phi_quadrature(float(x), n) for x in r])
        worst = max(worst, float(np.max(np.abs(by_quad / closed - 1.0))))
    ratios = [phi(30.0, n) / phi_asymptotic(30.0, n) for n in (1, 2, 3)]
    ok = worst <= 1e-8 and all(0.99 <= x <= 1.01 for x in ratios)
    assert report(2, ok, f"phi quadrature vs closed forms (max rel err "
                  f"{worst:.2e} <= 1e-8), asymptotic ratios at r=30 in "
                  "[0.99, 1.01]")


def test_criterion_03_wave_identity_convergence(report):
    h = 0.02
    ratios = {}
    for kind in Kind:
        for n in (1, 3):
            ratios[(kind.value, n)] = (verify_wave_identity(kind, n, h)
                                       / verify_wave_identity(kind, n, h / 2))
    d = Kind.PSI1.decay_rate
    eig = abs(d * d + d - 1.0)
    ok = all(3.5 <= x <= 4.5 for x in ratios.values()) and eig <= 1e-15
    assert report(3, ok, "residual ratios h/(h/2) all in [3.5, 4.5] "
                  f"({', '.join(f'{v:.3f}' for v in ratios.values())}); "
                  f"eigenvalue identity residual {eig:.1e}")


def test_criterion_04_mass_ode_exactness(report, uncoupled_traces):
    # Models: F1(t) = F1(0) + (1 - e^{-t}) F1'(0), F2(t) = F2(0) + t F2'(0),
    # with the initial slopes computed from the sampled data.
    errors = {}
    ok = True
    for (n, gp), (ex, trace) in uncoupled_traces.items():
        state = init_state(ex, uniform_data(1.0), gp, 10.0, coupling=False)
        w = state.r ** (n - 1)
        surf = sphere_area(n)
        u0, u1, v0, v1 = uniform_data(1.0).sample(state.r, ex.R)
        mass = lambda f: surf * float(np.trapezoid(f * w, dx=state.h))
        t = trace.times
        model1 = mass(u0) + (1.0 - np.exp(-t)) * mass(u1)
        model2 = mass(v0) + t * mass(v1)
        e1 = float(np.max(np.abs(trace.F1 - model1)) / np.max(np.abs(model1)))
        e2 = float(np.max(np.abs(trace.F2 - model2)) / np.max(np.abs(model2)))
        errors[(n, gp)] = max(e1, e2)
        if gp == 2000:
            ok = ok and errors[(n, gp)] <= 1e-3
    for n in (1, 3):
        ok = ok and errors[(n, 2000)] >= 4.0 * errors[(n, 4000)]
    msg = ", ".join(f"n={n} gp={gp}: {e:.2e}" for (n, gp), e in errors.items())
    assert report(4, ok, f"uncoupled mass-ODE errors ({msg}); <= 1e-3 at the "
                  "reference grid and 4x smaller when dt halves")


def test_criterion_05_finite_propagation(report, uncoupled_traces, audit_run,
                                         coupled_traces):
    traces = [(ex, tr) for (ex, tr) in uncoupled_traces.values()]
    traces.append((audit_run[0], audit_run[1]))
    traces += [(Exponents(2.0, 2.0, 1, 1.0), tr)
               for tr in coupled_traces.values()]
    checked = 0
    for ex, trace in traces:
        bound = trace.times + ex.R + 2.0 * trace.h
        assert np.all(trace.support_r <= bound)
        checked += trace.times.size
    assert report(5, True, f"support_radius <= t + R + 2h on all "
                  f"{len(traces)} acceptance runs ({checked} samples)")


def test_criterion_06_inequality_audit(report, audit_run):
    _, _, rep = audit_run
    margins = {r.name: r.margin_min for r in rep.inequalities}
    ok = rep.all_pass and rep.min_passing_T0 is not None
    assert report(6, ok, "all five functional inequalities hold on "
                  f"[{rep.window[0]:.2f}, {rep.window[1]:.2f}] "
                  f"(min margins {min(margins.values()):.2e}); minimal "
                  f"passing T0 = {rep.min_passing_T0:.4f}")


def test_criterion_07_closed_form_blowup_times(report):
    targets = [
        ("Y'=Y^2", y_blowup_time(1.0, 0.0, 0.0, 2.0, 1.0, 0.0, 1.0), 1.0,
         lambda t, y: [y[0] ** 2], 1.0),
        ("Y damped", y_blowup_time(2.0, 1.0, 0.0, 2.0, 1.0, 0.0, 1.0),
         math.log(2.0),
         lambda t, y: [2.0 * math.exp(-t) * y[0] ** 2], 1.0),
        ("Z", z_blowup_time(10.0, 0.0, 0.0, 2.0, 1.0, 0.0, 1.0),
         math.log(10.0 / 9.0),
         lambda t, z: [10.0 * z[0] ** 2 - z[0]], 1.0),
    ]
    ok = True
    details = []
    for name, got, exact, rhs, y0 in targets:
        closed_ok = got is not None and abs(got - exact) <= 1e-9

        def event(t, y):
            return y[0] - 1e12
        event.terminal = True
        sol = solve_ivp(rhs, (0.0, 2.0 * exact), [y0], events=event,
                        rtol=1e-10, atol=1e-12)
        event_ok = (sol.status == 1
                    and abs(float(sol.t_events[0][0]) - exact) <= 1e-4 * exact)
        ok = ok and closed_ok and event_ok
        details.append(f"{name}: {got:.9f} vs {exact:.9f}")
    assert report(7, ok, "closed-form blow-up times exact to 1e-9 and "
                  f"matched by ODE events to 1e-4 ({'; '.join(details)})")


def test_criterion_08_comparison_system_blowup(report, audit_run):
    from dataclasses import replace

    _, _, rep = audit_run
    params = derive_params(Exponents(2.0, 2.0, 1, 1.0),
                           {key: rep.constants[key] for key in ("C3", "k2", "k4")})
    t1 = integrate_comparison(params, 1e3, 1e2, 1e3, 1e2, horizon=50.0)
    t2 = integrate_comparison(params, 2e3, 2e2, 2e3, 2e2, horizon=50.0)
    damped = replace(params, beta3=1e3)
    t3 = integrate_comparison(damped, 1.0, 0.1, 1.0, 0.1, horizon=50.0)
    ok = (t1.outcome == "blowup"
          and t2.outcome == "blowup"
          and t2.blowup_time < t1.blowup_time
          and t3.outcome == "horizon")
    assert report(8, ok, "comparison system blows up at "
                  f"T*={t1.blowup_time:.4f} (doubled data: "
                  f"{t2.blowup_time:.4f}); beta3=1e3 run reaches the horizon")


def test_criterion_09_region_map_facts(report):
    grid = scan((1.1, 10.0), (1.1, 10.0), 1, 100)
    cells = [c for row in grid for c in row]
    frac = sum(bool(c["label_new"]) for c in cells) / len(cells)
    boundary = classify(2.0, 2.0, 3)
    ok = (frac == 1.0
          and boundary.label_new is Label.BLOW_UP
          and boundary.alpha_new == 1.0
          and boundary.threshold_wavelike == 1.0)
    assert report(9, ok, f"n=1 scan: label_new BlowUp on {100 * frac:.1f}% of "
                  "10000 cells; (2,2,3) sits exactly on the boundary "
                  "alpha = 1 and classifies BlowUp")


def test_criterion_10_pde_blowup_monotone(report, coupled_traces):
    times = []
    ok = True
    for amp in (10.0, 20.0, 50.0):
        trace = coupled_traces[amp]
        ok = ok and trace.outcome == "blowup" and trace.blowup_time < 10.0
        times.append(trace.blowup_time)
    ok = ok and times[0] > times[1] > times[2]
    assert report(10, ok, "coupled runs blow up before t=10 with monotone "
                  f"times {times[0]:.3f} > {times[1]:.3f} > {times[2]:.3f} "
                  "over amplitudes 10, 20, 50")
