"""Tests for the comparison-inequality engine.

The closed-form Bernoulli solutions are validated against a
high-accuracy scipy adaptive integration oracle of the same ODEs; the
blow-up times against hand-computed brackets (Y' = Y^2 from 1 blows up
at t = 1; with weight 2 e^{-t} the bracket 1 - 2(1 - e^{-t}) vanishes
at ln 2; the damped Z case with kappa = 10 vanishes at ln(10/9)).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from blowlab.comparison import (
    KatoParams,
    TerminalReason,
    check_conditions,
    derive_params,
    integrate_comparison,
    y_blowup_time,
    y_closed_form,
    z_blowup_time,
    z_closed_form,
)
from blowlab.exponents import Exponents

RNG = np.random.default_rng(20260823)


def default_params(**overrides):
    base = dict(p=2.0, q=2.0, alpha1=1.0, alpha2=1.0, beta1=1.0,
                beta2=1.0, beta3=1.0)
    base.update(overrides)
    return KatoParams(**base)


class TestKatoParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            default_params(p=1.0)
        with pytest.raises(ValueError):
            default_params(alpha1=0.0)
        with pytest.raises(ValueError):
            default_params(beta2=-0.1)
        with pytest.raises(ValueError):
            default_params(k2=0.0)
        with pytest.raises(ValueError):
            default_params(T0=-1.0)

    def test_k5_frozen_value(self):
        # (2q+1) k2^q k4 / (2((p+2)q+1)(4(p+1)(p+2))^q) at p = q = 2,
        # unit k's: 5 / (2 * 9 * 48^2) = 5/41472.
        params = default_params()
        assert params.k5 == pytest.approx(5.0 / 41472.0, rel=1e-14)

    def test_k5_scaling(self):
        base = default_params()
        scaled = default_params(k2=2.0, k4=3.0)
        assert scaled.k5 == pytest.approx(2.0 ** base.q * 3.0 * base.k5,
                                          rel=1e-13)

    def test_k7_frozen_value(self):
        # k2^{1/6} k4^{1/3} / (2 * 9^{1/6} * 48^{1/3}) at p = q = 2.
        params = default_params()
        expected = 1.0 / (2.0 * 9.0 ** (1.0 / 6.0) * 48.0 ** (1.0 / 3.0))
        assert params.k7 == pytest.approx(expected, rel=1e-14)

    def test_k6_positive(self):
        assert default_params().k6 > 0.0


class TestConditions:
    def test_boundary_flags(self):
        # beta2 + alpha2 q = beta1 (pq - 1) + 2(q + 1) exactly:
        # with p = q = 2, rhs1 = 3 + 6 = 9; pick beta2 = 5, alpha2 = 2.
        params = default_params(alpha2=2.0, beta2=5.0)
        rep = check_conditions(params)
        assert rep.cond1_holds and rep.cond1_boundary
        # cond2: lhs = 2 + 10 = 12, rhs = 3 + 6 = 9: fails.
        assert not rep.cond2_holds

    def test_strict_slack(self):
        rep = check_conditions(default_params())
        assert rep.cond1_slack == pytest.approx(6.0, abs=1e-14)
        assert rep.cond2_slack == pytest.approx(6.0, abs=1e-14)
        assert rep.cond1_holds and not rep.cond1_boundary


class TestDeriveParams:
    def test_weights(self):
        params = derive_params(Exponents(2.0, 3.0, 3))
        assert params.alpha1 == pytest.approx(1.0, abs=1e-15)
        assert params.alpha2 == pytest.approx(3.0, abs=1e-15)
        assert params.beta1 == 1.0
        assert params.beta2 == pytest.approx(6.0, abs=1e-15)
        assert params.beta3 == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0 * 3.0,
                                             rel=1e-15)

    def test_boundary_case_2_2_3(self):
        rep = check_conditions(derive_params(Exponents(2.0, 2.0, 3)))
        assert rep.cond1_holds and rep.cond1_boundary
        assert rep.cond2_holds and rep.cond2_boundary

    def test_strict_case_2_2_1(self):
        rep = check_conditions(derive_params(Exponents(2.0, 2.0, 1)))
        assert rep.cond1_holds and not rep.cond1_boundary
        assert rep.cond2_holds and not rep.cond2_boundary

    def test_constants_wired_through(self):
        params = derive_params(Exponents(2.0, 2.0, 1),
                               {"C3": 2.5, "k2": 0.5, "k4": 3.0})
        assert params.k0 == 2.5 and params.k1 == 10.0
        assert params.k2 == 0.5 and params.k4 == 3.0

    def test_alpha1_sign_guard(self):
        with pytest.raises(ValueError, match="alpha1"):
            derive_params(Exponents(4.0, 2.0, 2))


class TestIntegrateComparison:
    def test_blowup_and_data_monotonicity(self):
        params = derive_params(Exponents(2.0, 2.0, 1))
        t1 = integrate_comparison(params, 1e3, 1e2, 1e3, 1e2, horizon=50.0)
        t2 = integrate_comparison(params, 2e3, 2e2, 2e3, 2e2, horizon=50.0)
        assert t1.terminal_reason is TerminalReason.BLOWUP
        assert t2.terminal_reason is TerminalReason.BLOWUP
        assert t2.blowup_time < t1.blowup_time

    def test_strong_decay_reaches_horizon(self):
        params = replace(derive_params(Exponents(2.0, 2.0, 1)), beta3=1e3)
        trace = integrate_comparison(params, 1.0, 0.1, 1.0, 0.1, horizon=50.0)
        assert trace.terminal_reason is TerminalReason.HORIZON
        assert trace.blowup_time is None

    @pytest.mark.parametrize("T0", [0.0, 2.0])
    def test_rhs_beyond_float_range_is_blowup_at_T0(self, T0):
        # F2_0^p = 1000^200 = inf: the solution escapes at once.
        params = replace(derive_params(Exponents(200.0, 200.0, 1)), T0=T0)
        trace = integrate_comparison(params, 1e3, 1e2, 1e3, 1e2, horizon=50.0)
        assert trace.terminal_reason is TerminalReason.BLOWUP
        assert trace.blowup_time == T0
        assert list(trace.csv_rows())[1:] == [f"{T0:.17g},1000,100,1000,100"]

    def test_csv_schema(self):
        params = derive_params(Exponents(2.0, 2.0, 1))
        trace = integrate_comparison(params, 1.0, 0.1, 1.0, 0.1, horizon=1.0)
        rows = list(trace.csv_rows())
        assert rows[0] == "t,F1,dF1,F2,dF2"
        assert len(rows) == trace.times.size + 1

    def test_validation(self):
        params = derive_params(Exponents(2.0, 2.0, 1))
        with pytest.raises(ValueError, match="positive"):
            integrate_comparison(params, 0.0, 1.0, 1.0, 1.0, horizon=1.0)
        with pytest.raises(ValueError, match="horizon"):
            integrate_comparison(params, 1.0, 1.0, 1.0, 1.0, horizon=0.0)

    @pytest.mark.parametrize("threshold", [-5.0, 0.0, math.nan])
    def test_threshold_validation(self, threshold):
        # The data are positive, so the threshold event could never fire.
        params = derive_params(Exponents(2.0, 2.0, 1))
        with pytest.raises(ValueError, match="threshold"):
            integrate_comparison(params, 1.0, 0.1, 1.0, 0.1, horizon=1.0,
                                 threshold=threshold)

    def test_closed_form_y_lower_bounds_f2(self):
        # Fit the largest kappa_eff for which Y' = kappa_eff w(t) Y^beta
        # under-estimates the growth of F2 along the trace, then check
        # the comparison principle Y <= F2 numerically.
        sets = [
            (derive_params(Exponents(2.0, 2.0, 1)), 2.0),
            (derive_params(Exponents(2.5, 1.8, 1)), 1.8),
            (derive_params(Exponents(2.0, 2.0, 3),
                           {"k2": 0.5, "k4": 0.5}), 2.0),
        ]
        for params, beta in sets:
            trace = integrate_comparison(params, 50.0, 5.0, 50.0, 5.0,
                                         horizon=5.0, threshold=1e10)
            t, F2, dF2 = trace.times, trace.F2, trace.dF2
            weight = np.exp(-params.beta3 * t) * (t + params.R) ** (-params.beta2)
            kappa_eff = float(np.min(dF2 / (weight * F2**beta)))
            assert kappa_eff > 0.0
            end = t[-1] if trace.blowup_time is None else trace.blowup_time
            for tk in np.linspace(t[0], 0.95 * end, 9):
                y = y_closed_form(kappa_eff, params.beta3, params.beta2,
                                  beta, params.R, t[0], F2[0], float(tk))
                f2_here = float(np.interp(tk, t, F2))
                assert y <= f2_here * (1.0 + 1e-6)


def _y_oracle(kappa, nu, alpha, beta, R, T6, Y0, t_eval):
    sol = solve_ivp(
        lambda t, y: [kappa * math.exp(-nu * t) * (t + R) ** (-alpha) * y[0] ** beta],
        (T6, t_eval[-1]), [Y0], t_eval=t_eval, method="DOP853",
        rtol=1e-11, atol=1e-12)
    return sol.y[0]


class TestYClosedForm:
    def test_against_ode_oracle(self):
        cases = [
            (0.8, 0.5, 0.3, 2.0, 1.0, 0.0, 1.0),
            (1.5, 1.0, 0.0, 3.0, 2.0, 0.5, 0.7),
            (0.3, 0.0, 1.5, 2.5, 1.0, 0.0, 2.0),
        ]
        for kappa, nu, alpha, beta, R, T6, Y0 in cases:
            t_star = y_blowup_time(kappa, nu, alpha, beta, R, T6, Y0)
            t_end = T6 + 1.0 if t_star is None else T6 + 0.8 * (t_star - T6)
            t_eval = np.linspace(T6, t_end, 7)
            oracle = _y_oracle(kappa, nu, alpha, beta, R, T6, Y0, t_eval)
            for tk, yk in zip(t_eval, oracle):
                got = y_closed_form(kappa, nu, alpha, beta, R, T6, Y0, float(tk))
                assert got == pytest.approx(yk, rel=1e-8)

    def test_blowup_signalled(self):
        with pytest.raises(OverflowError):
            y_closed_form(1.0, 0.0, 0.0, 2.0, 1.0, 0.0, 1.0, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            y_closed_form(1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            y_closed_form(1.0, -1.0, 0.0, 2.0, 1.0, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            y_closed_form(1.0, 0.0, 0.0, 2.0, 1.0, 1.0, 1.0, 0.5)


class TestYBlowupTime:
    def test_riccati_frozen(self):
        # Y' = Y^2, Y(0) = 1 blows up at exactly t = 1.
        assert y_blowup_time(1.0, 0.0, 0.0, 2.0, 1.0, 0.0, 1.0) == pytest.approx(
            1.0, abs=1e-9)

    def test_damped_frozen(self):
        # Bracket 1 - 2(1 - e^{-t}) vanishes at ln 2.
        assert y_blowup_time(2.0, 1.0, 0.0, 2.0, 1.0, 0.0, 1.0) == pytest.approx(
            math.log(2.0), abs=1e-9)

    def test_subthreshold_data_survives(self):
        # With nu = 1 the full weight integral is 1; kappa = 1/2 < 1/Y0.
        assert y_blowup_time(0.5, 1.0, 0.0, 2.0, 1.0, 0.0, 1.0) is None
        assert y_blowup_time(0.0, 0.0, 0.0, 2.0, 1.0, 0.0, 1.0) is None

    def test_monotonicity_properties(self):
        for _ in range(50):
            kappa = float(RNG.uniform(0.2, 3.0))
            nu = float(RNG.uniform(0.0, 1.0))
            alpha = float(RNG.uniform(0.0, 1.0))
            beta = float(RNG.uniform(1.5, 3.0))
            Y0 = float(RNG.uniform(0.5, 5.0))
            base = y_blowup_time(kappa, nu, alpha, beta, 1.0, 0.0, Y0)
            if base is None:
                continue
            bigger_y0 = y_blowup_time(kappa, nu, alpha, beta, 1.0, 0.0, 2.0 * Y0)
            bigger_kappa = y_blowup_time(2.0 * kappa, nu, alpha, beta, 1.0, 0.0, Y0)
            more_nu = y_blowup_time(kappa, nu + 0.5, alpha, beta, 1.0, 0.0, Y0)
            more_alpha = y_blowup_time(kappa, nu, alpha + 0.5, beta, 1.0, 0.0, Y0)
            assert bigger_y0 is not None and bigger_y0 <= base
            assert bigger_kappa is not None and bigger_kappa <= base
            assert more_nu is None or more_nu >= base
            assert more_alpha is None or more_alpha >= base

    def test_event_consistency(self):
        kappa, nu, alpha, beta, R, Y0 = 2.0, 1.0, 0.0, 2.0, 1.0, 1.0
        t_star = y_blowup_time(kappa, nu, alpha, beta, R, 0.0, Y0)
        hits = []
        for threshold in (1e6, 1e9, 1e12):
            def event(t, y):
                return y[0] - threshold
            event.terminal = True
            sol = solve_ivp(
                lambda t, y: [kappa * math.exp(-nu * t) * (t + R) ** (-alpha)
                              * y[0] ** beta],
                (0.0, 2.0 * t_star), [Y0], events=event, rtol=1e-10, atol=1e-12)
            assert sol.status == 1
            hits.append(float(sol.t_events[0][0]))
        assert hits[0] <= hits[1] <= hits[2] <= t_star + 1e-6
        assert abs(hits[2] - t_star) <= 1e-4 * t_star


def _z_oracle(kappa, gamma, alpha, beta, R, T9, Z0, t_eval):
    sol = solve_ivp(
        lambda t, z: [kappa * math.exp(-gamma * t) * (t + R) ** (-alpha)
                      * z[0] ** beta - z[0]],
        (T9, t_eval[-1]), [Z0], t_eval=t_eval, method="DOP853",
        rtol=1e-11, atol=1e-12)
    return sol.y[0]


class TestZClosedForm:
    def test_pure_decay(self):
        # kappa = 0: Z(t) = Z0 e^{-(t - T9)}.
        got = z_closed_form(0.0, 0.0, 0.0, 2.0, 1.0, 0.5, 3.0, 2.0)
        assert got == pytest.approx(3.0 * math.exp(-1.5), rel=1e-12)

    def test_against_ode_oracle(self):
        cases = [
            (0.8, 0.5, 0.3, 2.0, 1.0, 0.0, 1.0),
            (3.0, 0.0, 1.0, 2.5, 2.0, 0.2, 0.5),
        ]
        for kappa, gamma, alpha, beta, R, T9, Z0 in cases:
            t_star = z_blowup_time(kappa, gamma, alpha, beta, R, T9, Z0)
            t_end = T9 + 1.5 if t_star is None else T9 + 0.8 * (t_star - T9)
            t_eval = np.linspace(T9, t_end, 7)
            oracle = _z_oracle(kappa, gamma, alpha, beta, R, T9, Z0, t_eval)
            for tk, zk in zip(t_eval, oracle):
                got = z_closed_form(kappa, gamma, alpha, beta, R, T9, Z0, float(tk))
                assert got == pytest.approx(zk, rel=1e-8)


class TestZBlowupTime:
    def test_frozen_value(self):
        # Bracket 1 - 10(1 - e^{-t}) vanishes at ln(10/9).
        assert z_blowup_time(10.0, 0.0, 0.0, 2.0, 1.0, 0.0, 1.0) == pytest.approx(
            math.log(10.0 / 9.0), abs=1e-9)

    def test_large_data_threshold(self):
        # Full weight integral is 1: blow-up iff Z0^{1-beta} <= 10, i.e.
        # Z0 >= 0.1.
        assert z_blowup_time(10.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.05) is None
        assert z_blowup_time(10.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.2) is not None

    def test_strong_gamma_prevents_blowup(self):
        assert z_blowup_time(10.0, 50.0, 0.0, 2.0, 1.0, 0.0, 1.0) is None

    def test_event_match(self):
        kappa, Z0 = 10.0, 1.0
        t_star = z_blowup_time(kappa, 0.0, 0.0, 2.0, 1.0, 0.0, Z0)

        def event(t, z):
            return z[0] - 1e12
        event.terminal = True
        sol = solve_ivp(lambda t, z: [kappa * z[0] ** 2 - z[0]],
                        (0.0, 1.0), [Z0], events=event, rtol=1e-10, atol=1e-12)
        assert sol.status == 1
        assert float(sol.t_events[0][0]) == pytest.approx(t_star, rel=1e-4)
