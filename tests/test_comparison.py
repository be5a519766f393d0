"""Tests for the comparison-inequality engine.

The closed-form Bernoulli solutions are validated against a
high-accuracy scipy adaptive integration oracle of the same ODEs; the
blow-up times against hand-computed brackets (Y' = Y^2 from 1 blows up
at t = 1; with weight 2 e^{-t} the bracket 1 - 2(1 - e^{-t}) vanishes
at ln 2; the damped Z case with kappa = 10 vanishes at ln(10/9)).
"""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from blowlab.cli import parse_config, run_experiment
from blowlab.comparison import (
    KatoParams,
    _brent,
    _y_bracket,
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


class TestLowerBounds:
    @pytest.mark.parametrize("p,q,n", [(2.0, 2.0, 1), (1.5, 1.5, 2), (1.7, 2.5, 2),
                                       (2.0, 2.0, 3), (4.0, 4.0, 1)])
    def test_array_equals_floats_bit_for_bit(self, p, q, n):
        # p = q = 2, n = 1 takes the exponents 1, -1 and 2, which numpy
        # evaluates apart from its general power.  F1 and F2 span the float
        # range, so some bounds saturate to inf and some to 0.
        params = derive_params(Exponents(p, q, n), {"C3": 0.3, "k2": 0.7, "k4": 1.9})
        t = np.concatenate([[0.0, 1e3], RNG.uniform(0.0, 50.0, 300)])
        F1, F2 = 10.0 ** RNG.uniform(-300.0, 300.0, (2, t.size))
        arrays = np.array(params.lower_bounds(t, F1, F2))
        assert arrays.shape == (5, t.size)
        assert np.isinf(arrays).any() and (arrays == 0.0).any()
        floats = np.array([params.lower_bounds(float(t[j]), float(F1[j]), float(F2[j]))
                           for j in range(t.size)]).T
        assert floats.tobytes() == arrays.tobytes()
        pair = params.lower_bounds(t, F1, F2, which=(2, 4))
        assert np.array(pair).tobytes() == arrays[[2, 4]].tobytes()

    def test_constants_scale_the_shapes(self):
        params = derive_params(Exponents(1.7, 2.5, 2), {"C3": 0.3, "k2": 0.7, "k4": 1.9})
        unit = replace(params, k0=1.0, k1=1.0, k2=1.0, k4=1.0)
        t, F1, F2 = np.linspace(0.0, 5.0, 11), np.linspace(1.0, 9.0, 11), np.full(11, 3.0)
        for i, (bound, shape) in enumerate(zip(params.lower_bounds(t, F1, F2),
                                               unit.lower_bounds(t, F1, F2))):
            assert np.array_equal(bound, getattr(params, f"k{i}") * shape)


class TestConditions:
    def test_boundary_flags(self):
        # beta2 + alpha2 q = beta1 (pq - 1) + 2(q + 1) exactly:
        # with p = q = 2, rhs1 = 3 + 6 = 9; pick beta2 = 5, alpha2 = 2.
        params = default_params(alpha2=2.0, beta2=5.0)
        cond1, cond2 = check_conditions(params)
        assert cond1.holds and cond1.boundary
        # cond2: lhs = 2 + 10 = 12, rhs = 3 + 6 = 9: fails.
        assert not cond2.holds

    def test_strict_slack(self):
        cond1, cond2 = check_conditions(default_params())
        assert cond1.slack == pytest.approx(6.0, abs=1e-14)
        assert cond2.slack == pytest.approx(6.0, abs=1e-14)
        assert cond1.holds and not cond1.boundary


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
        for cond in check_conditions(derive_params(Exponents(2.0, 2.0, 3))):
            assert cond.holds and cond.boundary

    def test_strict_case_2_2_1(self):
        for cond in check_conditions(derive_params(Exponents(2.0, 2.0, 1))):
            assert cond.holds and not cond.boundary

    def test_constants_wired_through(self):
        params = derive_params(Exponents(2.0, 2.0, 1),
                               {"C3": 2.5, "k2": 0.5, "k4": 3.0})
        assert params.k0 == 2.5 and params.k1 == 10.0
        assert params.k2 == 0.5 and params.k4 == 3.0

    def test_alpha1_sign_guard(self):
        with pytest.raises(ValueError, match="alpha1"):
            derive_params(Exponents(4.0, 2.0, 2))
        # alpha1 = 1 + (2-p)(n-1)/2 > 0 exactly for p < 2n/(n-1), which the
        # message names.
        with pytest.raises(ValueError, match=r"^p=3 >= 2n/\(n-1\)=3 for n=3: alpha1 <= 0 "
                           "violates the comparison hypotheses$"):
            derive_params(Exponents(3.0, 2.0, 3))


def bracket_root_brentq(bracket, T_start):
    """The search of ``comparison.y_blowup_time`` with scipy's brentq as its
    root finder and without its tail bound: the oracle of the Y and Z
    blow-up times, and None only when no zero lies within 200 doublings."""
    lo, hi = T_start, max(1.0, abs(T_start) + 1.0)
    for _ in range(200):
        if bracket(hi) <= 0.0:
            return float(brentq(bracket, lo, hi, rtol=1e-9, xtol=1e-14))
        lo, hi = hi, 2.0 * hi
    return None


class TestBrent:
    # The ODE event's tolerance pair, and that of the Y and Z brackets.
    @pytest.mark.parametrize("xtol, rtol", [(4 * np.finfo(float).eps,) * 2,
                                            (1e-14, 1e-9)])
    def test_iterates_are_brentqs(self, xtol, rtol):
        # The root finder is brentq's loop: on cubics with a root inside
        # the bracket, at scales over 400 decades, it evaluates the same
        # points and returns the same root, bit for bit.
        for _ in range(300):
            c, off = RNG.uniform(-0.9, 0.9), RNG.uniform(-1e-4, 1e-4)
            scale = 10.0 ** RNG.uniform(-200, 200)
            a, b = -1.0 - RNG.random(), 1.0 + RNG.random()
            if RNG.random() < 0.5:
                a, b = b, a
            seen = {"brentq": [], "port": []}

            def f(x, who):
                seen[who].append(float(x))
                return scale * ((x - c) ** 3 + off * (x - c))

            expected = brentq(f, a, b, args=("brentq",), xtol=xtol, rtol=rtol)
            # Its float64 steps may leave the float range, as brentq's C
            # doubles do, silently.
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                got = _brent(lambda x: f(x, "port"), a, b, xtol=xtol, rtol=rtol)
            assert got == expected
            assert seen["port"] == seen["brentq"]

    def test_no_sign_change_is_an_error(self):
        with pytest.raises(ValueError, match="different signs"):
            _brent(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, rtol=1e-12)

    def test_blowup_times_are_brentqs(self):
        # y_blowup_time and z_blowup_time, bit for bit, against the same
        # bracket search with brentq; the frozen and oracle cases of
        # TestYBlowupTime and TestZBlowupTime, then random data.
        y_cases = [(1.0, 0.0, 0.0, 2.0, 1.0, 0.0, 1.0), (2.0, 1.0, 0.0, 2.0, 1.0, 0.0, 1.0),
                   (0.8, 0.5, 0.3, 2.0, 1.0, 0.0, 1.0), (1.5, 1.0, 0.0, 3.0, 2.0, 0.5, 0.7),
                   (0.3, 0.0, 1.5, 2.5, 1.0, 0.0, 2.0)]
        z_cases = [(10.0, 0.0, 0.0, 2.0, 1.0, 0.0, 1.0), (10.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.2),
                   (0.8, 0.5, 0.3, 2.0, 1.0, 0.0, 1.0), (3.0, 0.0, 1.0, 2.5, 2.0, 0.2, 0.5)]
        for _ in range(20):
            case = (float(RNG.uniform(0.2, 3.0)), float(RNG.uniform(0.0, 1.0)),
                    float(RNG.uniform(0.0, 1.0)), float(RNG.uniform(1.5, 3.0)),
                    float(RNG.uniform(0.5, 2.0)), float(RNG.uniform(0.0, 1.0)),
                    float(RNG.uniform(0.5, 5.0)))
            y_cases.append(case)
            z_cases.append(case)
        # A None proved by the tail bound is one that the whole search
        # confirms.
        roots = 0
        for kappa, nu, alpha, beta, R, T6, Y0 in y_cases:
            got = y_blowup_time(kappa, nu, alpha, beta, R, T6, Y0)
            assert got == bracket_root_brentq(
                lambda t: _y_bracket(kappa, nu, alpha, beta, R, T6, Y0, t), T6)
            roots += got is not None
        for kappa, gamma, alpha, beta, R, T9, Z0 in z_cases:
            got = z_blowup_time(kappa, gamma, alpha, beta, R, T9, Z0)
            shifted = (kappa * math.exp(-gamma * T9), gamma + beta - 1.0, alpha, beta,
                       R + T9, 0.0, Z0)
            want = bracket_root_brentq(lambda t: _y_bracket(*shifted, t), 0.0)
            assert got == (None if want is None else T9 + want)
            roots += got is not None
        assert roots >= 20


class TestIntegrateComparison:
    def test_blowup_and_data_monotonicity(self):
        params = derive_params(Exponents(2.0, 2.0, 1))
        t1 = integrate_comparison(params, 1e3, 1e2, 1e3, 1e2, horizon=50.0)
        t2 = integrate_comparison(params, 2e3, 2e2, 2e3, 2e2, horizon=50.0)
        assert t1.outcome == "blowup"
        assert t2.outcome == "blowup"
        assert t2.blowup_time < t1.blowup_time

    def test_strong_decay_reaches_horizon(self):
        params = replace(derive_params(Exponents(2.0, 2.0, 1)), beta3=1e3)
        trace = integrate_comparison(params, 1.0, 0.1, 1.0, 0.1, horizon=50.0)
        assert trace.outcome == "horizon"
        assert trace.blowup_time is None

    @pytest.mark.parametrize("T0", [0.0, 2.0])
    def test_rhs_beyond_float_range_is_blowup_at_T0(self, T0):
        # F2_0^p = 1000^200 = inf: the solution escapes at once.
        params = replace(derive_params(Exponents(200.0, 200.0, 1)), T0=T0)
        trace = integrate_comparison(params, 1e3, 1e2, 1e3, 1e2, horizon=50.0)
        assert trace.outcome == "blowup"
        assert trace.blowup_time == T0
        assert [trace.times.tolist(), trace.F1.tolist(), trace.dF1.tolist(),
                trace.F2.tolist(), trace.dF2.tolist()] == [[T0], [1e3], [1e2], [1e3], [1e2]]

    @pytest.mark.parametrize("T0", [0.0, 2.0])
    @pytest.mark.parametrize("threshold,F1_0,F2_0", [
        (1.0, 1e3, 1e3), (1e3, 1e3, 1.0), (1e3, 1.0, 1e3)])
    def test_data_at_or_above_threshold_is_blowup_at_T0(self, T0, threshold,
                                                         F1_0, F2_0):
        # max(F1, F2) starts at or past the threshold, so no event can
        # cross it; the solver would run on to a step underflow.
        params = replace(derive_params(Exponents(2.0, 2.0, 1)), T0=T0)
        trace = integrate_comparison(params, F1_0, 1e2, F2_0, 1e2, horizon=50.0,
                                     ode_threshold=threshold)
        assert trace.outcome == "blowup"
        assert trace.blowup_time == T0
        assert [trace.times.tolist(), trace.F1.tolist(), trace.dF1.tolist(),
                trace.F2.tolist(), trace.dF2.tolist()] == [[T0], [F1_0], [1e2], [F2_0], [1e2]]
        # Just above the initial data, the threshold is crossed later.
        later = integrate_comparison(params, F1_0, 1e2, F2_0, 1e2, horizon=50.0,
                                     ode_threshold=np.nextafter(max(F1_0, F2_0), math.inf))
        assert later.outcome == "blowup"
        assert later.blowup_time > T0 and later.times.size > 1

    def test_csv_schema(self, tmp_path):
        params = derive_params(Exponents(2.0, 2.0, 1))
        trace = integrate_comparison(params, 1.0, 0.1, 1.0, 0.1, horizon=1.0)
        doc = {"F1_0": 1.0, "dF1_0": 0.1, "F2_0": 1.0, "dF2_0": 0.1, "horizon": 1.0}
        run_experiment(parse_config(json.dumps(doc), mode="kato"), tmp_path)
        rows = (tmp_path / "ode_trace.csv").read_text().splitlines()
        assert rows[0] == "t,F1,dF1,F2,dF2"
        assert len(rows) == trace.times.size + 1

    def test_validation(self):
        params = derive_params(Exponents(2.0, 2.0, 1))
        with pytest.raises(ValueError, match=r"^F1_0=0.0 must be positive$"):
            integrate_comparison(params, 0.0, 1.0, 1.0, 1.0, horizon=1.0)
        with pytest.raises(ValueError, match=r"^horizon=0.0 must exceed T0=0.0$"):
            integrate_comparison(params, 1.0, 1.0, 1.0, 1.0, horizon=0.0)

    @pytest.mark.parametrize("threshold", [-5.0, 0.0, math.nan])
    def test_threshold_validation(self, threshold):
        # The data are positive, so the threshold event could never fire.
        params = derive_params(Exponents(2.0, 2.0, 1))
        with pytest.raises(ValueError, match="ode_threshold"):
            integrate_comparison(params, 1.0, 0.1, 1.0, 0.1, horizon=1.0,
                                 ode_threshold=threshold)

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
                                         horizon=5.0, ode_threshold=1e10)
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


def weight_integral(nu, alpha, R, T6, t):
    """int_{T6}^t e^{-nu s}(s+R)^{-alpha} ds as the Y bracket computes it:
    Y0 = inf makes Y0^{1-beta} exactly 0, and kappa (beta-1) is 1."""
    return -_y_bracket(1.0, nu, alpha, 2.0, R, T6, math.inf, t)


def assert_zero_within_tolerance(case, t_star):
    """The Y bracket of ``case`` changes sign within the search's Brent
    tolerance, 1e-14 + 1e-9 T*, of T*."""
    tol = 1e-14 + 1e-9 * t_star
    assert _y_bracket(*case, t_star - tol) > 0.0 > _y_bracket(*case, t_star + tol)


class TestYBracket:
    def test_power_law_against_closed_form(self):
        # nu = 0: ((t+R)^{1-alpha} - (T6+R)^{1-alpha})/(1-alpha), as
        # (T6+R)^{1-alpha} expm1((1-alpha) L)/(1-alpha) with
        # L = log1p((t-T6)/(T6+R)), and L itself for alpha = 1.
        for _ in range(300):
            alpha = 1.0 if RNG.random() < 0.2 else float(RNG.uniform(-1.0, 3.0))
            R, T6 = float(RNG.uniform(0.5, 2.0)), float(RNG.uniform(0.0, 5.0))
            t = T6 + 10.0 ** RNG.uniform(-3.0, 12.0)
            L = math.log1p((t - T6) / (T6 + R))
            exact = (L if alpha == 1.0
                     else (T6 + R) ** (1.0 - alpha) * math.expm1((1.0 - alpha) * L) / (1.0 - alpha))
            assert weight_integral(0.0, alpha, R, T6, t) == pytest.approx(exact, rel=1e-12)

    def test_exponential_against_closed_form(self):
        # alpha = 0: e^{-nu T6}(1 - e^{-nu(t-T6)})/nu, through expm1; the
        # plain difference of the two exponentials cancels at small nu.
        for _ in range(300):
            nu = 10.0 ** RNG.uniform(-8.0, 1.0)
            R, T6 = float(RNG.uniform(0.5, 2.0)), float(RNG.uniform(0.0, 5.0))
            t = T6 + 10.0 ** RNG.uniform(-3.0, 12.0)
            exact = -math.exp(-nu * T6) * math.expm1(-nu * (t - T6)) / nu
            assert weight_integral(nu, 0.0, R, T6, t) == pytest.approx(exact, rel=1e-12)

    def test_against_quad_on_finite_ranges(self):
        for _ in range(300):
            nu, alpha = float(RNG.uniform(0.0, 2.0)), float(RNG.uniform(-1.0, 3.0))
            R, T6 = float(RNG.uniform(0.5, 2.0)), float(RNG.uniform(0.0, 5.0))
            t = T6 + float(RNG.uniform(0.0, 50.0))
            oracle, _ = quad(lambda s: math.exp(-nu * s) * (s + R) ** -alpha, T6, t,
                             epsabs=0.0, epsrel=1e-13, limit=200)
            assert weight_integral(nu, alpha, R, T6, t) == pytest.approx(oracle, rel=1e-12)


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


class TestBernoulliArgs:
    # A start T with T + R <= 0, or R <= 0, leaves (s + R)^{-alpha} not
    # real on [T, t]: one check rejects it in all four helpers, naming R
    # and the start, before the bracket's log2 of (t + R) / (T + R).
    @pytest.mark.parametrize("function, args, names", [
        (y_blowup_time, (1, 0, 0, 2, -1, 0, 1), "R=-1, T6=0"),
        (y_blowup_time, (1, 0, 0.5, 2, -1, 0, 1), "R=-1, T6=0"),
        (z_blowup_time, (1, 0, 0.5, 2, -1, 0, 1), "R=-1, T9=0"),
        (z_blowup_time, (1, 0, 0.5, 2, 1, -3, 1), "R=1, T9=-3"),
        (y_closed_form, (1, 0, 0.5, 2, 1, -2, 1, 0.5), "R=1, T6=-2"),
        (z_closed_form, (1, 0, 0.5, 2, 0, 0, 1, 0.5), "R=0, T9=0"),
        (y_blowup_time, (1, 0, 0.5, 2, math.nan, 0, 1), "R=nan, T6=0"),
    ])
    def test_start_beyond_minus_R_rejected(self, function, args, names):
        start = "T6" if function in (y_blowup_time, y_closed_form) else "T9"
        with pytest.raises(ValueError, match=rf"^need R > 0 and {start} \+ R > 0, got {names}$"):
            function(*args)


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

    @pytest.mark.parametrize("nu, alpha, R, T6, full", [
        # alpha = 0: the full weight integral is e^{-nu T6}/nu.
        (1.0, 0.0, 1.0, 0.0, 1.0),
        (1e-3, 0.0, 2.0, 0.5, math.exp(-5e-4) / 1e-3),
        # alpha = -1: e^{-nu T6}((T6+R)/nu + 1/nu^2).
        (0.5, -1.0, 1.0, 0.2, math.exp(-0.1) * (1.2 / 0.5 + 1.0 / 0.25)),
        # nu = 0, alpha = 2: (T6+R)^{1-alpha}/(alpha-1).
        (0.0, 2.0, 1.0, 0.5, 1.0 / 1.5),
    ])
    def test_full_integral_threshold(self, nu, alpha, R, T6, full):
        # With beta = 2 and Y0 = 1, Y blows up iff kappa * full > 1.
        assert y_blowup_time(0.99 / full, nu, alpha, 2.0, R, T6, 1.0) is None
        case = (1.01 / full, nu, alpha, 2.0, R, T6, 1.0)
        t_star = y_blowup_time(*case)
        assert t_star is not None
        assert_zero_within_tolerance(case, t_star)

    def test_slow_decay_blows_up(self):
        # At nu = 1.4e-6, quad over [T6, inf) misjudged this bracket's limit
        # as positive, with an IntegrationWarning; the bracket is -4.5 at
        # t = 10.
        case = (0.692345484802751, 1.3601257419226798e-06, 0.0604275084486785,
                1.8219771873047506, 1.1264804788122413, 0.6015702312396175, 4.9146377782597)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t_star = y_blowup_time(*case)
        assert t_star == pytest.approx(1.0961306563645956, rel=1e-12)
        assert_zero_within_tolerance(case, t_star)

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
