"""Oracle-driven tests for the radial test-function module.

Frozen values are computed from independent closed forms (hyperbolic
functions, the modified Bessel function, exact polynomial integrals) or
from scipy quadrature oracles evaluated inside the test.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp0f1, i0

from blowlab.testfuncs import TestFunctionKind as Kind
from blowlab.testfuncs import (
    DomainError,
    OverflowGuardError,
    ball_volume,
    gauss_panels,
    phi,
    phi_asymptotic,
    phi_quadrature,
    radial_laplacian,
    radial_stencil,
    sphere_area,
    verify_wave_identity,
    weighted_power_integral,
)


class TestGeometry:
    def test_sphere_areas(self):
        assert sphere_area(1) == pytest.approx(2.0, abs=1e-15)
        assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_ball_volumes(self):
        assert ball_volume(1) == pytest.approx(2.0, abs=1e-15)
        assert ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)

    def test_dimension_domain(self):
        for bad in (0, -1, 9, 1.5, True):
            with pytest.raises(DomainError):
                sphere_area(bad)


class TestGaussPanels:
    def test_polynomial(self):
        assert gauss_panels(lambda x: x**2, [0.0, 1.0], 0.5)[0] == pytest.approx(
            1.0 / 3.0, rel=1e-13)

    def test_exponential(self):
        got = gauss_panels(np.exp, [0.0, 5.0], 0.5)[0]
        assert got == pytest.approx(math.exp(5.0) - 1.0, rel=1e-12)

    def test_oscillatory_against_quad(self):
        f = lambda x: np.cos(7.0 * x) * np.exp(x)
        oracle, _ = quad(f, 0.0, 3.0)
        assert gauss_panels(f, [0.0, 3.0], 0.5)[0] == pytest.approx(oracle, rel=1e-10)

    def test_one_integral_per_interval(self):
        # Each interval gets its own panels, the fewest at most 0.5 wide;
        # an empty interval integrates to 0.
        edges = [0.0, 0.3, 0.3, 2.0, 5.0]
        got = gauss_panels(np.exp, edges, 0.5)
        assert got.shape == (4,) and got[1] == 0.0
        assert got == pytest.approx(np.diff(np.exp(edges)), rel=1e-14, abs=0.0)
        calls = []
        gauss_panels(lambda x: calls.append(x.size) or x, edges, 0.5)
        # f is called once, on 16 nodes of each of 1 + 1 + 4 + 6 panels.
        assert calls == [16 * 12]


class TestPhi:
    def test_closed_form_n1(self):
        # phi(1, 1) = 2 cosh 1.
        assert phi(1.0, 1) == pytest.approx(2.0 * math.cosh(1.0), rel=1e-15)

    def test_closed_form_n3(self):
        # phi(0, 3) = |S^2| = 4 pi; phi(2, 3) = 4 pi sinh(2)/2.
        assert phi(0.0, 3) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert phi(2.0, 3) == pytest.approx(2.0 * math.pi * math.sinh(2.0),
                                            rel=1e-15)

    def test_origin_value_is_sphere_area(self):
        # Every term past t_0 = 1 vanishes at r = 0.
        for n in range(1, 9):
            assert phi(0.0, n) == sphere_area(n)

    def test_bessel_oracle_n2(self):
        # In the plane the angular integral is 2 pi I0(r).
        for r in (0.0, 0.5, 1.0, 3.0, 10.0):
            assert phi(r, 2) == pytest.approx(2.0 * math.pi * i0(r), rel=1e-11)

    def test_quadrature_matches_closed_forms(self):
        # Over the whole guarded range, where the integrand's exponent
        # r cos(theta) reaches 700.
        r = np.linspace(0.0, 700.0, 141)
        for n in range(1, 9):
            closed = phi(r, n)
            by_quad = np.array([phi_quadrature(float(x), n) for x in r])
            assert np.max(np.abs(by_quad / closed - 1.0)) <= 1e-12

    def test_finite_at_overflow_guard(self):
        # At the guard edge r = 700 phi is finite and follows the
        # two-term asymptotic series: the leading form times
        # 1 - (n-1)(n-3)/(8r), from the Bessel expansion of 0F1.
        r = 700.0
        for n in range(1, 9):
            value = phi(r, n)
            assert math.isfinite(value)
            two_term = phi_asymptotic(r, n) * (1.0 - (n - 1) * (n - 3) / (8.0 * r))
            assert abs(value / two_term - 1.0) <= 1e-3

    def test_origin_series_continuity_n3(self):
        # Near the origin 4 pi sinh(r)/r rises from 4 pi without a kink:
        # the 0F1 series is exact at r = 0 and monotone in r.
        r = np.array([0.0, 5e-9, 2e-8, 1e-4, 1e-2])
        vals = phi(r, 3)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert vals[-1] > vals[0]

    def test_array_and_scalar_agree(self):
        r = np.array([0.3, 1.7])
        for n in (1, 2, 3, 5):
            arr = phi(r, n)
            assert arr[0] == pytest.approx(phi(0.3, n), rel=1e-14)
            assert arr[1] == pytest.approx(phi(1.7, n), rel=1e-14)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_series_against_hyp0f1(self, n):
        # Shuffled, so that the sort and the scatter back are exercised.
        rng = np.random.default_rng(n)
        r = rng.permutation(np.concatenate([np.linspace(0.0, 700.0, 1401),
                                            rng.uniform(0.0, 700.0, 600)]))
        oracle = sphere_area(n) * hyp0f1(n / 2.0, r * r / 4.0)
        assert np.max(np.abs(phi(r, n) / oracle - 1.0)) <= 5e-14

    def test_shapes_and_order(self):
        # A scalar gives a float; a 0-d array keeps its empty shape, and a
        # 2-D array its shape and element order.
        assert type(phi(2.5, 3)) is float and type(phi(np.float64(2.5), 3)) is float
        assert np.shape(phi(np.array(2.5), 3)) == () and phi(np.array(2.5), 3) == phi(2.5, 3)
        r = np.array([[9.0, 0.0, 3.5], [700.0, 1e-3, 42.0]])
        got = phi(r, 4)
        assert got.shape == (2, 3)
        assert np.array_equal(got.ravel(), [phi(float(x), 4) for x in r.ravel()])
        assert phi(np.empty((0, 2)), 4).shape == (0, 2)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            phi(-0.1, 1)
        with pytest.raises(OverflowGuardError):
            phi(701.0, 1)
        with pytest.raises(DomainError):
            phi(np.array([0.5, -0.5]), 3)
        with pytest.raises(DomainError, match="radius r=nan must be nonnegative"):
            phi(np.array([0.5, math.nan]), 2)


class TestPhiAsymptotic:
    def test_constant_prefactor(self):
        # C_n = (2 pi)^{(n-1)/2}: for n = 1 the tail of 2 cosh r is e^r.
        assert phi_asymptotic(5.0, 1) == pytest.approx(math.exp(5.0), rel=1e-15)

    def test_ratio_tends_to_one(self):
        for n in (1, 2, 3):
            ratio = phi(30.0, n) / phi_asymptotic(30.0, n)
            assert 0.99 <= ratio <= 1.01

    def test_ratio_improves_with_radius(self):
        for n in (2, 3):
            near = abs(phi(10.0, n) / phi_asymptotic(10.0, n) - 1.0)
            far = abs(phi(40.0, n) / phi_asymptotic(40.0, n) - 1.0)
            assert far < near

    def test_requires_positive_radius(self):
        with pytest.raises(DomainError):
            phi_asymptotic(0.0, 2)


class TestPsi:
    def test_eigenvalue_identity(self):
        d = Kind.PSI1.decay_rate
        assert abs(d * d + d - 1.0) <= 1e-15
        assert Kind.PSI2.decay_rate == 1.0


class TestRadialLaplacian:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_on_r_squared(self, n):
        # Laplace(r^2) = 2n, and the flux form is exact on it: the flux
        # through r_{i+1/2} is 2 r_{i+1/2}^n, and the shell volume is the
        # difference of r^n / n, at the origin cell too.  h = 1/64 keeps
        # r^2 and its differences exact.
        r = np.arange(301) / 64.0
        # r^2 as both fields of a mirrored pair; each half is its Laplacian.
        pair = radial_laplacian(np.concatenate((r[::-1] ** 2, r**2)),
                                *radial_stencil(r.size, 1.0 / 64.0, n))
        for lap in (pair[r.size - 1::-1], pair[r.size:]):
            assert lap[:-1] == pytest.approx(np.full(r.size - 1, 2.0 * n), rel=1e-12)
            assert lap[-1] == 0.0


class TestWaveIdentity:
    def test_residual_small(self):
        # The exact identity is 0; the discrete residual is pure truncation.
        assert verify_wave_identity(Kind.PSI2, 1, 1e-2) <= 1e-3

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_second_order_convergence(self, kind, n):
        h = 0.02
        ratio = verify_wave_identity(kind, n, h) / verify_wave_identity(kind, n, h / 2)
        assert 3.5 <= ratio <= 4.5

    def test_spacing_domain(self):
        with pytest.raises(DomainError):
            verify_wave_identity(Kind.PSI1, 1, 5.0)
        with pytest.raises(DomainError):
            verify_wave_identity(Kind.PSI1, 1, 0.0)


class TestWeightedPowerIntegral:
    def test_frozen_value_n1(self):
        # int_{-1}^{1} (2 cosh x)^2 dx = 4 + 2 sinh 2.
        got = weighted_power_integral(Kind.PSI2, 2.0, [0.0], 1.0, 1)
        assert got.tolist() == pytest.approx([4.0 + 2.0 * math.sinh(2.0)], rel=1e-11)

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_against_quad_oracle(self, kind, n):
        # One call per conjugate power, over the times inside the guard.
        d = kind.decay_rate
        for s_conj in (1.05, 1.5, 2.0, 3.0, 11.0, 101.0):
            times = [t for t in (0.0, 0.3, 2.0, 5.0) if s_conj * (t + 1.0) <= 700.0]
            got = weighted_power_integral(kind, s_conj, times, 1.0, n)
            for t, value in zip(times, got):
                oracle, _ = quad(lambda r: (math.exp(-d * t) * phi(r, n)) ** s_conj
                                 * r ** (n - 1), 0.0, t + 1.0,
                                 epsabs=0.0, epsrel=1e-13, limit=200)
                oracle *= sphere_area(n)
                assert value == pytest.approx(oracle, rel=1e-12), (s_conj, t)

    def test_decays_in_time_for_psi2_n1(self):
        # For n = 1 at conjugate power 2 the damping e^{-2t} beats the
        # growth of the ball, so the weight integral decreases.
        vals = weighted_power_integral(Kind.PSI2, 2.0, [0.0, 1.0, 2.0], 1.0, 1)
        assert vals[0] > vals[1] > vals[2]

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            weighted_power_integral(Kind.PSI1, 1.0, [0.0], 1.0, 1)
        with pytest.raises(DomainError):
            weighted_power_integral(Kind.PSI1, 2.0, [-1.0], 1.0, 1)
        with pytest.raises(DomainError):
            weighted_power_integral(Kind.PSI1, 2.0, [1.0, 0.5], 1.0, 1)
        with pytest.raises(DomainError):
            weighted_power_integral(Kind.PSI1, 2.0, [0.0], 0.0, 1)

    def test_weight_beyond_the_float_range(self):
        # s'(t + R) stays below 700, yet the weight passes 1.8e308 between
        # t = 0.1 and 0.125: the guard names that time, with no warning.
        times = [0.0, 0.05, 0.1, 0.125]
        assert weighted_power_integral(Kind.PSI1, 620.0, times[:3], 1.0, 1)[-1] < 1e306
        with pytest.raises(OverflowGuardError, match=r"^overflow guard: the weight at "
                           r"t=0.125 is beyond the float range$"):
            weighted_power_integral(Kind.PSI1, 620.0, times, 1.0, 1)

    def test_guard_names_the_first_time_beyond_it(self):
        # s'(t + R) = 2 (t + 1) passes 700 first at t = 350, before any
        # quadrature.
        with pytest.raises(OverflowGuardError,
                           match=r"^exponent argument 702 exceeds the overflow guard 700$"):
            weighted_power_integral(Kind.PSI1, 2.0, [0.0, 300.0, 350.0, 400.0], 1.0, 1)
