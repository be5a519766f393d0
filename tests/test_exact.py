"""The solver against exact solutions of the linear PDE.

Oracle: d'Alembert's formula.  An uncoupled radial free wave from
v(0) = v0, v_t(0) = 0 is, in n = 1 (the even extension of v0),

    v(r, t) = (v0(|r - t|) + v0(r + t)) / 2,

and in n = 3, where r v solves the 1-D wave equation with the odd
extension,

    v(r, t) = (F(r - t) + F(r + t)) / (2 r),   F(s) = s v0(|s|),

with the limit F'(t) at r = 0.  Its weighted mean F3 = e^{-t} G(t),
G(t) = int v phi dx, is exact too: Laplace(phi) = phi, so G'' = G and

    F3(t) = e^{-t} (G0 cosh t + G1 sinh t),

with G0 = |S^{n-1}| int v0 phi r^{n-1} dr and G1 the same of v1, which
is 0 here.  In the same uncoupled run u solves the damped wave equation
u_tt - Laplace(u) + u_t = 0, so G = int u phi dx obeys G'' + G' = G,
and from u1 = 0 the weighted mean F4 = e^{-d t} G, d = (sqrt 5 - 1)/2, is

    F4(t) = G0 ((1 - d / sqrt 5) + (d / sqrt 5) e^{-sqrt 5 t}),

with G0 the same integral of u0 = v0.

Oracle for the damped field itself: Riemann's formula.  In n = 1,
u = e^{-t/2} w, where w_tt = w_xx + w/4, w(0) = f and w_t(0) = f/2, with
f the even extension of u0, and

    w(x, t) = (f(x - t) + f(x + t)) / 2 + 1/2 int_{x-t}^{x+t} f(s) K(t, x - s) ds,
    K(t, y) = I0(z) / 2 + t I1(z) / (4 z),   z = sqrt(t^2 - y^2) / 2.

In n = 3, r u = e^{-t/2} w with the odd extension f(s) = s u0(|s|), and
at r = 0 u is e^{-t/2} w_r(0, t).  The integral is a 200-node
Gauss-Legendre rule over the part of [x - t, x + t] where f may be
nonzero, which a test checks against ``quad``.

F3 and F4 are checked in n = 1, 3 and 5, the fields v and u in n = 1
and 3.  The runs are stepped with ``init_state`` and ``step`` as ``run``
steps them, and compared at the state's own time, which lies within dt
of the horizon.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0, i1, iv

from blowlab.exponents import Exponents
from blowlab.pde import InitialData, functionals, init_state, step

HORIZON = 4.0
GRIDS = (500, 1000, 2000, 4000)
# Both waves start from the smooth bump of R = 1 and unit amplitude,
# u0 = v0, at rest.
DATA = InitialData(amplitude_u0=1.0, amplitude_u1=0.0, amplitude_v0=1.0, amplitude_v1=0.0)
# |S^{n-1}| and phi(r) r^{n-1}, from phi's closed forms 2 cosh r in
# n = 1, 4 pi sinh(r) / r in n = 3 and 8 pi^2 (r cosh r - sinh r) / r^3
# in n = 5.
MEASURES = {1: (2.0, lambda r: 2.0 * math.cosh(r)),
            3: (4.0 * math.pi, lambda r: 4.0 * math.pi * r * math.sinh(r)),
            5: (8.0 * math.pi**2 / 3.0,
                lambda r: 8.0 * math.pi**2 * r * (r * math.cosh(r) - math.sinh(r)))}


def bump(s):
    """The smooth bump exp(1 - 1/(1 - s^2)) for s < 1, 0 beyond."""
    out = np.zeros_like(s)
    inside = s < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def extension(s, n):
    """The even (n = 1) or odd (n = 3) extension of the bump to the line."""
    return bump(np.abs(s)) if n == 1 else s * bump(np.abs(s))


def v_exact(r, t, n):
    """d'Alembert's solution from v0 = bump, v1 = 0, for t > 1."""
    if n == 1:
        return (extension(r - t, 1) + extension(r + t, 1)) / 2.0
    with np.errstate(invalid="ignore"):
        v = (extension(r - t, 3) + extension(r + t, 3)) / (2.0 * r)
    # At r = 0 the limit F'(t) vanishes, since t lies beyond the support.
    v[r == 0.0] = 0.0
    return v


def riemann_kernel(t, y):
    """K(t, y) = I0(z) / 2 + t I1(z) / (4 z), z = sqrt(t^2 - y^2) / 2 > 0."""
    z = np.sqrt(t * t - y * y) / 2.0
    return i0(z) / 2.0 + t * i1(z) / (4.0 * z)


def riemann_kernel_dy(t, y):
    """dK/dy = -y (I1(z) / (8 z) + t I2(z) / (16 z^2)), from (z^-k I_k)' = z^-k I_{k+1}."""
    z = np.sqrt(t * t - y * y) / 2.0
    return -y * (i1(z) / (8.0 * z) + t * iv(2, z) / (16.0 * z * z))


GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(200)


def u_exact(r, t, n):
    """The damped field from u0 = bump, u1 = 0, by Riemann's formula, for t > 1."""
    # Each node's integral runs over [x - t, x + t] cut to f's support
    # [-1, 1]; an empty piece puts its rule's nodes at y = 0, weight 0.
    a = np.maximum(r - t, -1.0)[:, None]
    b = np.minimum(r + t, 1.0)[:, None]
    half = np.maximum(b - a, 0.0) / 2.0
    s = np.where(half > 0.0, (a + b) / 2.0 + half * GAUSS_NODES, r[:, None])
    integral = np.sum(half * GAUSS_WEIGHTS * extension(s, n) * riemann_kernel(t, r[:, None] - s),
                      axis=1)
    w = (extension(r - t, n) + extension(r + t, n)) / 2.0 + integral / 2.0
    if n == 3:
        with np.errstate(divide="ignore", invalid="ignore"):
            w /= r
        # w_r(0, t): f and f' vanish at s = -t and t, so only the
        # integrand's derivative in x is left.
        w[r == 0.0] = np.sum(GAUSS_WEIGHTS * extension(GAUSS_NODES, 3)
                             * riemann_kernel_dy(t, -GAUSS_NODES)) / 2.0
    return math.exp(-t / 2.0) * w


def u_quad(x, t, n):
    """``u_exact`` at one radius, its integral by ``quad``."""
    def f(s):
        return float(extension(np.array([s]), n)[0])
    a, b = max(x - t, -1.0), min(x + t, 1.0)
    options = {"epsabs": 1e-13, "epsrel": 1e-13, "limit": 200}
    if n == 3 and x == 0.0:
        return math.exp(-t / 2.0) * quad(
            lambda s: f(s) * float(riemann_kernel_dy(t, -s)), a, b, **options)[0] / 2.0
    integral = (quad(lambda s: f(s) * float(riemann_kernel(t, x - s)), a, b, **options)[0]
                if a < b else 0.0)
    w = (f(x - t) + f(x + t)) / 2.0 + integral / 2.0
    return math.exp(-t / 2.0) * (w / x if n == 3 else w)


def G0(n):
    """|S^{n-1}| int bump phi r^{n-1} dr, by quadrature."""
    area, weight = MEASURES[n]
    return area * quad(lambda r: math.exp(1.0 - 1.0 / (1.0 - r * r)) * weight(r), 0.0, 1.0,
                       epsabs=0.0, epsrel=1e-13)[0]


def F3_exact(t, n):
    """e^{-t} G0 cosh t."""
    return math.exp(-t) * G0(n) * math.cosh(t)


def F4_exact(t, n):
    """G0 ((1 - d / sqrt 5) + (d / sqrt 5) e^{-sqrt 5 t})."""
    c = (math.sqrt(5.0) - 1.0) / 2.0 / math.sqrt(5.0)
    return G0(n) * ((1.0 - c) + c * math.exp(-math.sqrt(5.0) * t))


def errors(n, grid_points):
    """|F3 / F3_exact - 1|, |F4 / F4_exact - 1| and, in n = 1 and 3,
    max |v - v_exact| and max |u - u_exact| over the mesh, after
    ceil(HORIZON / dt) steps."""
    # p and q do not enter an uncoupled run; 1.5 lies in the theorem
    # range of every dimension.
    state = init_state(Exponents(1.5, 1.5, n), DATA, grid_points, HORIZON, coupling=False)
    for _ in range(math.ceil(HORIZON / state.dt)):
        state = step(state)
    f = functionals(state)
    out = {"F3": abs(f["F3"] / F3_exact(state.time, n) - 1.0),
           "F4": abs(f["F4"] / F4_exact(state.time, n) - 1.0)}
    if n in (1, 3):
        out["v"] = float(np.max(np.abs(state.fields[state.r.size:]
                                       - v_exact(state.r, state.time, n))))
        out["u"] = float(np.max(np.abs(state.fields[state.r.size - 1::-1]
                                       - u_exact(state.r, state.time, n))))
    return out


@pytest.fixture(scope="module")
def measured():
    # Measured (v; F3; F4; u), grids 500 to 4 000:
    #   n = 1: 2.51e-3, 7.24e-4, 2.02e-4, 5.02e-5; 8.4e-6, 3.0e-6, 7.8e-7, 2.0e-7;
    #          1.30e-5, 3.62e-6, 9.20e-7, 2.30e-7; 3.31e-4, 1.00e-4, 2.79e-5, 6.93e-6;
    #   n = 3: 7.04e-4, 2.09e-4, 5.56e-5, 1.42e-5; 4.8e-5, 1.6e-5, 4.1e-6, 1.0e-6;
    #          6.00e-5, 1.66e-5, 4.21e-6, 1.05e-6; 9.38e-5, 2.78e-5, 7.39e-6, 1.88e-6;
    #   n = 5: F3 and F4 only; 8.18e-5, 3.67e-5, 1.01e-5, 2.53e-6;
    #          1.29e-4, 3.95e-5, 1.02e-5, 2.56e-6.
    measured = {}
    for n in (1, 3, 5):
        runs = [errors(n, grid) for grid in GRIDS]
        measured[n] = {key: tuple(run[key] for run in runs) for key in runs[0]}
    return measured


class FreeWaveFunctionals:
    """The F3 and F4 checks of dimension ``n``, which each test class
    below sets with its own bounds; this class itself is not collected."""

    def test_F3_second_order(self, measured):
        # The coarsest halving is still short of the asymptotic rate, so
        # it must cut the error F3_coarse_ratio times, 2.5x in n = 1 and
        # 3 and 1.8x in n = 5; the later halvings 2.5x (measured 3.6 and
        # 4.0 in n = 5).  From grid 1 000 to 4 000 a second-order error
        # falls 16x (measured 15.3, 15 and 14.5), and 12x is required.
        e = measured[self.n]["F3"]
        assert e[0] >= self.F3_coarse_ratio * e[1], e
        assert all(coarse >= 2.5 * fine for coarse, fine in zip(e[1:], e[2:])), e
        assert e[1] >= 12.0 * e[3], e

    def test_F3_error_at_grid_2000(self, measured):
        assert measured[self.n]["F3"][GRIDS.index(2000)] <= self.F3_bound, measured[self.n]

    def test_F4_second_order(self, measured):
        # Measured ratios 3.6, 3.9, 4.0 in n = 1 and 3, and 3.3, 3.9, 4.0
        # in n = 5; 3x, 9% below the least, is required.  Without the
        # seed's dt^2 term the error is first order (ratio 2.0), and a
        # damping divisor of 1 + dt in place of 1 + dt/2 leaves it near 1.
        e = measured[self.n]["F4"]
        assert all(coarse >= 3.0 * fine for coarse, fine in zip(e, e[1:])), e

    def test_F4_error_at_grid_2000(self, measured):
        assert measured[self.n]["F4"][GRIDS.index(2000)] <= self.F4_bound, measured[self.n]


class TestFreeWaveN5(FreeWaveFunctionals):
    """F3 and F4 of the n = 5 run; d'Alembert's v is left for n = 1, 3."""

    n = 5
    # Measured at grid 2 000: 1.01e-5 for F3 and 1.02e-5 for F4.
    F3_bound, F4_bound = 2e-5, 2e-5
    # The measured coarsest F3 ratio is 2.2.
    F3_coarse_ratio = 1.8


class TestFreeWave(FreeWaveFunctionals):
    """The n = 3 wave; TestFreeWaveN1 runs the same checks in n = 1."""

    n = 3
    # Measured at grid 2 000: 5.56e-5 for v, 4.1e-6 for F3, 4.21e-6 for
    # F4 and 7.39e-6 for u.
    v_bound, F3_bound, F4_bound, u_bound = 1e-4, 1e-5, 1e-5, 1.5e-5
    # The measured coarsest F3 ratios are 3.1 (n = 3) and 2.8 (n = 1).
    F3_coarse_ratio = 2.5

    def test_second_order(self, measured):
        # A second-order scheme cuts the error 4x per halving of h; the
        # measured ratios are 3.4, 3.8, 3.9 (n = 3) and 3.5, 3.6, 4.0
        # (n = 1), and 3x is required.
        e = measured[self.n]["v"]
        assert all(coarse >= 3.0 * fine for coarse, fine in zip(e, e[1:])), e

    def test_error_at_grid_2000(self, measured):
        assert measured[self.n]["v"][GRIDS.index(2000)] <= self.v_bound, measured[self.n]

    def test_damped_oracle_matches_quad(self):
        # 25 radii over the mesh at t = 4, r = 0 included; measured
        # within 1e-15.
        radii = np.linspace(0.0, 5.2, 25)
        want = [u_quad(x, HORIZON, self.n) for x in radii]
        assert np.max(np.abs(u_exact(radii, HORIZON, self.n) - want)) <= 1e-13

    def test_damped_field_second_order(self, measured):
        # Measured ratios 3.3, 3.6, 4.0 (n = 1) and 3.4, 3.8, 3.9
        # (n = 3); 3x is required.  A maximum over 80 sampled nodes,
        # which move from grid to grid, once read 3.1 for one halving.
        e = measured[self.n]["u"]
        assert all(coarse >= 3.0 * fine for coarse, fine in zip(e, e[1:])), e

    def test_damped_field_error_at_grid_2000(self, measured):
        assert measured[self.n]["u"][GRIDS.index(2000)] <= self.u_bound, measured[self.n]


class TestFreeWaveN1(TestFreeWave):
    n = 1
    # Measured at grid 2 000: 2.02e-4 for v, 7.8e-7 for F3, 9.20e-7 for
    # F4 and 2.79e-5 for u.
    v_bound, F3_bound, F4_bound, u_bound = 4e-4, 2e-6, 2e-6, 6e-5
