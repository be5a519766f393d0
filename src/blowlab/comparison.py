"""Comparison machinery for the system of differential inequalities

    F1           >= k0 (t+R)^{a1},
    F1' + F1     >= k1 (t+R)^{a1},
    F1'' + F1'   >= k2 (t+R)^{-a2} F2^p,
    F2           >= k3 (t+R)^{b1},
    F2''         >= k4 e^{-b3 t} (t+R)^{-b2} F1^q,

with p, q > 1, a1, b1 > 0 and a2, b2, b3 >= 0.  Blow-up of both F1 and
F2 follows when

    b2 + a2 q <= b1 (pq - 1) + 2 (q + 1)      (condition 1),
    a2 + b2 p <= a1 (pq - 1) + 2 (p + 1)      (condition 2),

and the functions are suitably large at some late time.  The
right-hand sides have one home, :meth:`KatoParams.lower_bounds`, which
``pde``'s audit checks and the sharp (equality) system integrates.
This module checks the two conditions, integrates that system with
blow-up event detection, and evaluates the two closed-form auxiliary
scalar problems

    Y' = kappa e^{-nu t} (t+R)^{-alpha} Y^beta            (Bernoulli),
    Z' + Z = kappa e^{-gamma t} (t+R)^{-alpha} Z^beta,

whose bracket hitting zero is the blow-up event.  The Z problem is a
shifted Y problem: W = e^{t-T9} Z solves the Bernoulli equation for Y in
sigma = t - T9 with kappa e^{-gamma T9}, nu = gamma + beta - 1 and
R + T9.  Both are validated against a numerical ODE oracle in the test
suite.

The system is integrated by this module's own numpy Dormand-Prince
5(4) pair.  One Brent root finder, ``_brent``, finds both the ODE's
threshold event and the zero of the Y and Z brackets, which integrate
with ``testfuncs.gauss_panels`` over finite ranges, importing it where
they call it: this module loads neither scipy nor the test functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .exponents import Exponents, check_nonnegative, check_positive, check_powers

__all__ = [
    "KatoParams",
    "Condition",
    "OdeTrace",
    "check_conditions",
    "derive_params",
    "reduction_equiv_check",
    "check_comparison_args",
    "integrate_comparison",
    "y_closed_form",
    "y_blowup_time",
    "z_closed_form",
    "z_blowup_time",
]

DEFAULT_ODE_THRESHOLD = 1e12
CONDITION_TOLERANCE = 1e-12


@dataclass(frozen=True)
class KatoParams:
    """Weights, powers and constants of the inequality system."""

    p: float
    q: float
    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    beta3: float
    k0: float = 1.0
    k1: float = 4.0
    k2: float = 1.0
    k3: float = 1.0
    k4: float = 1.0
    R: float = 1.0
    T0: float = 0.0

    def __post_init__(self):
        check_powers(self.p, self.q)
        check_positive(**{key: getattr(self, key) for key in
                          ("alpha1", "beta1", "k0", "k1", "k2", "k3", "k4", "R")})
        check_nonnegative(**{key: getattr(self, key) for key in
                             ("alpha2", "beta2", "beta3", "T0")})

    def lower_bounds(self, t, F1, F2, which=range(5)) -> list:
        """The right-hand sides ``which`` (0..4, in the order of the module
        docstring) at times t, with F1 and F2 at those times: floats, or
        arrays of one shape.  Each is k_i (shape), its powers taken on
        array bases, so a float gives what an array element gives, bit
        for bit; beyond the float range a bound is inf or 0, with no
        warning."""
        s = np.asarray(t + self.R)
        F1, F2 = np.asarray(F1, dtype=float), np.asarray(F2, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return [self.k0 * s**self.alpha1 if i == 0
                    else self.k1 * s**self.alpha1 if i == 1
                    else self.k2 * (s**-self.alpha2 * F2**self.p) if i == 2
                    else self.k3 * s**self.beta1 if i == 3
                    else self.k4 * (np.exp(-self.beta3 * t) * s**-self.beta2 * F1**self.q)
                    for i in which]

    @property
    def k5(self) -> float:
        # The float64 q-th power of k2 / (4(p+1)(p+2)) saturates to 0 or inf.
        p, q = self.p, self.q
        with np.errstate(over="ignore"):
            return float((2 * q + 1) * self.k4 / (2 * ((p + 2) * q + 1))
                         * np.float64(self.k2 / (4 * (p + 1) * (p + 2))) ** q)

    @property
    def k6(self) -> float:
        # Boundary-case constant; delta sits at the midpoint of its
        # admissible interval when that interval is nonempty, else 0.
        q = self.q
        x = (self.beta2 + self.alpha2 * q) / (2 * (q + 1))
        delta = max(0.0, (x - 1.0) / self.beta1) / 2.0
        return (self.k3 ** (-delta + (x - 1.0) / self.beta1)
                * self.k5 ** (1.0 / (2 * (q + 1))) / self.beta1)

    @property
    def k7(self) -> float:
        p, q = self.p, self.q
        e = 1.0 / (2 * (p + 1))
        return (self.k2**e * self.k4 ** (p * e)
                / (2 * ((q + 2) * p + 1) ** e * (4 * (q + 1) * (q + 2)) ** (p * e)))


@dataclass(frozen=True)
class Condition:
    """One blow-up condition, lhs <= rhs, evaluated exactly as written."""

    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.slack >= -CONDITION_TOLERANCE

    @property
    def boundary(self) -> bool:
        return abs(self.slack) <= CONDITION_TOLERANCE


def check_conditions(params: KatoParams) -> tuple[Condition, Condition]:
    """Conditions 1 and 2, in that order; equality cases are flagged
    separately because the blow-up proof splits on boundary versus strict
    inequality."""
    p, q = params.p, params.q
    return (Condition(lhs=params.beta2 + params.alpha2 * q,
                      rhs=params.beta1 * (p * q - 1) + 2 * (q + 1)),
            Condition(lhs=params.alpha2 + params.beta2 * p,
                      rhs=params.alpha1 * (p * q - 1) + 2 * (p + 1)))


def derive_params(exponents: Exponents, constants: dict | None = None) -> KatoParams:
    """Instantiate the inequality system for the coupled PDE problem.

    The weights are

        alpha1 = 1 + (2-p)(n-1)/2,  alpha2 = n(p-1),
        beta1 = 1,                  beta2 = n(q-1),
        beta3 = ((3-sqrt(5))/2) q,

    and k0 = C3, k1 = 4 C3, k3 = 1, with C3, k2 and k4 read from
    ``constants`` (the audit's C3 and Hoelder floors, or an audit's fitted
    k2 and k4 in a kato config), each 1 where absent.  Each must be
    positive; a ValueError names the offending key.
    """
    p, q, n = exponents.p, exponents.q, exponents.n
    alpha1 = 1.0 + (2.0 - p) / 2.0 * (n - 1)
    if alpha1 <= 0.0:
        raise ValueError(f"p={p:g} >= 2n/(n-1)={2.0 * n / (n - 1):g} for n={n}: "
                         "alpha1 <= 0 violates the comparison hypotheses")
    constants = constants or {}
    C3, k2, k4 = (float(constants.get(key, 1.0)) for key in ("C3", "k2", "k4"))
    # Checked under the names the caller gave, not as k0..k4.
    check_positive(C3=C3, k2=k2, k4=k4)
    return KatoParams(
        p=p, q=q,
        alpha1=alpha1, alpha2=n * (p - 1.0),
        beta1=1.0, beta2=n * (q - 1.0),
        beta3=(3.0 - math.sqrt(5.0)) / 2.0 * q,
        k0=C3, k1=4.0 * C3, k2=k2, k3=1.0, k4=k4,
        R=exponents.R,
    )


def reduction_equiv_check(p: float, q: float, n: int) -> bool:
    """Verify the algebraic reduction of the two blow-up conditions.

    With the weights alpha1 = 1 + (2-p)(n-1)/2, alpha2 = n(p-1),
    beta1 = 1, beta2 = n(q-1), condition 1 is equivalent to
    (q+1)/(pq-1) >= (n-1)/2 and condition 2 to (2+2/p)/(pq-1) >= (n-1)/2
    (the two arguments of alpha_new).  Returns True iff the condition
    checker agrees with the closed forms, to 1e-9 per condition.
    """
    tol = 1e-9
    d = p * q - 1.0
    # The raw slacks are exact positive multiples of the closed forms.
    closed = (((q + 1.0) / d - (n - 1) / 2.0) * (2.0 * d),
              ((2.0 + 2.0 / p) / d - (n - 1) / 2.0) * (p * d))
    conditions = check_conditions(derive_params(Exponents(p, q, n)))
    return all(abs(cond.slack - x) <= tol * max(1.0, abs(cond.slack))
               and cond.holds == (x >= -tol)
               for cond, x in zip(conditions, closed))


@dataclass
class OdeTrace:
    times: np.ndarray
    F1: np.ndarray
    dF1: np.ndarray
    F2: np.ndarray
    dF2: np.ndarray
    blowup_time: float | None
    outcome: str                      # horizon | blowup


def check_comparison_args(params: KatoParams, F1_0: float, dF1_0: float,
                          F2_0: float, dF2_0: float, horizon: float,
                          ode_threshold: float) -> None:
    """Raise ValueError unless ``integrate_comparison`` accepts these
    arguments: positive data and threshold, and a horizon after T0."""
    check_positive(F1_0=F1_0, dF1_0=dF1_0, F2_0=F2_0, dF2_0=dF2_0)
    if not horizon > params.T0:
        raise ValueError(f"horizon={horizon} must exceed T0={params.T0}")
    check_positive(ode_threshold=ode_threshold)


# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math.
# 6, 1980): nodes C, stages A, 5th-order weights B, error weights E (the
# 5th- minus the 4th-order weights, the last on the FSAL stage) and the
# free 4th-order interpolant P of Shampine (Math. Comp. 46, 1986), one
# row per stage, the coefficients of x, x^2, x^3, x^4.
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_RTOL, _ATOL = 1e-8, 1e-10  # the step control's tolerances


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _first_step(fun, t0, y0, f0, t_bound):
    """The starting step of Hairer, Norsett & Wanner (Solving ODEs I,
    II.4) for an error estimator of order 4, capped at t_bound - t0."""
    interval = abs(t_bound - t0)
    scale = _ATOL + np.abs(y0) * _RTOL
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    d2 = _rms((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def _dp_step(fun, t, y, f, h, K):
    """One Dormand-Prince step of size h from (t, y), with f = fun(t, y):
    the 5th-order state at t + h and fun there.  K receives the seven
    stages, the last of them fun(t + h, state)."""
    K[0] = f
    for s, (a, c) in enumerate(zip(_DP_A[1:], _DP_C[1:]), start=1):
        K[s] = fun(t + c * h, y + np.dot(K[:s].T, a[:s]) * h)
    y_new = y + h * np.dot(K[:-1].T, _DP_B)
    f_new = K[-1] = fun(t + h, y_new)
    return y_new, f_new


def _brent(f, a, b, xtol, rtol):
    """A zero of f between a and b, where f changes sign, by Brent's
    method to an x tolerance of xtol + rtol |x|.  This is the loop of
    scipy.optimize.brentq (100 iterations at most; a NaN value, or no
    sign change, is a ValueError), so a root agrees with brentq's at the
    same xtol and rtol bit for bit."""
    def value(x):
        fx = np.float64(f(x))
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN")
        return fx

    xpre, xcur = np.float64(a), np.float64(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = np.float64(0.0)
    for _ in range(100):
        # xblk brackets the zero with xcur, and |fcur| <= |fblk|.
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # Secant step.
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # Inverse quadratic step.
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method did not converge after 100 iterations, at {xcur}")


def _dormand_prince(fun, t0, y0, t_bound, event):
    """Integrate y' = fun(t, y) from (t0, y0) towards t_bound by adaptive
    Dormand-Prince 5(4) steps, until event(y) changes sign.

    The step control is that of Hairer, Norsett & Wanner (Solving ODEs I,
    II.4): the error is the RMS of the error estimate over _ATOL + _RTOL
    max(|y|, |y_new|), a step is accepted when it is below 1, and the
    next step is scaled by 0.9 error^(-1/5) within [0.2, 10], by at most
    1 right after a rejection.  A step below 10 spacings of t fails.
    After an accepted step on which event(y) changes sign (or reaches
    0), the event time is the zero of event on the step's 4th-order
    interpolant, by Brent's method to 4 machine epsilons.

    Returns the times, the states at them and a status: 0 when t_bound
    is reached; 1 at the event, whose time and interpolated state end
    the lists; -1 when a step fails, after the last accepted time.
    This is scipy's solve_ivp(method="RK45") with one terminal event,
    step for step, in the same numpy operations: the two give the same
    times and states, bit for bit.
    """
    t, y, f, g = t0, y0, fun(t0, y0), event(y0)
    h_abs = _first_step(fun, t0, y0, f, t_bound)
    K = np.empty((_DP_C.size + 1, y0.size))
    times, states = [t0], [y0]
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return times, states, -1
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _dp_step(fun, t, y, f, h, K)
            scale = _ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _RTOL
            error = _rms(np.dot(K.T, _DP_E) * h / scale)
            if error < 1:
                break
            h_abs *= max(0.2, 0.9 * error ** -0.2)
            rejected = True
        factor = 10 if error == 0 else min(10, 0.9 * error ** -0.2)
        h_abs *= min(1, factor) if rejected else factor
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        g_old, g = g, event(y)
        if g_old <= 0 <= g or g <= 0 <= g_old:
            Q = K.T.dot(_DP_P)

            def dense(s):
                x = np.cumprod(np.tile((np.asarray(s) - t_old) / h, Q.shape[1]))
                return h * np.dot(Q, x) + y_old

            tol = 4 * np.finfo(float).eps
            t = _brent(lambda s: event(dense(s)), t_old, t, xtol=tol, rtol=tol)
            times.append(t)
            states.append(dense(t))
            return times, states, 1
        times.append(t)
        states.append(y)
    return times, states, 0


def integrate_comparison(params: KatoParams, F1_0: float, dF1_0: float,
                         F2_0: float, dF2_0: float, horizon: float,
                         ode_threshold: float = DEFAULT_ODE_THRESHOLD) -> OdeTrace:
    """Integrate the sharp (equality) comparison system from T0: the
    second-order pair of :meth:`KatoParams.lower_bounds` as equalities.

    Any solution of the inequality system majorizes the equality system,
    so blow-up here certifies blow-up there.  Adaptive Dormand-Prince
    5(4) (rtol 1e-8, atol 1e-10; see ``_dormand_prince``) with a
    terminal event at max(F1, F2) = ode_threshold; the event time is the
    root, by Brent's method, of the step's 4th-order interpolant, and
    the last row is the interpolated state there.  Initial data at or
    above the threshold, or a right-hand side that is already beyond the
    float range at T0 (for example F2_0^p = inf), is blow-up at T0: the
    trace then holds the initial row alone and the solver is not called.

    The run's ``outcome`` is ``"horizon"`` when the solver reaches the
    horizon, and ``"blowup"`` otherwise, at the last time of the trace:
    the event time, or the last accepted time when a step fails.  With
    positive data F1 and F2 only grow, so a step fails only where the
    solution leaves the float range within the resolution of t.
    """
    check_comparison_args(params, F1_0, dF1_0, F2_0, dF2_0, horizon, ode_threshold)

    def rhs(t, y):
        F1, dF1, F2, dF2 = y
        g1, g2 = params.lower_bounds(t, max(F1, 0.0), max(F2, 0.0), which=(2, 4))
        return np.array([dF1, g1 - dF1, dF2, g2], dtype=float)

    def hit_threshold(y):
        return max(y[0], y[2]) - ode_threshold

    y0 = np.array([F1_0, dF1_0, F2_0, dF2_0], dtype=float)
    if (max(F1_0, F2_0) >= ode_threshold
            or not np.all(np.isfinite(rhs(params.T0, y0)))):
        times, rows, horizon_reached = [params.T0], [y0], False
    else:
        # A right-hand side finite at T0 may still overflow the solver's
        # own norms (its first-step estimate squares it); a step that
        # leaves the float range fails, which is blow-up, silently.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            times, rows, status = _dormand_prince(
                rhs, float(params.T0), y0, float(horizon), hit_threshold)
        # status 0: the horizon; 1: the event, whose time ends the times;
        # -1: a failed step, after the last accepted time.
        horizon_reached = status == 0
    times, rows = np.array(times), np.vstack(rows).T
    return OdeTrace(times=times, F1=rows[0], dF1=rows[1], F2=rows[2], dF2=rows[3],
                    blowup_time=None if horizon_reached else float(times[-1]),
                    outcome="horizon" if horizon_reached else "blowup")


def _check_bernoulli_args(kappa, beta, R, rate, start, initial_value):
    """Raise ValueError unless a Y or Z problem is well posed: beta > 1,
    kappa and the rate nonnegative, R > 0, a start T with T + R > 0 (the
    weight's (s+R)^{-alpha} is real from T on) and a positive initial
    value.  ``rate``, ``start`` and ``initial_value`` are (name, value)
    pairs: nu, T6, Y0 for Y and gamma, T9, Z0 for Z."""
    if beta <= 1.0:
        raise ValueError(f"superlinear power required: beta > 1, got {beta}")
    check_nonnegative(kappa=kappa, **dict([rate]))
    check_positive(**dict([initial_value]))
    name, T = start
    if not (R > 0.0 and T + R > 0.0):
        raise ValueError(f"need R > 0 and {name} + R > 0, got R={R}, {name}={T}")


def _y_bracket(kappa, nu, alpha, beta, R, T6, Y0, t):
    """B(t) = Y0^{1-beta} - kappa (beta-1) int_{T6}^t e^{-nu s}(s+R)^{-alpha} ds,
    t finite: panels at most 20/nu wide on pieces where s + R doubles, up
    to s = 750/nu (e^{-nu s} is 0.0 past it; the stop caps the panels)."""
    from .testfuncs import gauss_panels

    end = min(t, 750.0 / nu) if nu > 0.0 else t
    pieces = math.ceil(math.log2((end + R) / (T6 + R)))
    edges = np.minimum(T6 + (T6 + R) * (2.0 ** np.arange(pieces + 1) - 1.0), end)
    integral = gauss_panels(lambda s: np.exp(-nu * s) * (s + R) ** -alpha, edges,
                            20.0 / nu if nu > 0.0 else math.inf).sum()
    return Y0 ** (1.0 - beta) - kappa * (beta - 1.0) * float(integral)


def y_closed_form(kappa: float, nu: float, alpha: float, beta: float,
                  R: float, T6: float, Y0: float, t: float) -> float:
    """Exact solution of Y' = kappa e^{-nu t} (t+R)^{-alpha} Y^beta, Y(T6)=Y0.

    Returns B(t)^{-1/(beta-1)} where B is the Bernoulli bracket; raises
    :class:`OverflowError` carrying the blow-up signal when B(t) <= 0
    (the solution has already escaped to infinity at or before t).
    """
    _check_bernoulli_args(kappa, beta, R, ("nu", nu), ("T6", T6), ("Y0", Y0))
    if not T6 <= t < math.inf:
        raise ValueError(f"need a finite t >= T6, got t={t}, T6={T6}")
    B = _y_bracket(kappa, nu, alpha, beta, R, T6, Y0, t)
    if B <= 0.0:
        raise OverflowError(f"solution blew up at or before t = {t}")
    return B ** (-1.0 / (beta - 1.0))


def y_blowup_time(kappa: float, nu: float, alpha: float, beta: float,
                  R: float, T6: float, Y0: float) -> float | None:
    """First zero of the Y bracket B, or None.

    The search doubles its end hi from max(1, |T6| + 1), at most 200
    times, and finds the zero by Brent's method (1e-9 relative) on the
    first [lo, hi] with B(hi) <= 0.  None is proved when kappa = 0 or
    B(hi) > kappa (beta-1) h(hi)/c, with h(s) = e^{-nu s}(s+R)^{1-alpha}
    and c = nu (hi+R) + alpha - 1 > 0: -h' is the weight times a factor
    that is c at hi and grows, so h(hi)/c bounds the weight's integral
    past hi (exactly, for nu = 0).  For nu = 0 and alpha <= 1 the
    integral diverges, and None means no zero within the 200 doublings.
    """
    _check_bernoulli_args(kappa, beta, R, ("nu", nu), ("T6", T6), ("Y0", Y0))
    if kappa == 0.0:
        return None
    bracket = partial(_y_bracket, kappa, nu, alpha, beta, R, T6, Y0)
    lo, hi = T6, max(1.0, abs(T6) + 1.0)
    for _ in range(200):
        b, s = bracket(hi), hi + R
        if b <= 0.0:
            return float(_brent(bracket, lo, hi, xtol=1e-14, rtol=1e-9))
        c = nu * s + alpha - 1.0
        if c > 0.0 and b > kappa * (beta - 1.0) * math.exp(-nu * hi) * s ** (1.0 - alpha) / c:
            return None
        lo, hi = hi, 2.0 * hi
    return None


def z_closed_form(kappa: float, gamma: float, alpha: float, beta: float,
                  R: float, T9: float, Z0: float, t: float) -> float:
    """Exact solution of Z' + Z = kappa e^{-gamma t} (t+R)^{-alpha} Z^beta.

    Z(t) = e^{-(t-T9)} W(t-T9), where W solves the Y problem
    W' = kappa e^{-gamma T9} e^{-(gamma+beta-1) s} (s+R+T9)^{-alpha} W^beta,
    W(0) = Z0.  Raises :class:`OverflowError` when the bracket has hit zero.
    """
    _check_bernoulli_args(kappa, beta, R, ("gamma", gamma), ("T9", T9), ("Z0", Z0))
    if not t >= T9:
        raise ValueError(f"need t >= T9, got t={t}, T9={T9}")
    try:
        W = y_closed_form(kappa * math.exp(-gamma * T9), gamma + beta - 1.0,
                          alpha, beta, R + T9, 0.0, Z0, t - T9)
    except OverflowError:
        raise OverflowError(f"solution blew up at or before t = {t}") from None
    return math.exp(-(t - T9)) * W


def z_blowup_time(kappa: float, gamma: float, alpha: float, beta: float,
                  R: float, T9: float, Z0: float) -> float | None:
    """First zero of the Z bracket, or None if it stays positive.

    The shifted Y problem has nu = gamma + beta - 1 > 0, so its weight
    integral converges and every None of :func:`y_blowup_time` is proved."""
    _check_bernoulli_args(kappa, beta, R, ("gamma", gamma), ("T9", T9), ("Z0", Z0))
    root = y_blowup_time(kappa * math.exp(-gamma * T9), gamma + beta - 1.0,
                         alpha, beta, R + T9, 0.0, Z0)
    return None if root is None else T9 + root
