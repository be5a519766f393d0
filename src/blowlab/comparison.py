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

and the functions are suitably large at some late time.  This module
checks the two conditions, integrates the sharp (equality) version of
the system with blow-up event detection, and evaluates the two
closed-form auxiliary scalar problems

    Y' = kappa e^{-nu t} (t+R)^{-alpha} Y^beta            (Bernoulli),
    Z' + Z = kappa e^{-gamma t} (t+R)^{-alpha} Z^beta,

whose bracket hitting zero is the blow-up event.  The Z problem is a
shifted Y problem: W = e^{t-T9} Z solves the Bernoulli equation for Y in
sigma = t - T9 with kappa e^{-gamma T9}, nu = gamma + beta - 1 and
R + T9.  Both are validated against a numerical ODE oracle in the test
suite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .exponents import Exponents, check_powers

__all__ = [
    "KatoParams",
    "ConditionReport",
    "TerminalReason",
    "OdeTrace",
    "check_conditions",
    "derive_params",
    "reduction_equiv_check",
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
        if self.alpha1 <= 0.0 or self.beta1 <= 0.0:
            raise ValueError("alpha1 and beta1 must be positive")
        if min(self.alpha2, self.beta2, self.beta3) < 0.0:
            raise ValueError("alpha2, beta2, beta3 must be nonnegative")
        for key in ("k0", "k1", "k2", "k3", "k4"):
            if getattr(self, key) <= 0.0:
                raise ValueError(f"{key}={getattr(self, key)} must be positive")
        if self.R <= 0.0 or self.T0 < 0.0:
            raise ValueError("need R > 0 and T0 >= 0")

    @property
    def k5(self) -> float:
        p, q = self.p, self.q
        base = 4 * (p + 1) * (p + 2)
        try:
            return ((2 * q + 1) * self.k2**q * self.k4
                    / (2 * ((p + 2) * q + 1) * base**q))
        except OverflowError:
            # k2^q or base^q is beyond the float range, but the q-th power
            # of their ratio saturates to 0 or inf.
            with np.errstate(over="ignore"):
                return float((2 * q + 1) * self.k4 / (2 * ((p + 2) * q + 1))
                             * np.float64(self.k2 / base) ** q)

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
class ConditionReport:
    """Both blow-up conditions evaluated exactly as written."""

    cond1_lhs: float
    cond1_rhs: float
    cond2_lhs: float
    cond2_rhs: float

    @property
    def cond1_slack(self) -> float:
        return self.cond1_rhs - self.cond1_lhs

    @property
    def cond2_slack(self) -> float:
        return self.cond2_rhs - self.cond2_lhs

    @property
    def cond1_holds(self) -> bool:
        return self.cond1_slack >= -CONDITION_TOLERANCE

    @property
    def cond2_holds(self) -> bool:
        return self.cond2_slack >= -CONDITION_TOLERANCE

    @property
    def cond1_boundary(self) -> bool:
        return abs(self.cond1_slack) <= CONDITION_TOLERANCE

    @property
    def cond2_boundary(self) -> bool:
        return abs(self.cond2_slack) <= CONDITION_TOLERANCE


def check_conditions(params: KatoParams) -> ConditionReport:
    """Evaluate conditions 1 and 2; equality cases are flagged separately
    because the blow-up proof splits on boundary versus strict inequality."""
    p, q = params.p, params.q
    return ConditionReport(
        cond1_lhs=params.beta2 + params.alpha2 * q,
        cond1_rhs=params.beta1 * (p * q - 1) + 2 * (q + 1),
        cond2_lhs=params.alpha2 + params.beta2 * p,
        cond2_rhs=params.alpha1 * (p * q - 1) + 2 * (p + 1),
    )


def derive_params(exponents: Exponents, constants: dict | None = None) -> KatoParams:
    """Instantiate the inequality system for the coupled PDE problem.

    The weights are

        alpha1 = 1 + (2-p)(n-1)/2,  alpha2 = n(p-1),
        beta1 = 1,                  beta2 = n(q-1),
        beta3 = ((3-sqrt(5))/2) q,

    and the k's follow the five functional lower bounds: k0 = C3,
    k1 = 4 C3, k3 = 1, with k2/k4 taken from audit-fitted constants when
    provided (keys ``k2``/``k4``, e.g. from an AuditReport), else 1
    (normalized study mode).  ``constants`` may also carry ``C3``.
    """
    p, q, n = exponents.p, exponents.q, exponents.n
    alpha1 = 1.0 + (2.0 - p) / 2.0 * (n - 1)
    if alpha1 <= 0.0:
        raise ValueError(f"{exponents.at_cap('p')}: alpha1 <= 0 violates "
                         "the comparison hypotheses")
    constants = constants or {}
    C3 = float(constants.get("C3", 1.0))
    k2 = float(constants.get("k2", 1.0))
    k4 = float(constants.get("k4", 1.0))
    return KatoParams(
        p=p, q=q,
        alpha1=alpha1, alpha2=n * (p - 1.0),
        beta1=1.0, beta2=n * (q - 1.0),
        beta3=(3.0 - math.sqrt(5.0)) / 2.0 * q,
        k0=C3, k1=4.0 * C3, k2=k2, k3=1.0, k4=k4,
        R=exponents.R,
    )


def reduction_equiv_check(p: float, q: float, n: int, tol: float = 1e-9) -> bool:
    """Verify the algebraic reduction of the two blow-up conditions.

    With the weights alpha1 = 1 + (2-p)(n-1)/2, alpha2 = n(p-1),
    beta1 = 1, beta2 = n(q-1), condition 1 is equivalent to
    (q+1)/(pq-1) >= (n-1)/2 and condition 2 to (2+2/p)/(pq-1) >= (n-1)/2
    (the two arguments of alpha_new).  Returns True iff the condition
    checker agrees with the closed forms, to ``tol`` per condition.
    """
    params = derive_params(Exponents(p, q, n))
    rep = check_conditions(params)
    d = p * q - 1.0
    closed1 = (q + 1.0) / d - (n - 1) / 2.0
    closed2 = (2.0 + 2.0 / p) / d - (n - 1) / 2.0
    # The raw slacks are exact positive multiples of the closed forms.
    scale1 = 2.0 * d
    scale2 = p * d
    ok1 = (abs(rep.cond1_slack - closed1 * scale1)
           <= tol * max(1.0, abs(rep.cond1_slack)))
    ok2 = (abs(rep.cond2_slack - closed2 * scale2)
           <= tol * max(1.0, abs(rep.cond2_slack)))
    agree1 = rep.cond1_holds == (closed1 * scale1 >= -tol)
    agree2 = rep.cond2_holds == (closed2 * scale2 >= -tol)
    return ok1 and ok2 and agree1 and agree2


class TerminalReason(enum.Enum):
    HORIZON = "horizon"
    BLOWUP = "blowup"
    STEP_UNDERFLOW = "step_underflow"


@dataclass
class OdeTrace:
    times: np.ndarray
    F1: np.ndarray
    dF1: np.ndarray
    F2: np.ndarray
    dF2: np.ndarray
    blowup_time: float | None
    terminal_reason: TerminalReason

    def csv_rows(self):
        yield "t,F1,dF1,F2,dF2"
        for row in zip(self.times, self.F1, self.dF1, self.F2, self.dF2):
            yield ",".join(f"{x:.17g}" for x in row)


def integrate_comparison(params: KatoParams, F1_0: float, dF1_0: float,
                         F2_0: float, dF2_0: float, horizon: float,
                         threshold: float = DEFAULT_ODE_THRESHOLD) -> OdeTrace:
    """Integrate the sharp (equality) comparison system from T0.

    Any solution of the inequality system majorizes the equality system,
    so blow-up here certifies blow-up there.  Adaptive embedded
    Runge-Kutta (rtol 1e-8, atol 1e-10) with terminal events at
    max(F1, F2) = threshold; the event time is refined by the solver's
    root finder.  A right-hand side that is already beyond the float
    range at T0 (for example F2_0^p = inf) is blow-up at T0: the trace
    then holds the initial row alone and the solver is not called.
    """
    if min(F1_0, dF1_0, F2_0, dF2_0) <= 0.0:
        raise ValueError("initial data must be positive")
    if horizon <= params.T0:
        raise ValueError("horizon must exceed T0")
    if not threshold > 0.0:
        raise ValueError(f"threshold={threshold} must be positive")
    p, q, R = params.p, params.q, params.R
    k2, k4, b3 = params.k2, params.k4, params.beta3
    a2, b2 = params.alpha2, params.beta2

    def rhs(t, y):
        F1, dF1, F2, dF2 = y
        # A float64 base makes a weight beyond the float range saturate to
        # inf, as in k5, where a Python float would raise OverflowError.
        s = np.float64(t + R)
        with np.errstate(over="ignore", invalid="ignore"):
            g1 = k2 * s ** (-a2) * max(F2, 0.0) ** p - dF1
            g2 = k4 * math.exp(-b3 * t) * s ** (-b2) * max(F1, 0.0) ** q
        return [dF1, g1, dF2, g2]

    def hit_f1(t, y):
        return y[0] - threshold

    def hit_f2(t, y):
        return y[2] - threshold

    hit_f1.terminal = True
    hit_f2.terminal = True

    y0 = np.array([F1_0, dF1_0, F2_0, dF2_0])
    if not np.all(np.isfinite(rhs(params.T0, y0))):
        rows = y0[:, np.newaxis]
        return OdeTrace(times=np.array([params.T0]), F1=rows[0], dF1=rows[1],
                        F2=rows[2], dF2=rows[3], blowup_time=params.T0,
                        terminal_reason=TerminalReason.BLOWUP)

    sol = solve_ivp(rhs, (params.T0, horizon), y0,
                    method="RK45", rtol=1e-8, atol=1e-10,
                    events=(hit_f1, hit_f2), dense_output=False)

    blowup_time = None
    if sol.status == 1:
        hits = [e[0] for e in sol.t_events if e.size]
        blowup_time = float(min(hits))
        reason = TerminalReason.BLOWUP
    elif sol.status == 0:
        reason = TerminalReason.HORIZON
    else:
        reason = TerminalReason.STEP_UNDERFLOW

    return OdeTrace(times=sol.t, F1=sol.y[0], dF1=sol.y[1],
                    F2=sol.y[2], dF2=sol.y[3],
                    blowup_time=blowup_time, terminal_reason=reason)


def _check_bernoulli_args(kappa, beta, Y0):
    if beta <= 1.0:
        raise ValueError(f"superlinear power required: beta > 1, got {beta}")
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    if Y0 <= 0.0:
        raise ValueError("initial value must be positive")


def _y_bracket(kappa, nu, alpha, beta, R, T6, Y0, t):
    """B(t) = Y0^{1-beta} - kappa (beta-1) int_{T6}^t e^{-nu s}(s+R)^{-alpha} ds."""
    integral, _ = quad(lambda s: math.exp(-nu * s) * (s + R) ** (-alpha), T6, t,
                       limit=200)
    return Y0 ** (1.0 - beta) - kappa * (beta - 1.0) * integral


def y_closed_form(kappa: float, nu: float, alpha: float, beta: float,
                  R: float, T6: float, Y0: float, t: float) -> float:
    """Exact solution of Y' = kappa e^{-nu t} (t+R)^{-alpha} Y^beta, Y(T6)=Y0.

    Returns B(t)^{-1/(beta-1)} where B is the Bernoulli bracket; raises
    :class:`OverflowError` carrying the blow-up signal when B(t) <= 0
    (the solution has already escaped to infinity at or before t).
    """
    _check_bernoulli_args(kappa, beta, Y0)
    if nu < 0.0 or R <= 0.0 or t < T6:
        raise ValueError("need nu >= 0, R > 0 and t >= T6")
    B = _y_bracket(kappa, nu, alpha, beta, R, T6, Y0, t)
    if B <= 0.0:
        raise OverflowError(f"solution blew up at or before t = {t}")
    return B ** (-1.0 / (beta - 1.0))


def _bracket_root(bracket, T_start):
    """Root of a monotone decreasing bracket (to 1e-9 relative), or None
    if it stays positive."""
    b0 = bracket(T_start)
    if b0 <= 0.0:
        return float(T_start)
    hi = max(1.0, abs(T_start) + 1.0)
    lo = T_start
    for _ in range(200):
        if bracket(hi) <= 0.0:
            root = brentq(bracket, lo, hi, rtol=1e-9, xtol=1e-14)
            return float(root)
        lo, hi = hi, 2.0 * hi
    return None


def y_blowup_time(kappa: float, nu: float, alpha: float, beta: float,
                  R: float, T6: float, Y0: float) -> float | None:
    """First zero of the Y bracket, or None if Y stays finite forever.

    When the weight integral converges (nu > 0 or alpha > 1) the bracket
    has a finite limit; a positive limit means no blow-up for this datum.
    """
    _check_bernoulli_args(kappa, beta, Y0)
    if kappa == 0.0:
        return None
    if nu > 0.0 or alpha > 1.0:
        tail, _ = quad(lambda s: math.exp(-nu * s) * (s + R) ** (-alpha),
                       T6, math.inf, limit=200)
        limit = Y0 ** (1.0 - beta) - kappa * (beta - 1.0) * tail
        if limit > 0.0:
            return None
    return _bracket_root(lambda t: _y_bracket(kappa, nu, alpha, beta, R, T6, Y0, t),
                         T6)


def z_closed_form(kappa: float, gamma: float, alpha: float, beta: float,
                  R: float, T9: float, Z0: float, t: float) -> float:
    """Exact solution of Z' + Z = kappa e^{-gamma t} (t+R)^{-alpha} Z^beta.

    Z(t) = e^{-(t-T9)} W(t-T9), where W solves the Y problem
    W' = kappa e^{-gamma T9} e^{-(gamma+beta-1) s} (s+R+T9)^{-alpha} W^beta,
    W(0) = Z0.  Raises :class:`OverflowError` when the bracket has hit zero.
    """
    _check_bernoulli_args(kappa, beta, Z0)
    if gamma < 0.0 or R <= 0.0 or t < T9:
        raise ValueError("need gamma >= 0, R > 0 and t >= T9")
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
    integral always converges and the large-data threshold is explicit:
    blow-up happens iff Z0^{1-beta} < kappa (beta-1) * (full integral)."""
    _check_bernoulli_args(kappa, beta, Z0)
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    root = y_blowup_time(kappa * math.exp(-gamma * T9), gamma + beta - 1.0,
                         alpha, beta, R + T9, 0.0, Z0)
    return None if root is None else T9 + root
