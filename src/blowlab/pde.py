"""Radial finite-difference simulation of the coupled system

    u_tt - Laplace(u) + u_t = |v|^p,
    v_tt - Laplace(v)       = |u|^q,

with compactly supported, nonnegative, radially symmetric data, plus a
live audit of the functional inequalities that drive the blow-up
argument.  The solver is an explicit leapfrog scheme: central
differences in time and radial space, with the damping term split
symmetrically as (u^{k+1} - u^{k-1}) / (2 dt) and solved for u^{k+1} in
closed form.  Wave speed is exactly 1, so the CFL factor defaults to
0.5 and the outer Dirichlet boundary is never reached by the support
before the horizon (finite speed of propagation).

Tracked functionals (radial quadrature, trapezoid on the mesh):

    F1 = int u dx,  F2 = int v dx,
    F3 = int v psi2 dx,  F4 = int u psi1 dx,
    J1 = F3^p,  J3 = F4^q,
    J2 = (int_{|x|<=t+R} psi2^{p'} dx)^{-(p-1)},
    J4 = (int_{|x|<=t+R} psi1^{q'} dx)^{-(q-1)}.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .exponents import Exponents
from .testfuncs import (
    TestFunctionKind,
    ball_volume,
    phi,
    radial_laplacian,
    sphere_area,
    weighted_power_integral,
)

__all__ = [
    "AMPLITUDE_KEYS",
    "Profile",
    "InitialData",
    "CoupledState",
    "FunctionalTrace",
    "InequalityRecord",
    "AuditReport",
    "BlowUpDetected",
    "NumericalInstability",
    "init_state",
    "step",
    "run",
    "functionals",
    "support_radius",
    "audit_inequalities",
]

DEFAULT_BLOWUP_THRESHOLD = 1e12

# Bounds on the work one run may ask for: mesh nodes, and leapfrog steps
# ceil(horizon / dt).  The grid-refinement ladder's finest rung has 16000
# nodes and takes about 29000 steps.
MAX_GRID_POINTS = 100_000
MAX_STEPS = 1_000_000

AMPLITUDE_KEYS = ("amplitude_u0", "amplitude_u1", "amplitude_v0", "amplitude_v1")


class BlowUpDetected(RuntimeError):
    """A field crossed the blow-up threshold (the expected outcome)."""

    def __init__(self, time: float, peak: float):
        super().__init__(f"blow-up threshold crossed at t = {time:.6g} (peak {peak:.3g})")
        self.time = time
        self.peak = peak


class NumericalInstability(RuntimeError):
    """NaN/inf appeared before the threshold: a scheme pathology, not blow-up."""

    def __init__(self, time: float):
        super().__init__(f"non-finite field at t = {time:.6g} before threshold")
        self.time = time


class Profile(enum.Enum):
    SMOOTH_BUMP = "smooth"
    POLYNOMIAL_BUMP = "polynomial"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"profile={value!r} must be smooth or polynomial")


@dataclass(frozen=True)
class InitialData:
    """Nonnegative, compactly supported, C^2 radial initial data.

    Both profiles vanish identically for r >= R, the support radius
    held by :class:`Exponents`:

        SMOOTH_BUMP      A exp(1 - 1/(1 - (r/R)^2)),
        POLYNOMIAL_BUMP  A (1 - (r/R)^2)^3.
    """

    profile: Profile = Profile.SMOOTH_BUMP
    amplitude_u0: float = 1.0
    amplitude_u1: float = 1.0
    amplitude_v0: float = 1.0
    amplitude_v1: float = 1.0

    def __post_init__(self):
        for key in AMPLITUDE_KEYS:
            if getattr(self, key) < 0.0:
                raise ValueError(f"{key}={getattr(self, key)} must be nonnegative")

    def shape(self, r: np.ndarray, R: float) -> np.ndarray:
        """Unit-amplitude profile of support radius R evaluated on the mesh."""
        s = np.asarray(r, dtype=float) / R
        inside = s < 1.0
        out = np.zeros_like(s)
        if self.profile is Profile.SMOOTH_BUMP:
            si = s[inside]
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - si**2))
        else:
            si = s[inside]
            out[inside] = (1.0 - si**2) ** 3
        return out

    def sample(self, r: np.ndarray, R: float):
        """(u0, u1, v0, v1) of support radius R on the mesh."""
        base = self.shape(r, R)
        return tuple(getattr(self, key) * base for key in AMPLITUDE_KEYS)


@dataclass
class CoupledState:
    """Two time levels of the discretized radial fields."""

    exponents: Exponents
    time: float
    h: float
    dt: float
    r: np.ndarray
    u: np.ndarray
    u_prev: np.ndarray
    v: np.ndarray
    v_prev: np.ndarray
    coupling: bool = True


def init_state(exponents: Exponents, data: InitialData, grid_points: int,
               horizon: float, cfl_factor: float = 0.5,
               coupling: bool = True) -> CoupledState:
    """Sample the data on the mesh and seed the previous time level.

    The backward level at -dt comes from a second-order Taylor expansion
    using u_t(0) = u1 and u_tt(0) = Laplace(u0) - u1 + |v0|^p (and the
    undamped analogue for v), so the first leapfrog step is second-order
    accurate.
    """
    n = exponents.n
    if grid_points < 200:
        raise ValueError(f"grid_points={grid_points}: need at least 200 grid points")
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(f"grid_points={grid_points} exceeds the bound {MAX_GRID_POINTS}")
    if horizon <= 0.0:
        raise ValueError(f"horizon={horizon} must be positive")
    if not 0.0 < cfl_factor <= 1.0:
        raise ValueError(f"cfl_factor={cfl_factor}: CFL factor must lie in (0, 1]")
    if n > 3:
        raise ValueError(f"n={n}: the radial simulator supports n <= 3")
    if not exponents.simulator_range_ok():
        key = "p" if exponents.p >= exponents.cap else "q"
        raise ValueError(f"exponents out of range: {exponents.at_cap(key)}")
    zero = [key for key in AMPLITUDE_KEYS if getattr(data, key) == 0.0]
    if len(zero) == len(AMPLITUDE_KEYS):
        raise ValueError("initial data must not vanish identically")
    if coupling and zero:
        # The blow-up machinery needs int u_j dx > 0 and int v_j dx > 0.
        raise ValueError(
            f"{zero[0]}=0.0: all four data components must be strictly "
            "positive for a coupled run (the functional lower bounds require it)"
        )

    # r_max = R + horizon + margin, with the margin fixed at five cells.
    h = (exponents.R + horizon) / (grid_points - 6)
    r_max = exponents.R + horizon + 5.0 * h
    # Checked before the mesh is built: the run evaluates phi out to the
    # last node, so that node must pass phi's overflow guard, and the step
    # count ceil(horizon / dt) must not exceed MAX_STEPS (compared by a
    # product, since cfl_factor * h may underflow to 0).
    phi(r_max, n)
    if horizon > MAX_STEPS * cfl_factor * h:
        raise ValueError(f"horizon={horizon}, cfl_factor={cfl_factor}: the run "
                         f"would take more than {MAX_STEPS} steps")
    r = np.linspace(0.0, r_max, grid_points)
    h = float(r[1] - r[0])
    dt = cfl_factor * h

    u0, u1, v0, v1 = data.sample(r, exponents.R)
    f_u = np.abs(v0) ** exponents.p if coupling else np.zeros_like(v0)
    f_v = np.abs(u0) ** exponents.q if coupling else np.zeros_like(u0)
    utt0 = radial_laplacian(u0, r, h, n) - u1 + f_u
    vtt0 = radial_laplacian(v0, r, h, n) + f_v
    u_prev = u0 - dt * u1 + 0.5 * dt**2 * utt0
    v_prev = v0 - dt * v1 + 0.5 * dt**2 * vtt0
    u_prev[-1] = 0.0
    v_prev[-1] = 0.0

    return CoupledState(exponents=exponents, time=0.0, h=h, dt=dt, r=r,
                        u=u0, u_prev=u_prev, v=v0, v_prev=v_prev,
                        coupling=coupling)


def step(state: CoupledState, dt: float | None = None,
         blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD) -> CoupledState:
    """Advance one leapfrog time level.

    Raises :class:`BlowUpDetected` when a field crosses the blow-up
    threshold and :class:`NumericalInstability` when a non-finite value
    appears before the threshold.

    Fields are zeroed beyond the causal radius time + R + 2h: the exact
    solution vanishes there by finite speed of propagation, while the
    explicit stencil would otherwise transport sub-truncation-level
    leakage outward at grid speed h/dt > 1.  The clip conserves the
    r^{n-1}-weighted integral of each field (the leaked content is
    re-deposited in the cell at the causal edge), so the tracked mass
    functionals are unaffected by it.

    The step computes only on the causal window, the mesh prefix up to
    two nodes past the causal radius of ``state.time``, and leaves the
    rest exactly 0.  This relies on the inputs (u, v and both previous
    levels) vanishing beyond that radius: ``init_state`` seeds the
    previous level inside r < R + h, and the clip keeps every state
    returned here inside it.  The three-point stencil then reaches at
    most one node further.  Once the radius passes the outer boundary
    the window is the whole mesh.  The input state is not modified.
    """
    if dt is None:
        dt = state.dt
    if dt <= 0.0 or dt > state.h:
        raise ValueError(f"time step {dt} violates the CFL bound (h = {state.h:g})")
    ex = state.exponents
    n = ex.n
    hi = min(state.r.size, int(np.searchsorted(
        state.r, state.time + ex.R + 2.0 * state.h, side="right")) + 2)
    r = state.r[:hi]
    u, u_prev = state.u[:hi], state.u_prev[:hi]
    v, v_prev = state.v[:hi], state.v_prev[:hi]
    lap_u = radial_laplacian(u, r, state.h, n)
    lap_v = radial_laplacian(v, r, state.h, n)
    u_next = np.zeros_like(state.u)
    v_next = np.zeros_like(state.v)
    with np.errstate(over="ignore", invalid="ignore"):
        if state.coupling:
            f_u = np.abs(v) ** ex.p
            f_v = np.abs(u) ** ex.q
        else:
            f_u = 0.0
            f_v = 0.0
        u_next[:hi] = (2.0 * u - (1.0 - 0.5 * dt) * u_prev
                       + dt**2 * (lap_u + f_u)) / (1.0 + 0.5 * dt)
        v_next[:hi] = 2.0 * v - v_prev + dt**2 * (lap_v + f_v)
    u_next[-1] = 0.0
    v_next[-1] = 0.0

    t_next = state.time + dt
    # First node beyond the causal radius; the mesh is increasing, and
    # r[1] = h lies inside the radius, so the edge node is never the origin.
    outside = np.searchsorted(state.r, t_next + ex.R + 2.0 * state.h, side="right")
    if outside < hi:
        edge = outside - 1
        w = r[edge:] ** (n - 1)
        u_next[edge] += np.dot(u_next[outside:hi], w[1:]) / w[0]
        v_next[edge] += np.dot(v_next[outside:hi], w[1:]) / w[0]
        u_next[outside:hi] = 0.0
        v_next[outside:hi] = 0.0
    # np.maximum and np.max propagate NaN, so one non-finite value anywhere
    # makes the peak non-finite.
    peak = np.maximum(np.max(np.abs(u_next[:hi])), np.max(np.abs(v_next[:hi])))
    if not np.isfinite(peak):
        peak_prev = np.maximum(np.max(np.abs(u)), np.max(np.abs(v)))
        if peak_prev > blowup_threshold:
            raise BlowUpDetected(state.time, peak_prev)
        raise NumericalInstability(t_next)
    if peak > blowup_threshold:
        raise BlowUpDetected(t_next, peak)

    return replace(state, time=t_next, u=u_next, u_prev=state.u,
                   v=v_next, v_prev=state.v)


def support_radius(state: CoupledState) -> float:
    """Largest mesh radius where either field exceeds the support tolerance.

    The tolerance is 1e-12 relative to the current peak field value; a
    zero state has support radius 0.
    """
    mag = np.maximum(np.abs(state.u), np.abs(state.v))
    peak = float(np.max(mag))
    if peak == 0.0:
        return 0.0
    idx = np.nonzero(mag > 1e-12 * peak)[0]
    return float(state.r[idx[-1]])


def functionals(state: CoupledState, phi_mesh: np.ndarray | None = None) -> dict:
    """All tracked functionals of one state, by radial quadrature."""
    ex = state.exponents
    n = ex.n
    if phi_mesh is None:
        phi_mesh = phi(state.r, n)
    w = state.r ** (n - 1)
    surf = sphere_area(n)

    def quad(f):
        return surf * float(np.trapezoid(f * w, dx=state.h))

    t = state.time
    F1 = quad(state.u)
    F2 = quad(state.v)
    F3 = math.exp(-t) * quad(state.v * phi_mesh)
    F4 = math.exp(-TestFunctionKind.PSI1.decay_rate * t) * quad(state.u * phi_mesh)
    p_conj = ex.p / (ex.p - 1.0)
    q_conj = ex.q / (ex.q - 1.0)
    W2 = weighted_power_integral(TestFunctionKind.PSI2, p_conj, t, ex.R, n)
    W4 = weighted_power_integral(TestFunctionKind.PSI1, q_conj, t, ex.R, n)
    return {
        "F1": F1, "F2": F2, "F3": F3, "F4": F4,
        "J1": F3 ** ex.p, "J2": W2 ** (-(ex.p - 1.0)),
        "J3": F4 ** ex.q, "J4": W4 ** (-(ex.q - 1.0)),
    }


@dataclass
class FunctionalTrace:
    """Time series of the tracked functionals plus solver diagnostics.

    The array fields, ``times`` through ``support_r``, are the columns of
    ``trace.csv`` in order; ``run`` builds them from one row per sample.
    """

    times: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    F3: np.ndarray
    F4: np.ndarray
    J1: np.ndarray
    J2: np.ndarray
    J3: np.ndarray
    J4: np.ndarray
    max_abs_u: np.ndarray
    max_abs_v: np.ndarray
    support_r: np.ndarray
    outcome: str                      # completed | blowup | instability
    blowup_time: float | None
    h: float
    dt: float
    # Data-weighted integrals int u_j phi dx, int v_j phi dx (audit constants).
    data_integrals: dict = field(default_factory=dict)

    def csv_rows(self):
        header = "t,F1,F2,F3,F4,J1,J2,J3,J4,max_u,max_v,support_r"
        yield header
        cols = (self.times, self.F1, self.F2, self.F3, self.F4, self.J1,
                self.J2, self.J3, self.J4, self.max_abs_u, self.max_abs_v,
                self.support_r)
        for row in zip(*cols):
            yield ",".join(f"{x:.17g}" for x in row)


def run(exponents: Exponents, data: InitialData, grid_points: int = 2000,
        horizon: float = 10.0, sample_every: int = 10,
        cfl_factor: float = 0.5, coupling: bool = True,
        blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD) -> FunctionalTrace:
    """Integrate to the horizon or to blow-up, sampling the functionals.

    Blow-up is recorded as an outcome, not raised; a NaN/inf before the
    threshold is recorded as ``instability``.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be a positive integer")
    if not blowup_threshold > 0.0:
        raise ValueError(f"blowup_threshold={blowup_threshold} must be positive")
    state = init_state(exponents, data, grid_points, horizon,
                       cfl_factor=cfl_factor, coupling=coupling)
    n = exponents.n
    phi_mesh = phi(state.r, n)
    w = state.r ** (n - 1)
    surf = sphere_area(n)
    data_integrals = {
        key.replace("amplitude", "int_phi"):
            surf * float(np.trapezoid(f * phi_mesh * w, dx=state.h))
        for key, f in zip(AMPLITUDE_KEYS, data.sample(state.r, exponents.R))
    }

    rows = []

    def record(s: CoupledState):
        rows.append((s.time, *functionals(s, phi_mesh).values(),
                     float(np.max(np.abs(s.u))), float(np.max(np.abs(s.v))),
                     support_radius(s)))

    record(state)
    n_steps = int(math.ceil(horizon / state.dt))
    outcome = "completed"
    blowup_time = None
    for k in range(1, n_steps + 1):
        try:
            state = step(state, blowup_threshold=blowup_threshold)
        except BlowUpDetected as e:
            outcome = "blowup"
            blowup_time = e.time
            break
        except NumericalInstability:
            outcome = "instability"
            break
        if k % sample_every == 0 or k == n_steps:
            record(state)

    return FunctionalTrace(*np.array(rows).T, outcome=outcome,
                           blowup_time=blowup_time, h=state.h, dt=state.dt,
                           data_integrals=data_integrals)


@dataclass
class InequalityRecord:
    name: str
    constant: float
    margin_min: float
    scale: float
    passed: bool


@dataclass
class AuditReport:
    """Fitted constants and margins of the five functional inequalities."""

    C0: float
    C1: float
    C2: float
    C2tilde: float
    C3: float
    fitted_k2: float
    fitted_k4: float
    records: list
    window: tuple
    min_passing_T0: float | None
    inconclusive: bool = False
    note: str = ""

    @property
    def all_pass(self) -> bool:
        return (not self.inconclusive) and all(r.passed for r in self.records)

    def constants(self) -> dict:
        return {"C0": self.C0, "C1": self.C1, "C2": self.C2,
                "C2tilde": self.C2tilde, "C3": self.C3,
                "k2": self.fitted_k2, "k4": self.fitted_k4}


def audit_inequalities(trace: FunctionalTrace, exponents: Exponents,
                       T0_fraction: float = 0.3) -> AuditReport:
    """Audit the five functional lower bounds on a recorded trace.

    Constants: C0 and C1 come from the phi-weighted data integrals, C2
    and C2tilde are fitted envelopes of the conjugate-power weights
    recovered from J2 and J4, and C3 = C0^p C2^{-(p-1)} / (4(2+(2-p)(n-1))).
    The two second-order inequalities use the Hoelder floor
    |B_1(0)|^{1-s} (unit-ball volume) as their constant, which is the
    sharp provable coefficient; the best constants the trace actually
    supports are reported as fitted_k2 / fitted_k4.

    Derivatives of the F-traces are one-pass central differences; the
    last three samples are excluded from the audit window because the
    end-of-trace derivative estimates are unreliable (one-sided stencils
    on a possibly exploding signal), so a trace of at most three samples
    is inconclusive.  A margin passes down to -1e-9 times max |lhs|.
    """
    if trace.outcome == "instability":
        raise ValueError("cannot audit an unstable run")
    if not 0.0 < T0_fraction < 1.0:
        raise ValueError("T0_fraction must lie in (0, 1)")
    p, q, n, R = exponents.p, exponents.q, exponents.n, exponents.R
    t = trace.times
    T0 = T0_fraction * t[-1]

    di = trace.data_integrals
    C0 = min(di["int_phi_v0"], 0.5 * (di["int_phi_v0"] + di["int_phi_v1"]))
    C1 = min(di["int_phi_u0"],
             (di["int_phi_u1"] + (1.0 + math.sqrt(5.0)) / 2.0 * di["int_phi_u0"])
             / math.sqrt(5.0))

    p_conj = p / (p - 1.0)
    q_conj = q / (q - 1.0)
    W2 = trace.J2 ** (-1.0 / (p - 1.0))
    W4 = trace.J4 ** (-1.0 / (q - 1.0))
    env2 = (t + R) ** (n - 1 - (n - 1) * p_conj / 2.0)
    env4 = (np.exp((3.0 - math.sqrt(5.0)) / 2.0 * q_conj * t)
            * (t + R) ** (n - 1 - (n - 1) * q_conj / 2.0))
    C2 = float(np.max(W2 / env2))
    C2tilde = float(np.max(W4 / env4))
    growth = 1.0 + (2.0 - p) / 2.0 * (n - 1)
    C3 = C0**p * C2 ** (-(p - 1.0)) / (4.0 * (2.0 + (2.0 - p) * (n - 1)))

    mask = t >= T0
    mask[-3:] = False
    if not np.any(mask):
        return AuditReport(C0=C0, C1=C1, C2=C2, C2tilde=C2tilde, C3=C3,
                           fitted_k2=math.nan, fitted_k4=math.nan,
                           records=[], window=(T0, float(t[-1])),
                           min_passing_T0=None, inconclusive=True,
                           note=f"audit window empty: every sample at or after "
                                f"T0 = {T0:.6g} is among the last three, which "
                                "are excluded")

    dF1 = np.gradient(trace.F1, t)
    d2F1 = np.gradient(dF1, t)
    dF2 = np.gradient(trace.F2, t)
    d2F2 = np.gradient(dF2, t)

    holder_p = ball_volume(n) ** (1.0 - p)
    holder_q = ball_volume(n) ** (1.0 - q)
    beta3 = (3.0 - math.sqrt(5.0)) / 2.0 * q

    lhs3 = d2F1 + dF1
    rhs3_shape = (t + R) ** (-n * (p - 1.0)) * trace.F2**p
    lhs5 = d2F2
    rhs5_shape = np.exp(-beta3 * t) * (t + R) ** (-n * (q - 1.0)) * trace.F1**q

    with np.errstate(divide="ignore", invalid="ignore"):
        fitted_k2 = float(np.min((lhs3 / rhs3_shape)[mask]))
        fitted_k4 = float(np.min((lhs5 / rhs5_shape)[mask]))

    specs = [
        ("F1_lower", trace.F1, C3 * (t + R) ** growth, C3),
        ("F1_first_order", dF1 + trace.F1, 4.0 * C3 * (t + R) ** growth, 4.0 * C3),
        ("F1_second_order", lhs3, holder_p * rhs3_shape, holder_p),
        ("F2_lower", trace.F2, (t + R), 1.0),
        ("F2_second_order", lhs5, holder_q * rhs5_shape, holder_q),
    ]

    records = []
    pointwise_ok = np.ones(t.size, dtype=bool)
    for name, lhs, rhs, constant in specs:
        margins = lhs - rhs
        scale = float(np.max(np.abs(lhs[mask]))) or 1.0
        margin_min = float(np.min(margins[mask]))
        passed = margin_min >= -1e-9 * scale
        pointwise_ok &= margins >= -1e-9 * scale
        records.append(InequalityRecord(name=name, constant=constant,
                                        margin_min=margin_min, scale=scale,
                                        passed=passed))

    # Smallest T0 from which every margin stays nonnegative through the
    # end of the (trimmed) window.
    last = np.nonzero(mask)[0][-1]
    ok_suffix = np.logical_and.accumulate(pointwise_ok[last::-1])[::-1]
    first = np.nonzero(ok_suffix)[0]
    min_T0 = float(t[first[0]]) if first.size else None

    return AuditReport(C0=C0, C1=C1, C2=C2, C2tilde=C2tilde, C3=C3,
                       fitted_k2=fitted_k2, fitted_k4=fitted_k4,
                       records=records,
                       window=(float(t[mask][0]), float(t[mask][-1])),
                       min_passing_T0=min_T0,
                       note="C2tilde (fitted from the J4 weight) stands in "
                            "for C2 in the exponentially weighted envelope; "
                            "second-order constants are unit-ball Hoelder "
                            "floors, with the trace-supported best constants "
                            "reported as fitted_k2/fitted_k4")
