"""Radial finite-difference simulation of the coupled system

    u_tt - Laplace(u) + u_t = |v|^p,
    v_tt - Laplace(v)       = |u|^q,

with compactly supported, nonnegative, radially symmetric data, plus an
audit of the functional inequalities that drive the blow-up argument,
the comparison system of :mod:`blowlab.comparison`.  The solver is an
explicit leapfrog scheme: central differences in time, the finite-volume
radial Laplacian in space, and the damping term split symmetrically as
(u^{k+1} - u^{k-1}) / (2 dt) and solved for u^{k+1} in closed form.  Wave speed is exactly 1, so the
support never reaches the outer Dirichlet boundary before the horizon.

Tracked functionals (F1-F4 as sums over the mesh's cells weighted by their
volumes, the rest once per run):

    F1 = int u dx,  F2 = int v dx,
    F3 = int v psi2 dx,  F4 = int u psi1 dx,
    J1 = F3^p,  J3 = F4^q,  J2 = W2^{-(p-1)},  J4 = W4^{-(q-1)},
    W2 = int_{|x|<=t+R} psi2^{p'} dx,  W4 = int_{|x|<=t+R} psi1^{q'} dx.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .exponents import Exponents, check_nonnegative, check_positive, check_theorem_range
from .testfuncs import (
    TestFunctionKind,
    ball_volume,
    check_radius,
    phi,
    radial_laplacian,
    radial_stencil,
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
    "CFL_LIMITS",
    "check_init_args",
    "init_state",
    "step",
    "check_run_args",
    "run",
    "functionals",
    "support_radius",
    "check_audit_args",
    "audit_inequalities",
]

DEFAULT_BLOWUP_THRESHOLD = 1e12

# Bounds on the work one run may ask for: mesh nodes, and leapfrog steps
# ceil(horizon / dt).  The grid-refinement ladder's finest rung has 16000
# nodes and plans about 29000 steps to its horizon; it blows up after
# about 2000.
MAX_GRID_POINTS = 100_000
MAX_STEPS = 1_000_000

AMPLITUDE_KEYS = ("amplitude_u0", "amplitude_u1", "amplitude_v0", "amplitude_v1")

# The largest stable CFL factor dt/h of each dimension: 2/sqrt(rho) rounded
# down, with rho the spectral radius of h^2 times the radial Laplacian, the
# same at every number of nodes (4 for n = 1, 16.004 for n = 8).  Above it
# even a linear run grows without bound.  An n = 8 run sets its own factor.
CFL_LIMITS = {1: 1.0, 2: 0.9089, 3: 0.7926, 4: 0.7003, 5: 0.6304, 6: 0.5767,
              7: 0.5343, 8: 0.4999}


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
        check_nonnegative(**{key: getattr(self, key) for key in AMPLITUDE_KEYS})

    def shape(self, r: np.ndarray, R: float) -> np.ndarray:
        """Unit-amplitude profile of support radius R evaluated on the mesh."""
        s = np.asarray(r, dtype=float) / R
        inside = s < 1.0
        out = np.zeros_like(s)
        si = s[inside]
        if self.profile is Profile.SMOOTH_BUMP:
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - si**2))
        else:
            out[inside] = (1.0 - si**2) ** 3
        return out

    def sample(self, r: np.ndarray, R: float):
        """(u0, u1, v0, v1) of support radius R on the mesh."""
        base = self.shape(r, R)
        return tuple(getattr(self, key) * base for key in AMPLITUDE_KEYS)


@dataclass
class CoupledState:
    """Two time levels of the discretized radial fields.

    Every array of the N mesh nodes is held in one mirrored layout of 2N
    doubles, ``[x_{N-1} ... x_1, x_0, x_0, x_1 ... x_{N-1}]``, so that the
    nodes within a radius form one contiguous slice.  A level holds u in
    its first half and v in its second, ``[u_{N-1} ... u_0, v_0 ...
    v_{N-1}]``: ``fields`` is the level at ``time`` and ``fields_prev``
    the level at ``time - dt``.  ``stencil`` holds the mesh's
    :func:`radial_stencil` rows, ``volumes`` the measure |S^{n-1}| V_i of
    each node's cell, by which every mesh integral is a sum, and
    ``phi_mesh`` phi at each node.  ``peak`` is max(|u|, |v|) over the
    mesh at ``time``, NaN if either field holds a NaN.  Every per-sample
    quantity reads the cached ``causal_window`` and its ``magnitudes``.
    """

    exponents: Exponents
    time: float
    h: float
    dt: float
    r: np.ndarray
    stencil: np.ndarray
    volumes: np.ndarray
    phi_mesh: np.ndarray
    fields: np.ndarray
    fields_prev: np.ndarray
    peak: float
    coupling: bool = True

    @cached_property
    def causal_window(self) -> slice:
        """The mirrored positions of the nodes inside the causal radius at
        ``time``, outside which a state of ``init_state`` or ``step`` vanishes."""
        size, end = self.r.size, _causal_end(self, self.time)
        return slice(size - end, size + end)

    @cached_property
    def magnitudes(self) -> np.ndarray:
        """|u| and |v| on the causal window, in the mirrored layout."""
        return np.abs(self.fields[self.causal_window])


def check_init_args(exponents: Exponents, data: InitialData, grid_points: int,
                    horizon: float, cfl_factor: float, coupling: bool) -> float:
    """Raise ValueError unless ``init_state`` accepts these; return its r_max."""
    n = exponents.n
    if grid_points < 200:
        raise ValueError(f"grid_points={grid_points}: need at least 200 grid points")
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(f"grid_points={grid_points} exceeds the bound {MAX_GRID_POINTS}")
    check_positive(horizon=horizon)
    limit = CFL_LIMITS[n]
    if not 0.0 < cfl_factor <= limit:
        raise ValueError(f"cfl_factor={cfl_factor}: CFL factor must lie in "
                         f"(0, {limit}], the leapfrog stability limit for n={n}")
    check_theorem_range(exponents.p, exponents.q, n)
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
    # The run evaluates phi out to the last node, so that node must pass
    # phi's radius guard (applied here without evaluating phi), and the
    # step count ceil(horizon / dt) must not exceed MAX_STEPS (compared
    # by a product, since cfl_factor * h may underflow to 0).
    check_radius(r_max)
    if horizon > MAX_STEPS * cfl_factor * h:
        raise ValueError(f"horizon={horizon}, cfl_factor={cfl_factor}: the run "
                         f"would take more than {MAX_STEPS} steps")
    return r_max


def init_state(exponents: Exponents, data: InitialData, grid_points: int,
               horizon: float, cfl_factor: float = 0.5,
               coupling: bool = True) -> CoupledState:
    """Sample the data on the mesh and seed the previous time level.

    The mesh's stencil rows, cell volumes and phi are built here, once
    per run, in the fields' mirrored layout.  The backward level at -dt
    comes from a second-order Taylor expansion using u_t(0) = u1 and
    u_tt(0) = Laplace(u0) - u1 + |v0|^p (and the undamped analogue for
    v), so the first leapfrog step is second-order accurate; both fields
    are seeded at once.  As in :func:`step`, a seed level beyond the
    float range is left for ``run`` to report.
    """
    r = np.linspace(0.0, check_init_args(exponents, data, grid_points, horizon,
                                         cfl_factor, coupling), grid_points)
    h = float(r[1] - r[0])
    dt = cfl_factor * h
    stencil = radial_stencil(grid_points, h, exponents.n)
    # |S^{n-1}| V_i, from the stencil's h^{n-1} / (h V_i); V_0 = (h/2)^n / n.
    volumes = sphere_area(exponents.n) * h ** (exponents.n - 2) / stencil[1]

    u0, u1, v0, v1 = data.sample(r, exponents.R)
    fields = np.concatenate((u0[::-1], v0))
    velocities = np.concatenate((u1[::-1], v1))
    del u0, u1, v0, v1  # held by the buffers; the seed's peak memory stays low
    with np.errstate(over="ignore", invalid="ignore"):
        accelerations = radial_laplacian(fields, *stencil)
        accelerations[:grid_points] -= velocities[:grid_points]
        accelerations += _sources(fields, exponents) if coupling else 0.0
        fields_prev = np.multiply(velocities, -dt, out=velocities)
        fields_prev += fields
        accelerations *= 0.5 * dt**2
        fields_prev += accelerations
    fields_prev[0] = fields_prev[-1] = 0.0
    del accelerations  # so that phi's temporaries do not raise the peak
    phi_r = phi(r, exponents.n)
    phi_mesh = np.concatenate((phi_r[::-1], phi_r))

    return CoupledState(exponents=exponents, time=0.0, h=h, dt=dt, r=r, stencil=stencil,
                        volumes=volumes, phi_mesh=phi_mesh, fields=fields,
                        fields_prev=fields_prev, peak=float(np.max(np.abs(fields))),
                        coupling=coupling)


def step(state: CoupledState, out: np.ndarray | None = None) -> CoupledState:
    """Advance one leapfrog time level.

    The new state carries its peak, which may be non-finite: ``run``
    decides what a peak means.  The only error raised is for a time
    step beyond the CFL limit of the dimension.

    Fields are zeroed beyond the causal radius time + R + 2h: the exact
    solution vanishes there by finite speed of propagation, while the
    explicit stencil would otherwise transport sub-truncation-level
    leakage outward at grid speed h/dt > 1.  The clip conserves the
    mass sum V_i f[i] of each field, which the Laplacian conserves: the
    leaked content is re-deposited in the cell at the causal edge, at
    either end of the window.  Its weights are the reciprocals of the
    stencil's inverse volumes, ``state.volumes`` up to a constant factor,
    so it conserves F1 and F2 as :func:`functionals` measures them.

    The step computes only on the causal window, the nodes up to two
    past the new level's causal radius, which is the whole mesh once
    that radius passes the outer boundary; in the mirrored layout the
    window of both fields is one slice.  Each operation of the update
    is one numpy call over both fields, except the powers |v|^p and
    |u|^q and the damping, which act on their own half.  This relies on
    the inputs (both levels) vanishing beyond the radius of
    ``state.time``: ``init_state`` seeds the previous level inside
    r < R + h, and the clip keeps every state returned here inside it.
    The new level goes into ``out``, a buffer of 2N doubles that shares
    no memory with the input and holds 0.0 from the input's causal end
    on, at both ends, as the level at ``state.time - 2 dt`` that ``run``
    passes does; only its window is written.  Without ``out`` it goes
    into a fresh zeroed buffer.  The input state is not modified.
    """
    dt = state.dt
    ex = state.exponents
    limit = CFL_LIMITS[ex.n]
    if not 0.0 < dt <= limit * state.h:
        raise ValueError(f"time step {dt} violates the CFL bound {limit} h (h = {state.h:g})")
    size = state.r.size
    t_next = state.time + dt
    # First node beyond the new causal radius; the mesh is increasing, and
    # r[1] = h lies inside the radius, so the edge node is never the origin.
    outside = _causal_end(state, t_next)
    hi = min(size, outside + 2)
    lo, top = size - hi, size + hi
    w, w_prev = state.fields[lo:top], state.fields_prev[lo:top]
    lap = radial_laplacian(w, state.stencil[0, lo:top], state.stencil[1, lo:top])
    fields = np.zeros(2 * size) if out is None else out
    # The update, written in place into the window of the output:
    #   u^{k+1} = (2 u^k - (1 - dt/2) u^{k-1} + dt^2 (lap u^k + |v^k|^p)) / (1 + dt/2),
    #   v^{k+1} = 2 v^k - v^{k-1} + dt^2 (lap v^k + |u^k|^q),
    # one operation at a time, in the order Python evaluates these.  The
    # output window serves as scratch for the sources.
    new = fields[lo:top]
    with np.errstate(over="ignore", invalid="ignore"):
        lap += _sources(w, ex, out=new) if state.coupling else 0.0
        lap *= dt**2
        damped_prev = np.multiply(w_prev[:hi], 1.0 - 0.5 * dt)
        np.multiply(w, 2.0, out=new)
        new[:hi] -= damped_prev
        new[hi:] -= w_prev[hi:]
        new += lap
        new[:hi] /= 1.0 + 0.5 * dt
    fields[0] = fields[-1] = 0.0

    if outside < hi:
        # The k cells past the edge lie at either end of the window, the
        # u ones in reverse; each dot runs outward from the edge.
        k = hi - outside
        weights = 1.0 / state.stencil[1, size + outside - 1:top]
        new[k] += np.dot(new[k - 1::-1], weights[1:]) / weights[0]
        new[-k - 1] += np.dot(new[-k:], weights[1:]) / weights[0]
        new[:k] = 0.0
        new[-k:] = 0.0
    # np.maximum's reduction propagates NaN, so one non-finite value
    # anywhere makes the peak non-finite.  The Laplacian is spent, so it
    # holds the magnitudes.
    peak = np.maximum.reduce(np.abs(new, out=lap))

    return CoupledState(exponents=ex, time=t_next, h=state.h, dt=dt, r=state.r,
                        stencil=state.stencil, volumes=state.volumes, phi_mesh=state.phi_mesh,
                        fields=fields, fields_prev=state.fields, peak=float(peak),
                        coupling=state.coupling)


def _sources(w: np.ndarray, exponents: Exponents,
             out: np.ndarray | None = None) -> np.ndarray:
    """|v|^p on the u half and |u|^q on the v half of the mirrored level
    ``w``, in that layout: |w| reversed, each half raised to its power in
    place, in ``out`` if given."""
    sources = np.abs(w[::-1], out=out)
    end = sources.size // 2
    sources[:end] **= exponents.p
    sources[end:] **= exponents.q
    return sources


def _causal_end(state: CoupledState, time: float) -> int:
    """Index of the first mesh node beyond the causal radius time + R + 2h.

    A state that ``init_state`` or ``step`` returns vanishes from this
    node on, at its own time.
    """
    return int(state.r.searchsorted(time + state.exponents.R + 2.0 * state.h,
                                    side="right"))


def support_radius(state: CoupledState) -> float:
    """Largest mesh radius where either field exceeds the support tolerance.

    The tolerance is 1e-12 relative to the current peak field value; a
    zero state has support radius 0, and a state whose peak is NaN or
    infinite has none: ValueError.  Like :func:`functionals`, this
    reads only the nodes inside the causal radius, beyond which every
    state that ``init_state`` and ``step`` return vanishes: the state's
    ``magnitudes``.
    """
    magnitudes = state.magnitudes
    end = magnitudes.size // 2
    peak = float(np.max(magnitudes))
    if peak == 0.0:
        return 0.0
    if not math.isfinite(peak):
        raise ValueError(f"support radius of a state with non-finite peak {peak}")
    # The outermost node above the tolerance: the first position of the
    # window (u, reversed) or the last (v).
    idx = np.nonzero(magnitudes > 1e-12 * peak)[0]
    return float(state.r[max(end - 1 - idx[0], idx[-1] - end)])


def functionals(state: CoupledState) -> dict:
    """F1-F4 of one state, and the sources and centred rates of F1, F2.

    Each integral is the sum of its integrand over the nodes, weighted by
    ``state.volumes``: the measure whose mass sum the stencil and its
    causal clip conserve, summed by numpy (a BLAS dot rounds by its
    thread count).  The field is multiplied by phi before the volumes,
    each finite and positive, so no 0 * inf arises.  Like :func:`step`,
    this reads only the nodes inside the causal radius state.time + R + 2h,
    beyond which every state that ``init_state`` and ``step`` return
    vanishes: one mirrored window of the fields, the volumes and phi.
    Each u half is summed through a reversed view, in mesh order as the
    v half is.  ``int_v_p`` and ``int_u_q`` are the sources that the step
    from this state adds, 0 in an uncoupled run.  The Laplacian sums to 0,
    so the levels keep F1'' + F1' = int_v_p and F2'' = int_u_q exactly,
    and ``dF1``, ``dF2`` are (F^{k+1} - F^{k-1}) / (2 dt) by these identities.
    """
    window, t, dt, ex = state.causal_window, state.time, state.dt, state.exponents
    w, vol = state.fields[window], state.volumes[window]
    end = w.size // 2

    def halves(x):
        x *= vol
        return float(np.add.reduce(x[end - 1::-1])), float(np.add.reduce(x[end:]))

    with np.errstate(over="ignore", invalid="ignore"):
        F1, F2 = halves(w.copy())
        G4, G3 = halves(w * state.phi_mesh[window])
        du, dv = halves(w - state.fields_prev[window])
        int_v_p, int_u_q = halves(_sources(state.magnitudes, ex)) if state.coupling else (0.0, 0.0)
        return {"F1": F1, "F2": F2, "F3": math.exp(-t) * G3,
                "F4": math.exp(-TestFunctionKind.PSI1.decay_rate * t) * G4,
                "dF1": (du + dt**2 / 2.0 * int_v_p) / (dt * (1.0 + dt / 2.0)),
                "dF2": dv / dt + dt / 2.0 * int_u_q, "int_v_p": int_v_p, "int_u_q": int_u_q}


@dataclass
class FunctionalTrace:
    """Time series of the tracked functionals plus solver diagnostics.

    ``dF1``, ``dF2``, ``int_v_p`` and ``int_u_q`` are those of
    :func:`functionals`.  ``W2`` and ``W4`` are the weights, the integrals
    that J2 and J4 are powers of, which the audit reads.  A power beyond
    the float range is inf.
    """

    times: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    F3: np.ndarray
    F4: np.ndarray
    dF1: np.ndarray
    dF2: np.ndarray
    int_v_p: np.ndarray
    int_u_q: np.ndarray
    J1: np.ndarray
    J2: np.ndarray
    J3: np.ndarray
    J4: np.ndarray
    W2: np.ndarray
    W4: np.ndarray
    max_abs_u: np.ndarray
    max_abs_v: np.ndarray
    support_r: np.ndarray
    outcome: str                      # completed | blowup | instability
    blowup_time: float | None
    h: float
    dt: float
    # Data-weighted integrals int u_j phi dx, int v_j phi dx (audit constants).
    data_integrals: dict = field(default_factory=dict)


def check_run_args(sample_every: int, blowup_threshold: float) -> None:
    """Raise ValueError unless ``run`` accepts these two arguments."""
    if not sample_every >= 1:
        raise ValueError(f"sample_every={sample_every} must be >= 1")
    check_positive(blowup_threshold=blowup_threshold)


def run(exponents: Exponents, data: InitialData, grid_points: int = 2000,
        horizon: float = 10.0, sample_every: int = 10,
        cfl_factor: float = 0.5, coupling: bool = True,
        blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD) -> FunctionalTrace:
    """Integrate to the horizon or to blow-up, sampling the functionals.

    This loop alone decides how a run ends, by these rules in order:

    1. data whose peak max(|u|, |v|) lies above ``blowup_threshold`` are
       ``blowup`` at t = 0, with the initial sample as the whole trace;
    2. a step whose peak is not finite is ``instability``;
    3. a step whose peak lies above the threshold is ``blowup`` at that
       step's time;
    4. a sample with one of F1-F4 below 0 (which nonnegative data make
       only through a scheme pathology) is ``instability``.

    The trace keeps the samples before the one that ends the run; a run
    that reaches the horizon is ``completed``.
    """
    check_run_args(sample_every, blowup_threshold)
    state = init_state(exponents, data, grid_points, horizon,
                       cfl_factor=cfl_factor, coupling=coupling)
    n = exponents.n
    size = state.r.size
    phi_r, vol = state.phi_mesh[size:], state.volumes[size:]
    # Sums like F1-F4, over the mesh half of phi and the volumes; an
    # integral beyond the float range is inf, silently.
    with np.errstate(over="ignore"):
        data_integrals = {
            key.replace("amplitude", "int_phi"): float(np.add.reduce(f * phi_r * vol))
            for key, f in zip(AMPLITUDE_KEYS, data.sample(state.r, exponents.R))
        }

    rows = []

    def record(s: CoupledState) -> bool:
        # False, recording nothing, if one of F1-F4 is negative.
        f = functionals(s)
        if min(f["F1"], f["F2"], f["F3"], f["F4"]) < 0.0:
            return False
        # One pass over the causal window gives the peaks and the support.
        end = s.magnitudes.size // 2
        rows.append({"times": s.time, **f, "support_r": support_radius(s),
                     "max_abs_u": float(np.max(s.magnitudes[:end])),
                     "max_abs_v": float(np.max(s.magnitudes[end:]))})
        return True

    record(state)
    outcome = "blowup" if state.peak > blowup_threshold else "completed"
    n_steps = int(math.ceil(horizon / state.dt)) if outcome == "completed" else 0
    # Each step writes into the level two steps back, which no later step reads.
    spare = np.zeros(2 * size)
    for k in range(1, n_steps + 1):
        state, spare = step(state, out=spare), state.fields_prev
        if not math.isfinite(state.peak):
            outcome = "instability"
        elif state.peak > blowup_threshold:
            outcome = "blowup"
        elif (k % sample_every == 0 or k == n_steps) and not record(state):
            outcome = "instability"
        else:
            continue
        break

    # Derived once from the recorded columns: the weights, one pass over
    # the times each, and J1-J4 as float64 scalar powers, equal to
    # Python's float ** bit for bit but inf where that raises OverflowError.
    cols = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    p, q = exponents.p, exponents.q
    cols["W2"], cols["W4"] = (
        weighted_power_integral(kind, s / (s - 1.0), cols["times"], exponents.R, n)
        for kind, s in ((TestFunctionKind.PSI2, p), (TestFunctionKind.PSI1, q)))
    with np.errstate(over="ignore"):
        for name, base, power in (("J1", "F3", p), ("J2", "W2", -(p - 1.0)),
                                  ("J3", "F4", q), ("J4", "W4", -(q - 1.0))):
            cols[name] = np.array([x ** power for x in cols[base]])
    return FunctionalTrace(**cols, outcome=outcome,
                           blowup_time=state.time if outcome == "blowup" else None,
                           h=state.h, dt=state.dt, data_integrals=data_integrals)


@dataclass
class InequalityRecord:
    name: str
    constant: float
    margin_min: float
    scale: float
    passed: bool


@dataclass
class AuditReport:
    """The audit's document: its fields are the keys of ``audit.json``,
    which the CLI writes as ``asdict(report)``.

    ``constants`` maps C0, C1, C2, C2tilde, C3, k2 and k4 to a float or
    None, by the rule of :func:`audit_inequalities`.  ``inequalities``
    holds one :class:`InequalityRecord` per bound, and none when the
    audit is inconclusive.
    """

    constants: dict
    window: tuple
    min_passing_T0: float | None
    inconclusive: bool
    note: str
    inequalities: list

    @property
    def all_pass(self) -> bool:
        return (not self.inconclusive) and all(r.passed for r in self.inequalities)


def check_audit_args(T0_fraction: float) -> None:
    """Raise ValueError unless ``audit_inequalities`` accepts T0_fraction."""
    if not 0.0 < T0_fraction < 1.0:
        raise ValueError(f"T0_fraction={T0_fraction} must lie in (0, 1)")


def audit_inequalities(trace: FunctionalTrace, exponents: Exponents,
                       T0_fraction: float = 0.3) -> AuditReport:
    """Audit the five functional lower bounds on a recorded trace.

    The bounds are the system of :mod:`blowlab.comparison`, built by
    ``derive_params`` from C3 and, as k2 and k4, the unit-ball Hoelder
    floors |B_1(0)|^{1-s}, the sharp provable coefficients; each record
    takes its constant from that system and its right-hand side from
    ``KatoParams.lower_bounds``.  C0, C1 come from the phi-weighted data
    integrals, C2, C2tilde are fitted envelopes of the trace's weights W2
    and W4, and C3 = C0^p C2^{-(p-1)} / (8 alpha1).  The reported k2 and
    k4 are the fitted ones, the least ratios against the second-order
    bounds with unit constants.

    Each constant is a float64, evaluated with no floating-point
    warning, and one rule makes it None: a value that is not a finite
    number, or a fitted k2 or k4 that is not positive.  An envelope
    that overflows at a sample gives that sample the ratio 0, below its
    true ratio.

    The left sides are the trace's F1, dF1 + F1, int_v_p, F2 and int_u_q,
    the identities of :func:`functionals`, over the window from T0 to the
    last sample.  An audit whose C3 leaves the float range is
    inconclusive, and so is one whose C3 or a Hoelder floor is 0 in
    float64, which the system rejects; an inconclusive audit fits no k2
    or k4.  A margin passes down to -1e-9 times max |lhs|.
    """
    from .comparison import derive_params

    check_audit_args(T0_fraction)
    if trace.outcome == "instability":
        raise ValueError("cannot audit an unstable run")
    p, q, n, R = exponents.p, exponents.q, exponents.n, exponents.R
    t = trace.times
    T0 = T0_fraction * t[-1]

    di = trace.data_integrals
    C0 = np.float64(min(di["int_phi_v0"], 0.5 * (di["int_phi_v0"] + di["int_phi_v1"])))
    C1 = min(di["int_phi_u0"],
             (di["int_phi_u1"] + (1.0 + math.sqrt(5.0)) / 2.0 * di["int_phi_u0"])
             / math.sqrt(5.0))
    p_conj = p / (p - 1.0)
    q_conj = q / (q - 1.0)
    # Float64 powers, equal to Python's float ** bit for bit where finite.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        env2 = (t + R) ** (n - 1 - (n - 1) * p_conj / 2.0)
        env4 = (np.exp((3.0 - math.sqrt(5.0)) / 2.0 * q_conj * t)
                * (t + R) ** (n - 1 - (n - 1) * q_conj / 2.0))
        C2 = np.max(trace.W2 / env2)
        C3 = C0**p * C2 ** (-(p - 1.0)) / (8.0 * derive_params(exponents).alpha1)
        constants = {"C0": C0, "C1": C1, "C2": C2, "C2tilde": np.max(trace.W4 / env4),
                     "C3": C3, "k2": math.nan, "k4": math.nan}
    floors = {"C3": C3, "k2": ball_volume(n) ** (1.0 - p),
              "k4": ball_volume(n) ** (1.0 - q)}
    zero = [key for key, value in floors.items() if not value > 0.0]

    mask = t >= T0
    note = ("C3 = C0^p C2^{-(p-1)} / (8 alpha1) leaves the float range"
            if not math.isfinite(C3)
            else f"{zero[0]} is 0 in float64, but the comparison system needs "
                 "C3, k2 and k4 positive" if zero
            else "")
    inconclusive = bool(note)
    records, window, min_T0 = [], (T0, float(t[-1])), None
    if not inconclusive:
        system = derive_params(exponents, floors)
        lhs = {"F1_lower": trace.F1, "F1_first_order": trace.dF1 + trace.F1,
               "F1_second_order": trace.int_v_p, "F2_lower": trace.F2,
               "F2_second_order": trace.int_u_q}

        # The fitted k2 and k4: least ratios against the second-order
        # bounds with unit constants, over the window samples whose bound
        # did not underflow to 0.  A ratio beyond the float range is inf,
        # and so is the least ratio of no sample.
        shapes = replace(system, k2=1.0, k4=1.0).lower_bounds(t, trace.F1, trace.F2,
                                                              which=(2, 4))
        with np.errstate(over="ignore"):
            for key, name, shape in zip(("k2", "k4"),
                                        ("F1_second_order", "F2_second_order"), shapes):
                keep = mask & (shape > 0.0)
                constants[key] = np.min(lhs[name][keep] / shape[keep], initial=math.inf)

        pointwise_ok = np.ones(t.size, dtype=bool)
        for i, ((name, lower), upper) in enumerate(
                zip(lhs.items(), system.lower_bounds(t, trace.F1, trace.F2))):
            margins = lower - upper
            scale = float(np.max(np.abs(lower[mask]))) or 1.0
            margin_min = float(np.min(margins[mask]))
            pointwise_ok &= margins >= -1e-9 * scale
            records.append(InequalityRecord(name=name, constant=getattr(system, f"k{i}"),
                                            margin_min=margin_min, scale=scale,
                                            passed=margin_min >= -1e-9 * scale))

        # Smallest T0 from which every margin stays nonnegative through the
        # last sample.
        ok_suffix = np.logical_and.accumulate(pointwise_ok[::-1])[::-1]
        first = np.nonzero(ok_suffix)[0]
        min_T0 = float(t[first[0]]) if first.size else None
        window = (float(t[mask][0]), float(t[-1]))
        note = ("C2tilde (fitted from the J4 weight) stands in for C2 in the "
                "exponentially weighted envelope; second-order constants are "
                "unit-ball Hoelder floors, with the trace-supported best "
                "ones in constants.k2/constants.k4")

    return AuditReport(
        constants={key: float(value) if math.isfinite(value)
                   and (value > 0.0 or key not in ("k2", "k4")) else None
                   for key, value in constants.items()},
        window=window, min_passing_T0=min_T0, inconclusive=inconclusive,
        note=note, inequalities=records)
