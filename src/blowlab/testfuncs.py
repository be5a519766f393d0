"""Radial test functions for the coupled damped-wave/wave system.

The central object is the positive, radially symmetric function

    phi(x) = integral over the unit sphere S^{n-1} of exp(x . w) dsigma_w,

which satisfies phi - Laplace(phi) = 0 and grows like
C_n |x|^{-(n-1)/2} e^{|x|}.  Two exponentially damped versions of phi,

    psi1(t, x) = exp(-((sqrt(5)-1)/2) t) phi(x)   (damped-wave adjoint),
    psi2(t, x) = exp(-t) phi(x)                   (wave adjoint),

solve the adjoint equations psi_tt - Laplace(psi) - psi_t = 0 and
psi_tt - Laplace(psi) = 0 respectively.  The decay rate of psi1 is the
positive number d with (-d)^2 - (-d) - 1 = 0, i.e. d = (sqrt(5)-1)/2.

Every dimension uses the one identity phi(r) = |S^{n-1}| 0F1(; n/2; r^2/4),
the power series of the spherical mean of exp(x . w); it reduces to
2 cosh r for n = 1 and 4 pi sinh(r)/r for n = 3.  Gauss-Legendre
quadrature over the polar angle (``phi_quadrature``) is kept as an
independent oracle.  ``phi`` sums that series in numpy, so neither
importing this module nor evaluating phi loads scipy.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .exponents import DomainError, check_dimension

__all__ = [
    "DomainError",
    "OverflowGuardError",
    "TestFunctionKind",
    "phi",
    "phi_quadrature",
    "phi_asymptotic",
    "radial_laplacian",
    "radial_stencil",
    "verify_wave_identity",
    "weighted_power_integral",
    "sphere_area",
    "ball_volume",
    "gauss_panels",
    "check_radius",
]

#: Largest admissible exponential argument before we refuse to evaluate.
OVERFLOW_LIMIT = 700.0

# The 16-node Gauss-Legendre rule on [-1, 1] that every panel carries.
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)


class OverflowGuardError(ValueError):
    """An exponential argument would exceed the double-precision range."""


class TestFunctionKind(enum.Enum):
    """The two damped copies of phi used as adjoint test functions."""

    PSI1 = "psi1"
    PSI2 = "psi2"

    @property
    def decay_rate(self) -> float:
        if self is TestFunctionKind.PSI1:
            return _GOLDEN_DECAY
        return 1.0


_GOLDEN_DECAY = (math.sqrt(5.0) - 1.0) / 2.0

# The psi1 rate must be a root of lambda^2 - lambda - 1 with lambda = -d,
# i.e. d^2 + d - 1 = 0; this is what makes psi1 solve the damped adjoint
# equation.  Guard it at import time.
assert abs(_GOLDEN_DECAY**2 + _GOLDEN_DECAY - 1.0) < 1e-15


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n (|S^0| = 2)."""
    check_dimension(n)
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return sphere_area(n) / n


def check_radius(r, positive: bool = False) -> np.ndarray:
    """The radius (scalar or array) as an array, checked against the
    domain r >= 0 (r > 0 if ``positive``), which NaN fails, and the
    overflow guard."""
    arr = np.asarray(r, dtype=float)
    if not np.all(arr > 0.0 if positive else arr >= 0.0):
        bound = "positive" if positive else "nonnegative"
        raise DomainError(f"radius r={arr.min():g} must be {bound}")
    if np.any(arr > OVERFLOW_LIMIT):
        raise OverflowGuardError(
            f"radius {arr.max():g} exceeds the overflow guard {OVERFLOW_LIMIT:g}"
        )
    return arr


def gauss_panels(f, edges, width: float) -> np.ndarray:
    """The integrals of a vectorized ``f`` over each [edges[k], edges[k+1]]
    of a nondecreasing sequence, each cut into the fewest equal panels at
    most ``width`` wide, with the 16-node rule on every panel and ``f``
    called once on all nodes."""
    edges = np.asarray(edges, dtype=float)
    lengths = np.diff(edges)
    counts = np.maximum(np.ceil(lengths / width), 1.0).astype(int)
    owner = np.repeat(np.arange(counts.size), counts)
    # The index of each panel within its interval.
    index = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    half = lengths[owner] / (2.0 * counts[owner])
    mid = edges[owner] + (2.0 * index + 1.0) * half
    values = f((mid[:, None] + half[:, None] * _GAUSS_NODES).ravel())
    panels = values.reshape(-1, _GAUSS_NODES.size) @ _GAUSS_WEIGHTS * half
    return np.bincount(owner, weights=panels, minlength=counts.size)


def phi_quadrature(r: float, n: int) -> float:
    """Evaluate phi(r) by quadrature over the polar angle.

    For n >= 2 this is |S^{n-2}| int_0^pi exp(r cos(theta)) sin(theta)^{n-2}
    dtheta; for n = 1 the sphere S^0 = {-1, +1} is discrete and the
    "quadrature" degenerates to the two-point sum e^r + e^{-r}.
    """
    check_dimension(n)
    check_radius(r)
    if n == 1:
        return math.exp(r) + math.exp(-r)
    ring = sphere_area(n - 1)

    def integrand(theta):
        return np.exp(r * np.cos(theta)) * np.sin(theta) ** (n - 2)

    # Panels at most min(0.5, 20/r) wide: r cos(theta) moves by at most 20 on one.
    return ring * float(gauss_panels(integrand, [0.0, math.pi], 20.0 / max(r, 40.0))[0])


def phi(r, n: int):
    """The spherical exponential mean phi at radius ``r`` in dimension ``n``.

    Sums the series |S^{n-1}| 0F1(; n/2; z) = |S^{n-1}| sum_k t_k with
    z = r^2/4, t_0 = 1 and t_{k+1} = t_k z / ((n/2 + k)(k + 1)), which is
    exact at the origin (phi(0) = |S^{n-1}|) in every dimension.  Every
    term is positive, so nothing cancels, and a radius needs the terms
    k <= r + 40 = 2 sqrt(z) + 40.  Term k is added only on the suffix of
    the sorted radii that still needs it.  Accepts a scalar or an ndarray
    of radii.
    """
    check_dimension(n)
    arr = check_radius(r)
    order = np.argsort(arr, axis=None)
    radii = arr.ravel()[order]
    z = radii * radii / 4.0
    term = np.ones_like(z)
    total = np.ones_like(z)
    for k in range(int(radii[-1]) + 40 if radii.size else 0):
        # t_{k+1} on the radii r >= k - 39, a suffix of the sorted radii.
        lo = np.searchsorted(radii, k - 39.0)
        tail = term[lo:]
        tail *= z[lo:]
        tail /= (n / 2.0 + k) * (k + 1.0)
        total[lo:] += tail
    out = np.empty_like(total)
    out[order] = sphere_area(n) * total
    if np.ndim(r) == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def phi_asymptotic(r, n: int):
    """Leading-order growth C_n r^{-(n-1)/2} e^r with C_n = (2 pi)^{(n-1)/2}.

    The constant follows from Laplace's method applied to the polar-angle
    integral (and reduces to the elementary expansions for n = 1, 3).
    Near r = 0, where r^{-(n-1)/2} leaves the float range, it is inf.
    """
    check_dimension(n)
    arr = check_radius(r, positive=True)
    c_n = (2.0 * math.pi) ** ((n - 1) / 2.0)
    with np.errstate(over="ignore"):
        out = c_n * arr ** (-(n - 1) / 2.0) * np.exp(arr)
    if np.ndim(r) == 0:
        return float(out)
    return out


def radial_stencil(size: int, h: float, n: int) -> np.ndarray:
    """The two coefficient rows of :func:`radial_laplacian` over the 2
    ``size`` positions of a mirrored field pair on the mesh i h, i < ``size``,
    where node i of u sits at size - 1 - i and node i of v at size + i.
    faces[j] belongs to the face between positions j and j + 1: it is
    (i + 1/2)^{n-1} = r_{i+1/2}^{n-1} / h^{n-1} for the face between nodes
    i and i + 1 of either field, 0 for the centre face between the two
    origins, and past the mesh for the last j.  inverse_volumes holds
    n / (h^2 ((i + 1/2)^n - (i - 1/2)^n)) = h^{n-1} / (h V_i) at node i of
    either field, with V_0 = (h/2)^n / n."""
    k = np.arange(size) + 0.5
    faces = k ** (n - 1)
    inverse_volumes = n / (h * h * np.diff(k ** n, prepend=0.0))
    rows = np.empty((2, 2 * size))
    rows[0, :size - 1] = faces[-2::-1]
    rows[0, size - 1] = 0.0
    rows[0, size:] = faces
    rows[1, :size] = inverse_volumes[::-1]
    rows[1, size:] = inverse_volumes
    return rows


def radial_laplacian(f: np.ndarray, faces: np.ndarray, inverse_volumes: np.ndarray) -> np.ndarray:
    """The finite-volume radial Laplacian (F_{i+1/2} - F_{i-1/2}) / V_i of
    two fields held in one mirrored array, f[c - 1 - i] = u_i and
    f[c + i] = v_i with c = f.size / 2, given the two :func:`radial_stencil`
    rows over the same positions: fluxes F_{i+1/2} = r_{i+1/2}^{n-1}
    (f[i+1] - f[i]) / h, shell volumes V_i = (r_{i+1/2}^n - r_{i-1/2}^n) / n
    and an origin cell [0, h/2] with no inner flux.  In the u half every
    flux difference comes out negated twice, so each half is its field's
    Laplacian bit for bit (for fields with no -0.0 or NaN in the u half).
    Symmetric in the V-weighted inner product, its spectrum is real in
    every dimension."""
    flux = np.subtract(f[1:], f[:-1])
    flux *= faces[:-1]
    # The centre face joins the two origin cells; no flux crosses it, and
    # a +0.0 leaves each origin's own outer flux exact, signed zeros included.
    flux[f.size // 2 - 1] = 0.0
    lap = np.empty_like(f)
    np.subtract(flux[1:], flux[:-1], out=lap[1:-1])
    lap[1:-1] *= inverse_volumes[1:-1]
    # The outer node of each field has no outer neighbour; its value is
    # never used.
    lap[0] = lap[-1] = 0.0
    return lap


def verify_wave_identity(kind: TestFunctionKind, n: int,
                         grid_spacing: float) -> float:
    """Max-norm residual of the adjoint wave identity for psi_kind.

    Discretizes psi_tt - Laplace(psi) - psi_t (PSI1) or psi_tt - Laplace(psi)
    (PSI2) on [0, 10] by central differences in time and :func:`radial_laplacian`.
    The residual is scaled pointwise by phi(r) so that the exponential
    growth of the test function does not mask the truncation error; it
    shrinks as O(grid_spacing^2).

    The time step is half the spatial spacing: with equal steps the
    temporal and spatial truncation errors of the undamped kind cancel
    identically in n = 1 (both stencils act on plain exponentials),
    leaving a roundoff-dominated residual that cannot exhibit the
    second-order convergence this check is meant to demonstrate.
    """
    check_dimension(n)
    h = float(grid_spacing)
    r_max = 10.0
    if h <= 0.0 or h > r_max / 4.0:
        raise DomainError(f"grid spacing {h} does not fit the window [0, {r_max}]")
    d = kind.decay_rate
    r = np.arange(0.0, r_max + h / 2.0, h)
    t0 = 1.0
    ht = h / 2.0
    base = phi(r, n)
    # psi factorizes, so the three time levels share the spatial profile.
    f_mid = math.exp(-d * t0) * base
    f_lo = math.exp(-d * (t0 - ht)) * base
    f_hi = math.exp(-d * (t0 + ht)) * base

    psi_tt = (f_hi - 2.0 * f_mid + f_lo) / ht**2
    # The profile as both fields of a mirrored pair; the second half is its Laplacian.
    pair = np.concatenate((f_mid[::-1], f_mid))
    residual = psi_tt - radial_laplacian(pair, *radial_stencil(r.size, h, n))[r.size:]
    if kind is TestFunctionKind.PSI1:
        psi_t = (f_hi - f_lo) / (2.0 * ht)
        residual = residual - psi_t
    scaled = np.abs(residual[:-1]) / (math.exp(-d * t0) * base[:-1])
    return float(np.max(scaled))


def weighted_power_integral(kind: TestFunctionKind, conj_exponent: float,
                            times, R: float, n: int) -> np.ndarray:
    """The integrals of psi_kind(t, .)^{s'} over the balls |x| <= t + R for
    each t of the nondecreasing ``times``, with s' = ``conj_exponent``.

    Since psi^{s'} = e^{-d s' t} phi^{s'}, each is e^{-d s' t} times one
    cumulative integral |S^{n-1}| int_0^{t+R} phi^{s'} r^{n-1} dr, summed
    from :func:`gauss_panels` pieces between successive radii t + R on
    panels at most min(0.5, 20/s') wide: s' r moves by at most 20 on one.
    The integrand carries the last time's e^{-d s' t}, so no value of it
    exceeds the last weight's own integrand.  A weight beyond the float
    range raises OverflowGuardError, as s' (t + R) > 700 does.

    These are the denominators of the reverse-Hoelder weights; callers
    bound them by C2 (t+R)^{n-1-(n-1)p'/2} and
    C2t e^{((3-sqrt(5))/2) q' t} (t+R)^{n-1-(n-1)q'/2}.
    """
    times = np.asarray(times, dtype=float)
    if conj_exponent <= 1.0:
        raise DomainError(f"conjugate exponent must exceed 1, got {conj_exponent}")
    if not (R > 0.0 and times[0] >= 0.0 and np.all(np.diff(times) >= 0.0)):
        raise DomainError("need nondecreasing times t >= 0 and R > 0")
    argument = conj_exponent * (times + R)
    if argument[-1] > OVERFLOW_LIMIT:
        raise OverflowGuardError(f"exponent argument {argument[argument > OVERFLOW_LIMIT][0]:.3g}"
                                 f" exceeds the overflow guard {OVERFLOW_LIMIT:g}")
    check_dimension(n)
    d = kind.decay_rate
    last = math.exp(-d * times[-1])
    with np.errstate(over="ignore"):
        pieces = gauss_panels(lambda r: (last * phi(r, n)) ** conj_exponent * r ** (n - 1),
                              np.concatenate(([0.0], times + R)), 20.0 / max(conj_exponent, 40.0))
        weights = sphere_area(n) * np.exp(d * conj_exponent * (times[-1] - times)) * np.cumsum(pieces)
    if not np.all(np.isfinite(weights)):
        raise OverflowGuardError("overflow guard: the weight at t="
                                 f"{times[~np.isfinite(weights)][0]:.6g} is beyond the float range")
    return weights
