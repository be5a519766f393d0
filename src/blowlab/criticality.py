"""Critical-curve quantities for the (p, q, n) parameter space.

Four candidate curves for the coupled damped-wave/wave system, each a
max of rational expressions in the nonlinearity powers, compared against
a dimension threshold:

    alpha_nakao_wakasugi vs n/2       (test-function bound for the mixed system)
    alpha_wave           vs (n-1)/2   (coupled undamped waves)
    alpha_damped         vs n/2       (coupled damped waves; Fujita-type)
    alpha_new            vs (n-1)/2   (comparison-ODE bound for the mixed system)

Only the blow-up side is known for the mixed system, so points failing a
criterion are labeled Undetermined, never "global existence".  All
inequalities are non-strict, so boundary points classify as BlowUp.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .exponents import Exponents, check_powers

__all__ = [
    "Label",
    "CriticalityReport",
    "alpha_new",
    "alpha_wave",
    "alpha_damped",
    "alpha_nakao_wakasugi",
    "classify",
    "scan",
]


def alpha_new(p: float, q: float) -> float:
    """max{(q+1)/(pq-1), (2 + 2/p)/(pq-1)}."""
    check_powers(p, q)
    d = p * q - 1.0
    return max((q + 1.0) / d, (2.0 + 2.0 / p) / d)


def alpha_wave(p: float, q: float) -> float:
    """max{(p+2+1/q)/(pq-1), (q+2+1/p)/(pq-1)}; symmetric in (p, q)."""
    check_powers(p, q)
    d = p * q - 1.0
    return max((p + 2.0 + 1.0 / q) / d, (q + 2.0 + 1.0 / p) / d)


def alpha_damped(p: float, q: float) -> float:
    """max{(p+1)/(pq-1), (q+1)/(pq-1)}; symmetric in (p, q)."""
    check_powers(p, q)
    d = p * q - 1.0
    return max((p + 1.0) / d, (q + 1.0) / d)


def alpha_nakao_wakasugi(p: float, q: float) -> float:
    """max{(q/2+1)/(pq-1) + 1/2, (q+1)/(pq-1), (p+1)/(pq-1)}.

    The first term tends to 1/2 as p = q grows, so for n = 1 every pair
    of exponents lies on the blow-up side.
    """
    check_powers(p, q)
    d = p * q - 1.0
    return max((q / 2.0 + 1.0) / d + 0.5, (q + 1.0) / d, (p + 1.0) / d)


class Label(enum.Enum):
    BLOW_UP = "BlowUp"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class CriticalityReport:
    """All four curve values and labels for one (p, q, n) point."""

    p: float
    q: float
    n: int
    alpha_new: float
    alpha_nakao_wakasugi: float
    alpha_wave: float
    alpha_damped: float
    threshold_wavelike: float     # (n-1)/2, for alpha_new and alpha_wave
    threshold_heatlike: float     # n/2, for alpha_NW and alpha_DW
    label_new: Label
    label_nakao_wakasugi: Label
    label_wave: Label
    label_damped: Label
    hypotheses_ok: bool


def classify(p: float, q: float, n: int) -> CriticalityReport:
    """Classify one point against all four criteria.

    Every inequality is non-strict.  The alpha_new criterion labels
    BlowUp only when the exponent-range hypotheses of the blow-up
    theorem also hold (n = 1 unrestricted; p, q < 2n/(n-1) for n = 2, 3;
    p <= (n+3)/(n-1), q <= n/(n-2) for n >= 4); the other three curves
    are labeled from their inequality alone.
    """
    a_new = alpha_new(p, q)
    a_nw = alpha_nakao_wakasugi(p, q)
    a_w = alpha_wave(p, q)
    a_dw = alpha_damped(p, q)
    th_wave = (n - 1) / 2.0
    th_heat = n / 2.0
    hyp = Exponents(p, q, n).theorem_range_ok()

    def lab(ok: bool) -> Label:
        return Label.BLOW_UP if ok else Label.UNDETERMINED

    return CriticalityReport(
        p=p, q=q, n=n,
        alpha_new=a_new, alpha_nakao_wakasugi=a_nw,
        alpha_wave=a_w, alpha_damped=a_dw,
        threshold_wavelike=th_wave, threshold_heatlike=th_heat,
        label_new=lab(a_new >= th_wave and hyp),
        label_nakao_wakasugi=lab(a_nw >= th_heat),
        label_wave=lab(a_w >= th_wave),
        label_damped=lab(a_dw >= th_heat),
        hypotheses_ok=hyp,
    )


def scan(p_range: tuple, q_range: tuple, n: int, resolution: int) -> list:
    """Row-major grid of classify results over [p_range] x [q_range].

    With resolution 1 the single cell sits at the range midpoint;
    otherwise cells are placed at cell centers, so range endpoints on
    the open boundary p, q = 1 are never evaluated.
    """
    if resolution < 1 or resolution > 2000:
        raise ValueError("resolution must lie in [1, 2000]")
    for lo, hi in (p_range, q_range):
        if not (1.0 < lo < hi <= 20.0):
            raise ValueError(f"ranges must satisfy 1 < lo < hi <= 20, got ({lo}, {hi})")

    def centers(lo, hi):
        width = (hi - lo) / resolution
        return [lo + (i + 0.5) * width for i in range(resolution)]

    rows = []
    for qv in centers(*q_range):
        row = [classify(pv, qv, n) for pv in centers(*p_range)]
        rows.append(row)
    return rows
