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

Each curve is one formula over floats or numpy arrays: ``classify``
evaluates it at one point, ``scan`` on a whole (p, q) grid at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exponents import check_dimension, check_powers, theorem_range

__all__ = [
    "CELL_DTYPE",
    "Label",
    "CriticalityReport",
    "alpha_new",
    "alpha_wave",
    "alpha_damped",
    "alpha_nakao_wakasugi",
    "classify",
    "check_window",
    "scan",
]


def _denominator(p, q):
    """pq - 1, once p, q > 1 is checked (on the smallest entry of an array)."""
    check_powers(np.min(p), np.min(q))
    return p * q - 1.0


def alpha_new(p, q):
    """max{(q+1)/(pq-1), (2 + 2/p)/(pq-1)}."""
    d = _denominator(p, q)
    return np.maximum((q + 1.0) / d, (2.0 + 2.0 / p) / d)


def alpha_wave(p, q):
    """max{(p+2+1/q)/(pq-1), (q+2+1/p)/(pq-1)}; symmetric in (p, q)."""
    d = _denominator(p, q)
    return np.maximum((p + 2.0 + 1.0 / q) / d, (q + 2.0 + 1.0 / p) / d)


def alpha_damped(p, q):
    """max{(p+1)/(pq-1), (q+1)/(pq-1)}; symmetric in (p, q)."""
    d = _denominator(p, q)
    return np.maximum((p + 1.0) / d, (q + 1.0) / d)


def alpha_nakao_wakasugi(p, q):
    """max{(q/2+1)/(pq-1) + 1/2, (q+1)/(pq-1), (p+1)/(pq-1)}.

    The first term tends to 1/2 as p = q grows, so for n = 1 every pair
    of exponents lies on the blow-up side.
    """
    d = _denominator(p, q)
    return np.maximum(np.maximum((q / 2.0 + 1.0) / d + 0.5, (q + 1.0) / d),
                      (p + 1.0) / d)


class Label(enum.Enum):
    BLOW_UP = "BlowUp"
    UNDETERMINED = "Undetermined"


# Each label's curve and k in its dimension threshold (n - k)/2: the
# wave-like (n-1)/2 or the heat-like n/2.
_CURVES = (
    ("new", alpha_new, 1),
    ("nakao_wakasugi", alpha_nakao_wakasugi, 0),
    ("wave", alpha_wave, 1),
    ("damped", alpha_damped, 0),
)

# The fields of one scanned cell: the classify report without the
# threshold, with each label as a mask that is True for BlowUp.
CELL_DTYPE = np.dtype(
    [("p", "f8"), ("q", "f8")]
    + [(f"alpha_{name}", "f8") for name, _, _ in _CURVES]
    + [(f"label_{name}", "?") for name, _, _ in _CURVES]
    + [("hypotheses_ok", "?")])


def _evaluate(p, q, n: int) -> dict:
    """Every CELL_DTYPE field but p and q, at floats or arrays p and q.

    Every inequality is non-strict.  label_new also needs the exponent
    hypotheses of the blow-up theorem; the other three labels come from
    their inequality alone.
    """
    hyp = theorem_range(p, q, n)
    fields = {"hypotheses_ok": hyp}
    for name, curve, k in _CURVES:
        alpha = fields[f"alpha_{name}"] = curve(p, q)
        fields[f"label_{name}"] = alpha >= (n - k) / 2.0
    fields["label_new"] = fields["label_new"] & hyp
    return fields


@dataclass(frozen=True)
class CriticalityReport:
    """All four curve values and labels for one (p, q, n) point."""

    p: float
    q: float
    alpha_new: float
    alpha_nakao_wakasugi: float
    alpha_wave: float
    alpha_damped: float
    threshold_wavelike: float     # (n-1)/2, for alpha_new and alpha_wave
    label_new: Label
    label_nakao_wakasugi: Label
    label_wave: Label
    label_damped: Label
    hypotheses_ok: bool


def classify(p: float, q: float, n: int) -> CriticalityReport:
    """Classify one point against all four criteria.

    Every inequality is non-strict.  The alpha_new criterion labels
    BlowUp only when the exponent-range hypotheses of the blow-up
    theorem (``exponents.theorem_bounds``) also hold; the other three
    curves are labeled from their inequality alone.  This is the scalar entry
    point: the alphas are Python floats and the labels ``Label``s.
    """
    check_dimension(n)
    fields = _evaluate(p, q, n)
    return CriticalityReport(
        p=p, q=q, threshold_wavelike=(n - 1) / 2.0,
        hypotheses_ok=bool(fields.pop("hypotheses_ok")),
        **{key: float(value) if key.startswith("alpha_")
           else Label.BLOW_UP if value else Label.UNDETERMINED
           for key, value in fields.items()})


def check_window(p_range: tuple, q_range: tuple, resolution: int) -> None:
    """Raise ValueError unless ``scan`` accepts this window and resolution."""
    for name, (lo, hi) in (("p_range", p_range), ("q_range", q_range)):
        if not (1.0 < lo < hi <= 20.0):
            raise ValueError(f"{name}=({lo}, {hi}) must satisfy 1 < lo < hi <= 20")
    if not 1 <= resolution <= 2000:
        raise ValueError(f"resolution={resolution} must lie in [1, 2000]")


def scan(p_range: tuple, q_range: tuple, n: int, resolution: int,
         rows: range | None = None) -> list:
    """Row-major grid of classify results over [p_range] x [q_range].

    Returns the q rows ``rows`` (by default every row, ``range(resolution)``)
    of the ``resolution`` x ``resolution`` grid, q ascending; each is a
    1-D structured array of CELL_DTYPE over p ascending, so
    ``scan(...)[j][i][key]`` holds what ``classify`` reports at the cell,
    with labels as BlowUp masks.  With resolution 1 the single cell sits
    at the range midpoint; otherwise cells are placed at cell centers
    ``lo + (i + 0.5) width``, so range endpoints on the open boundary
    p, q = 1 are never evaluated.  A row is computed from its global
    index, so a band of rows is bit for bit the same rows of the full
    scan: a caller can scan the grid band by band and never hold all of
    it, and the band bounds the curves' temporaries.
    """
    check_window(p_range, q_range, resolution)
    check_dimension(n)
    rows = range(resolution) if rows is None else rows
    if not (len(rows) and rows.step == 1 and 0 <= rows.start
            and rows.stop <= resolution):
        raise ValueError(f"rows={rows} must be a nonempty range of consecutive "
                         f"rows within range({resolution})")

    def centers(lo, hi, index):
        width = (hi - lo) / resolution
        return lo + (np.arange(index.start, index.stop) + 0.5) * width

    p = centers(*p_range, range(resolution))[np.newaxis, :]
    q = centers(*q_range, rows)[:, np.newaxis]
    grid = np.empty((len(rows), resolution), dtype=CELL_DTYPE)
    grid["p"] = p
    grid["q"] = q
    for key, value in _evaluate(p, q, n).items():
        grid[key] = value
    return list(grid)
