"""The parameter domain of the coupled system: the powers p, q > 1, the
dimension 1 <= n <= 8 and the data-support radius R > 0, with the
exponent range of the blow-up theorem and the positivity and
nonnegativity rules that every module's entry checks share.

Every other module takes these rules from here.  This module imports
nothing from blowlab, numpy or scipy, so the comparison and criticality
layers can use it without loading the solver.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "DomainError",
    "MAX_DIMENSION",
    "Exponents",
    "check_dimension",
    "check_nonnegative",
    "check_positive",
    "check_powers",
    "check_theorem_range",
    "theorem_bounds",
    "theorem_range",
]

MAX_DIMENSION = 8


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


def check_dimension(n) -> None:
    """The dimension must be an integer in [1, MAX_DIMENSION]."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"dimension must be an integer, got {n!r}")
    if not 1 <= n <= MAX_DIMENSION:
        raise DomainError(f"n={n} must lie in [1, {MAX_DIMENSION}]")


def check_powers(p: float, q: float) -> None:
    """Both nonlinearity powers must exceed 1."""
    if p <= 1.0 or q <= 1.0:
        key, value = ("p", p) if p <= 1.0 else ("q", q)
        raise DomainError(f"{key}={value} must exceed 1")


def check_positive(**named) -> None:
    """Each named value must be positive.  NaN is not: the comparison is
    ``not value > 0``.  The message names the first value that fails."""
    for key, value in named.items():
        if not value > 0:
            raise DomainError(f"{key}={value} must be positive")


def check_nonnegative(**named) -> None:
    """Each named value must be nonnegative.  NaN is not: the comparison
    is ``not value >= 0``.  The message names the first value that fails."""
    for key, value in named.items():
        if not value >= 0:
            raise DomainError(f"{key}={value} must be nonnegative")


def theorem_bounds(n: int) -> list:
    """The theorem's bounds on p and q in dimension n, as (wording, value, inclusive):
    p, q < 2n/(n-1) for n <= 3 (infinite at n = 1); p <= (n+3)/(n-1), q <= n/(n-2) for n >= 4."""
    if n <= 3:
        return [("2n/(n-1)", math.inf if n == 1 else 2.0 * n / (n - 1), False)] * 2
    return [("(n+3)/(n-1)", (n + 3) / (n - 1), True), ("n/(n-2)", n / (n - 2), True)]


def theorem_range(p, q, n: int):
    """Exponent hypotheses of the blow-up theorem in dimension n, joined
    with ``&``: a bool for floats p and q, an elementwise mask for arrays."""
    (_, p_bound, inclusive), (_, q_bound, _) = theorem_bounds(n)
    if inclusive:
        return (p <= p_bound) & (q <= q_bound)
    return (p < p_bound) & (q < q_bound)


def check_theorem_range(p: float, q: float, n: int) -> None:
    """p and q must lie in the theorem range (NaN does not).  The message
    names the first power beyond its bound, and that bound."""
    for key, value, (wording, bound, inclusive) in zip("pq", (p, q), theorem_bounds(n)):
        if not (value <= bound if inclusive else value < bound):
            raise DomainError(f"exponents out of range: {key}={value:g} "
                              f"{'>' if inclusive else '>='} {wording}={bound:g} for n={n}")


@dataclass(frozen=True)
class Exponents:
    """Nonlinearity powers, spatial dimension and data-support radius."""

    p: float
    q: float
    n: int
    R: float = 1.0

    def __post_init__(self):
        check_powers(self.p, self.q)
        check_dimension(self.n)
        check_positive(R=self.R)
