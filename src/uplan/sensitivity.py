"""Error analysis for expected-fulfilment comparisons.

Probability and fulfilment estimates carry relative errors, so the EF of an
action is only known inside a range. Two actions are reliably ranked when
their EF ranges cannot overlap; under a symmetric error split that reduces to
a threshold on the EF ratio depending only on the two relative errors. The
planner consumes this module diagnostically: overlapping ranges are worth a
warning to the knowledge engineer, not a different selection rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ErrorBoundedEF:
    """A probability/fulfilment pair with relative error bounds on each."""

    probability: float
    fulfilment: float
    probability_error: float = 0.0
    fulfilment_error: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} outside [0, 1]")
        if not math.isfinite(self.fulfilment) or self.fulfilment < 0.0:
            raise ValueError("fulfilment must be finite and >= 0")
        for err in (self.probability_error, self.fulfilment_error):
            if not math.isfinite(err) or err < 0.0:
                raise ValueError("relative errors must be finite and >= 0")


@dataclass(frozen=True)
class EFRange:
    """A centre EF with its maximum absolute error."""

    center: float
    epsilon_max: float

    @property
    def low(self) -> float:
        return self.center - self.epsilon_max

    @property
    def high(self) -> float:
        return self.center + self.epsilon_max


def ef_range(x: ErrorBoundedEF) -> EFRange:
    """Centre p*f; worst-case error (p_err + f_err + p_err*f_err) * p * f.

    The cross term appears because both factors can be off in the same
    direction at once.
    """
    center = x.probability * x.fulfilment
    relative = x.probability_error + x.fulfilment_error \
        + x.probability_error * x.fulfilment_error
    return EFRange(center, relative * center)


def distinguishable(a: ErrorBoundedEF, b: ErrorBoundedEF) -> tuple:
    """Can the larger-EF action be guaranteed larger despite the errors?

    Returns (verdict, margin): the gap between the centres minus the two
    maximum errors. The verdict requires the gap to cover both errors and to
    be strictly positive, so with perfect knowledge this is a strict
    comparison and identical actions are never distinguishable.
    """
    ra, rb = ef_range(a), ef_range(b)
    if ra.center < rb.center:
        ra, rb = rb, ra
    gap = ra.center - rb.center
    margin = gap - (ra.epsilon_max + rb.epsilon_max)
    return (margin >= 0.0 and gap > 0.0), margin


def ratio_threshold(gamma: float, delta: float) -> float:
    """Minimum EF ratio that guarantees the right pick when both actions'
    errors are split evenly: 2(gamma + delta + gamma*delta) + 1."""
    if gamma < 0 or delta < 0:
        raise ValueError("relative errors must be >= 0")
    return 2.0 * (gamma + delta + gamma * delta) + 1.0


# The most values one axis of a table may take: a 0.001 step over [0, 1].
# The grid is the product of two axes, so this caps it near a million rows.
MAX_AXIS_VALUES = 1001


def _spread(lo: float, hi: float, step: float) -> list:
    if not step > 0:
        raise ValueError("step must be > 0")
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"range [{lo}, {hi}] must lie inside [0, 1]")
    steps = (hi - lo) / step
    if steps > MAX_AXIS_VALUES - 0.5:  # round(steps) + 1 > MAX_AXIS_VALUES
        raise ValueError(f"step {step:g} gives more than {MAX_AXIS_VALUES} "
                         f"values over [{lo}, {hi}]")
    count = int(round(steps))
    values = [round(lo + i * step, 12) for i in range(count + 1)]
    return [v for v in values if v <= hi + 1e-12]


def _axes(gamma_range: tuple, delta_range: tuple, step: float) -> tuple:
    """The gamma and delta values of a table over the requested ranges;
    raises ``ValueError`` for a range that either table rejects."""
    gammas = _spread(gamma_range[0], gamma_range[1], step)
    deltas = _spread(delta_range[0], delta_range[1], step)
    if not gammas or not deltas:
        raise ValueError("empty sensitivity range")
    return gammas, deltas


def sensitivity_grid(gamma_range: tuple, delta_range: tuple, step: float) -> list:
    """Dense (gamma, delta, threshold) table over the requested ranges."""
    gammas, deltas = _axes(gamma_range, delta_range, step)
    return [
        (g, d, ratio_threshold(g, d))
        for g in gammas
        for d in deltas
    ]


def contour_rows(gamma_range: tuple, delta_range: tuple, step: float) -> list:
    """(ratio, gamma, delta) samples along each integer-ratio contour.

    For a fixed integer ratio r the contour satisfies
    2(gamma + delta + gamma*delta) + 1 = r, i.e.
    delta = (r - 1 - 2*gamma) / (2 + 2*gamma); gammas outside the delta range
    are skipped. The extreme contours degenerate to single points.
    """
    gammas, _ = _axes(gamma_range, delta_range, step)
    lo = ratio_threshold(gamma_range[0], delta_range[0])
    hi = ratio_threshold(gamma_range[1], delta_range[1])
    rows = []
    for ratio in range(math.ceil(lo - 1e-12), math.floor(hi + 1e-12) + 1):
        for g in gammas:
            d = (ratio - 1.0 - 2.0 * g) / (2.0 + 2.0 * g)
            if delta_range[0] - 1e-12 <= d <= delta_range[1] + 1e-12:
                rows.append((float(ratio), g, min(max(d, delta_range[0]),
                                                  delta_range[1])))
    return rows


def grid_csv(rows) -> str:
    """Six significant digits: plotting fidelity without false precision."""
    lines = ["gamma,delta,threshold"]
    lines += [f"{g:.6g},{d:.6g},{t:.6g}" for g, d, t in rows]
    return "\n".join(lines) + "\n"


def contour_csv(rows) -> str:
    lines = ["ratio,gamma,delta"]
    lines += [f"{r:.6g},{g:.6g},{d:.6g}" for r, g, d in rows]
    return "\n".join(lines) + "\n"
