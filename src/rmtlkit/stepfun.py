"""Exact integration of right-continuous step functions.

A step function is given by its knots and the cumulative value it takes
from each knot on (not deltas), so integration over [0, upper] is an
exact sum of rectangle areas, accumulated with compensated summation
(``math.fsum``).
"""

from __future__ import annotations

import math

import numpy as np


def integrate_step(knots, values, upper: float, initial: float = 0.0) -> float:
    """Exact area on [0, upper] under f(t) = ``initial`` on [0, knots[0])
    and ``values[i]`` on [knots[i], knots[i+1]).

    ``knots`` and ``values`` are 1-d float arrays of equal length, with
    ``knots`` strictly increasing; ``upper`` must be positive. The sum
    of value x overlap length is correctly rounded, so repeated small
    jumps do not lose precision.
    """
    if not upper > 0:
        raise ValueError(f"upper must be positive (got {upper})")
    if knots.size == 0:
        return initial * upper
    starts = np.concatenate(([0.0], knots))
    ends = np.concatenate((knots, [max(upper, knots[-1])]))
    vals = np.concatenate(([initial], values))
    lengths = np.clip(np.minimum(ends, upper) - np.minimum(starts, upper), 0.0, None)
    return math.fsum(vals * lengths)
