"""Independent oracles for the two theta families, written from their
definitions and sharing no code with `vrank.series`."""

import itertools
import math

from vrank.series import PowerSeries


def staircase_theta(truncation: int) -> PowerSeries:
    """1 at each triangular number (weights of staircase partitions)."""
    coeffs = [0] * (truncation + 1)
    triangular = itertools.accumulate(itertools.count())
    for w in itertools.takewhile(lambda w: w <= truncation, triangular):
        coeffs[w] = 1
    return PowerSeries(coeffs)


def odd_staircase_theta(truncation: int) -> PowerSeries:
    """1 at 0 and 2 at positive squares (overline doubles each m >= 1)."""
    coeffs = [1] + [0] * truncation
    for m in range(1, math.isqrt(truncation) + 1):
        coeffs[m * m] = 2
    return PowerSeries(coeffs)
