"""Statistics helpers: percentiles and the fits annotated on the figures.

Fig. 4 annotates linear throughput-vs-frequency fits (``T(f) = a + b f``)
and quadratic latency fits with their R²; these are the same estimators.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    return sorted_percentile(sorted(samples), q)


def sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of samples already in ascending order.

    Lets a caller that needs several percentiles of one distribution sort
    it once.
    """
    if not ordered:
        raise ValueError("no samples")
    if not 0 <= q <= 100:
        raise ValueError("percentile out of range: %r" % q)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    # The delta form is exact when both samples are equal, keeping the
    # percentile function monotone in q despite float rounding.
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def mean(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("no samples")
    return sum(samples) / len(samples)


def _r_squared(ys: Sequence[float], predicted: Sequence[float]) -> float:
    y_mean = mean(ys)
    ss_tot = sum((y - y_mean) ** 2 for y in ys)
    ss_res = sum((y - p) ** 2 for y, p in zip(ys, predicted))
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float, float]:
    """Least-squares ``y = a + b x``; returns (a, b, r_squared)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need >= 2 paired samples")
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    if denom == 0:
        raise ValueError("degenerate x values")
    b = (n * sxy - sx * sy) / denom
    a = (sy - b * sx) / n
    predicted = [a + b * x for x in xs]
    return a, b, _r_squared(ys, predicted)


def quadratic_fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float, float, float]:
    """Least-squares ``y = a + b x + c x^2``; returns (a, b, c, r_squared)."""
    if len(xs) != len(ys) or len(xs) < 3:
        raise ValueError("need >= 3 paired samples")
    # Normal equations for the 3-parameter fit.
    n = len(xs)
    s = [sum(x ** k for x in xs) for k in range(5)]
    t = [sum(y * x ** k for x, y in zip(xs, ys)) for k in range(3)]
    # Solve the 3x3 system via Gaussian elimination.
    matrix = [
        [n, s[1], s[2], t[0]],
        [s[1], s[2], s[3], t[1]],
        [s[2], s[3], s[4], t[2]],
    ]
    for col in range(3):
        pivot_row = max(range(col, 3), key=lambda r: abs(matrix[r][col]))
        if abs(matrix[pivot_row][col]) < 1e-12:
            raise ValueError("degenerate x values")
        matrix[col], matrix[pivot_row] = matrix[pivot_row], matrix[col]
        pivot = matrix[col][col]
        matrix[col] = [v / pivot for v in matrix[col]]
        for row in range(3):
            if row != col:
                factor = matrix[row][col]
                matrix[row] = [rv - factor * cv for rv, cv in zip(matrix[row], matrix[col])]
    a, b, c = matrix[0][3], matrix[1][3], matrix[2][3]
    predicted = [a + b * x + c * x * x for x in xs]
    return a, b, c, _r_squared(ys, predicted)
