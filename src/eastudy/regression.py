"""Simple OLS of earnings surprise on sentiment score, per stratum."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import DegenerateRegressor, TooFewPoints


class RegressionFit(NamedTuple):
    stratum: str
    slope: float
    intercept: float
    r_squared: float
    n: int


def fit_es_regression(
    pairs: Sequence[tuple[float, float]], stratum: str = ""
) -> RegressionFit:
    """Fit y = slope * x + intercept by least squares over (x, y) pairs.

    R^2 = 1 - SSR/SST, reported as 0 when y is constant (SST = 0).
    """
    n = len(pairs)
    if n < 2:
        raise TooFewPoints(f"{stratum or 'regression'}: need >= 2 points, got {n}")
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    if sxx == 0.0:
        raise DegenerateRegressor(f"{stratum or 'regression'}: constant regressor")
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in pairs)
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ssr = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in pairs)
    sst = math.fsum((y - y_mean) ** 2 for y in ys)
    r2 = 1.0 - ssr / sst if sst > 0 else 0.0
    return RegressionFit(
        stratum=stratum, slope=slope, intercept=intercept, r_squared=r2, n=n
    )
