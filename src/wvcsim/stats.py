"""Welch's t-test and the small numeric helpers the experiment harness needs."""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence


class WelchResult(NamedTuple):
    t: float
    df: float
    p: float
    degenerate: bool = False


def _mean_var(xs: Sequence[float]) -> tuple[float, Optional[float]]:
    """Mean and Bessel-corrected (n-1) sample variance of one or more values;
    the variance is None for a single value."""
    n = len(xs)
    m = sum(xs) / n
    if n < 2:
        return m, None
    return m, sum((x - m) ** 2 for x in xs) / (n - 1)


def mean_sd(xs: Sequence[float]) -> tuple[Optional[float], Optional[float]]:
    """Mean and Bessel-corrected (n-1) sample SD; None where n is too small."""
    if not xs:
        return None, None
    m, var = _mean_var(xs)
    return m, None if var is None else var ** 0.5


def student_t_two_sided_p(t: float, df: float) -> float:
    """Two-sided tail probability of Student's t via the regularized incomplete beta.

    scipy is imported here, not with the module: it takes longer to import
    than the rest of the package, and only the statistics need it.
    """
    from scipy.special import betainc

    if df <= 0:
        raise ValueError("df must be positive")
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return float(betainc(df / 2.0, 0.5, x))


def welch_t(a: Sequence[float], b: Sequence[float]) -> WelchResult:
    """Two-sided Welch's t-test for unequal variances.

    Degenerate samples (both variances zero) yield t = 0, p = 1 when the means
    agree, and an infinite t with p = 0 and the degenerate flag set when they
    differ.
    """
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise ValueError("welch_t needs at least two observations per sample")
    ma, va = _mean_var(a)
    mb, vb = _mean_var(b)
    if va == 0.0 and vb == 0.0:
        if ma == mb:
            return WelchResult(t=0.0, df=float(na + nb - 2), p=1.0)
        t = math.inf if ma > mb else -math.inf
        return WelchResult(t=t, df=float(na + nb - 2), p=0.0, degenerate=True)
    sa, sb = va / na, vb / nb
    pooled = sa + sb
    t = (ma - mb) / math.sqrt(pooled)
    df = pooled * pooled / (sa * sa / (na - 1) + sb * sb / (nb - 1))
    return WelchResult(t=t, df=df, p=student_t_two_sided_p(t, df))


def significance_stars(p: float) -> str:
    """Conventional significance marks: * / ** / *** below 0.05 / 0.01 / 0.001."""
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""
