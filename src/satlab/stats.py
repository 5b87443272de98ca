"""Paired statistical tests for benchmark comparisons.

All three tests operate on raw sample vectors.  The implementations are
self-contained (only distribution CDFs come from scipy.special) so they
can be validated against external references instead of delegating to
them.
"""

from __future__ import annotations

import math
from typing import Sequence

from scipy.special import ndtr, stdtr


class DegenerateInputError(ValueError):
    """Samples cannot support the requested statistic."""


def _check_paired(a: Sequence[float], b: Sequence[float]) -> None:
    if len(a) != len(b):
        raise DegenerateInputError(f"paired samples differ in length: {len(a)} vs {len(b)}")


def _mean_variance(xs: Sequence[float]) -> tuple[float, float]:
    """The mean and the sample (n - 1) variance of `xs`, n >= 2."""
    mean = sum(xs) / len(xs)
    return mean, sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided paired Student t-test; returns (t, p).

    Identical samples give (0.0, 1.0).  A constant nonzero difference has
    zero variance and no finite statistic, which is an error.
    """
    _check_paired(a, b)
    n = len(a)
    if n < 2:
        raise DegenerateInputError("paired t-test needs at least 2 pairs")
    mean, var = _mean_variance([x - y for x, y in zip(a, b)])
    if var == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        raise DegenerateInputError("differences are constant and nonzero (zero variance)")
    t = mean / math.sqrt(var / n)
    p = 2.0 * float(stdtr(n - 1, -abs(t)))
    return t, min(1.0, p)


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided unpaired Welch t-test; returns (t, p)."""
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise DegenerateInputError("Welch t-test needs at least 2 observations per sample")
    (ma, va), (mb, vb) = _mean_variance(a), _mean_variance(b)
    se2 = va / na + vb / nb
    if se2 == 0.0:
        if ma == mb:
            return 0.0, 1.0
        raise DegenerateInputError("zero variance in both samples with unequal means")
    t = (ma - mb) / math.sqrt(se2)
    df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    p = 2.0 * float(stdtr(df, -abs(t)))
    return t, min(1.0, p)


def _average_ranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j + 2) / 2.0  # 1-based rank positions i+1 .. j+1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _exact_signed_rank_p(ranks: list[float], w_plus: float) -> float:
    """Exact two-sided p by enumerating sign assignments over the observed
    ranks (doubled to stay integral under midrank ties)."""
    doubled = [int(round(2 * r)) for r in ranks]
    total = sum(doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled:
        for s in range(total - r, -1, -1):
            if counts[s]:
                counts[s + r] += counts[s]
    w2 = int(round(2 * w_plus))
    denom = float(2 ** len(doubled))
    p_le = sum(counts[: w2 + 1]) / denom
    p_ge = sum(counts[w2:]) / denom
    return min(1.0, 2.0 * min(p_le, p_ge))


EXACT_THRESHOLD = 20


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided Wilcoxon signed-rank test; returns (W, p) with W the sum
    of ranks of positive differences a-b.

    Zero differences are dropped; ties in |difference| get average ranks.
    Exact sign enumeration below 20 effective pairs, otherwise a normal
    approximation with tie and continuity corrections.
    """
    _check_paired(a, b)
    diffs = [x - y for x, y in zip(a, b) if x != y]
    n = len(diffs)
    if n == 0:
        raise DegenerateInputError("all differences are zero")
    ranks = _average_ranks([abs(d) for d in diffs])
    w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    if n < EXACT_THRESHOLD:
        return w_plus, _exact_signed_rank_p(ranks, w_plus)
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # tie correction over groups of equal |difference|
    counts: dict[float, int] = {}
    for d in diffs:
        counts[abs(d)] = counts.get(abs(d), 0) + 1
    var -= sum(t**3 - t for t in counts.values()) / 48.0
    sd = math.sqrt(var)
    delta = w_plus - mean
    if delta > 0:
        delta -= 0.5
    elif delta < 0:
        delta += 0.5
    z = delta / sd
    p = 2.0 * float(ndtr(-abs(z)))
    return w_plus, min(1.0, p)


def cohens_d(a: Sequence[float], b: Sequence[float]) -> float:
    """Standardized mean difference with a pooled standard deviation."""
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise DegenerateInputError("Cohen's d needs at least 2 observations per sample")
    (ma, va), (mb, vb) = _mean_variance(a), _mean_variance(b)
    pooled = ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
    if pooled == 0.0:
        if ma == mb:
            return 0.0
        raise DegenerateInputError("zero pooled variance with unequal means")
    return (ma - mb) / math.sqrt(pooled)
