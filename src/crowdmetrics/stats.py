"""Platform-level statistics: inequality, distributions, resampling intervals.

The Gini coefficient here is the standard (unnormalized) one,

    G = sum_i sum_j |x_i - x_j| / (2 * n**2 * mean(x)),

computed through the equivalent sorted-values form for O(n log n) cost. For n
values the coefficient lives in [0, (n-1)/n]: it only approaches 1 as the
number of projects grows, even when a single project holds everything.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .events import ProjectProfile
from .projects import BalanceValue, Unbounded
from .volunteers import PlatformClass, ProjectClass


class UndefinedGiniError(ValueError):
    """Gini is undefined: no values, or all values are zero."""


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of non-negative values, in [0, (n-1)/n].

    0 means every value is equal; larger means more concentrated. Scale
    invariant: gini(c * x) == gini(x) for c > 0.

    Raises:
        UndefinedGiniError: on an empty input or all-zero values.
        ValueError: on a NaN, infinite or negative value.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise UndefinedGiniError("gini of an empty collection is undefined")
    if not np.isfinite(data).all():
        raise ValueError("gini requires finite values")
    if np.any(data < 0):
        raise ValueError("gini requires non-negative values")
    total = float(data.sum())
    if total == 0.0:
        raise UndefinedGiniError("gini of all-zero values is undefined")
    data = np.sort(data)
    n = data.size
    ranks = np.arange(1, n + 1, dtype=float)
    return float(2.0 * float(ranks @ data) / (n * total) - (n + 1) / n)


def recruitment_inequality(projects: Mapping[str, ProjectProfile]) -> float:
    """Gini over per-project counts of volunteers recruited from outside."""
    return gini(p.recruited_count for p in projects.values())


def contribution_inequality(projects: Mapping[str, ProjectProfile]) -> float:
    """Gini over per-project counts of performed tasks."""
    return gini(p.task_count for p in projects.values())


@dataclass(frozen=True)
class Ecdf:
    """Right-continuous empirical CDF over the finite values of a sample.

    Unbounded balance values are excluded from the curve but counted, so a
    report can still say how many projects sit beyond the finite range on
    each side.
    """

    values: tuple[float, ...]      # distinct finite values, ascending
    fractions: tuple[float, ...]   # cumulative fraction at each value
    finite_count: int
    unbounded_negative: int = 0
    unbounded_positive: int = 0

    def fraction_at(self, x: float) -> float:
        """F(x): fraction of finite values <= x."""
        if not self.values:
            raise ValueError("ECDF has no finite points")
        idx = bisect_right(self.values, x)
        if idx == 0:
            return 0.0
        return self.fractions[idx - 1]

    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.values, self.fractions))


def ecdf(values: Iterable[BalanceValue]) -> Ecdf:
    """Build the ECDF of a sample, separating out tagged Unbounded values.

    Raises:
        ValueError: when the sample holds no finite value, or a NaN or
            infinite float (an Unbounded is not one).
    """
    finite: list[float] = []
    negative = positive = 0
    for value in values:
        if isinstance(value, Unbounded):
            if value.sign < 0:
                negative += 1
            else:
                positive += 1
        else:
            finite.append(float(value))
    if not finite:
        raise ValueError("ECDF requires at least one finite value")
    data = np.asarray(finite)
    if not np.isfinite(data).all():
        raise ValueError("ECDF values must be finite or Unbounded")
    distinct, counts = np.unique(data, return_counts=True)
    return Ecdf(
        values=tuple(distinct.tolist()),
        fractions=tuple((np.cumsum(counts) / data.size).tolist()),
        finite_count=data.size,
        unbounded_negative=negative,
        unbounded_positive=positive,
    )


@dataclass(frozen=True)
class BootstrapCI:
    """Percentile-bootstrap confidence interval for a sample mean."""

    estimate: float
    lower: float
    upper: float
    level: float
    resamples: int
    seed: int


#: Resampled elements (indices or counts) drawn per block. On the gather
#: path a block is 2 MB of int64 indices plus 2 MB of gathered values, small
#: enough to stay in cache. Timed on 10,000 resamples of 20,000 and of 15,000
#: mostly distinct values, one sample after the other / both on two threads
#: (2 vCPU Xeon, numpy 2.4.6, medians): 8M elements 4.2 / 2.5 s, 1M 3.1 /
#: 1.7 s, 512K 2.9 / 1.8 s, 256K 2.8 / 1.3 s, 128K 2.7 / 1.5 s, 64K 3.1 / 1.6 s.
_CHUNK_ELEMENTS = 262_144

#: Draw multinomial counts when the sample holds at least this many values per
#: distinct value. Measured on 2 vCPUs at n = 5,000-100,000 and 2,000
#: resamples, the two draws cost the same between n / 24 and n / 16 distinct
#: values; below that the count draw wins (4x at n / 40), above it the gather.
_MIN_VALUES_PER_DISTINCT = 20


def bootstrap_mean_ci(
    sample: Sequence[float] | np.ndarray,
    level: float = 0.95,
    resamples: int = 10_000,
    seed: int = 0,
) -> BootstrapCI:
    """Percentile bootstrap CI for the mean; deterministic for a fixed seed.

    Lower and upper bounds are the (1-level)/2 and 1-(1-level)/2 empirical
    quantiles of the resampled means. Each resample draws the sample's n
    values with replacement; how depends only on n and the number k of
    distinct values:

    - k == 1: every resample mean is the sample mean, so the interval is
      exactly the estimate.
    - n >= 20 k: a resample is Multinomial(n, counts / n) counts over the
      sorted distinct values, and its mean is counts @ values / n. These
      counts are distributed exactly as the tallies of n uniform index
      draws, so the means have the gather's distribution at O(k) instead
      of O(n) cost per resample (Efron & Tibshirani 1993; Hanley &
      MacGibbon 2006), and the interval does not depend on the sample's
      order.
    - otherwise: n uniform indices per resample are gathered from the sample.

    Draws are made in blocks of about ``_CHUNK_ELEMENTS`` indices or counts,
    sized for the cache, so memory stays bounded whatever n and resamples
    are. The block size does not change the random stream: ``integers`` and
    ``multinomial`` continue one stream across calls, and each resample's
    mean is reduced over its own row. The interval therefore depends only on
    the sample, level, resamples and seed.

    Raises:
        ValueError: on an empty sample, a NaN or infinite value, a level
            outside (0, 1), or fewer than one resample.
    """
    data = np.asarray(sample, dtype=float)
    if data.size == 0:
        raise ValueError("bootstrap sample must be non-empty")
    if not np.isfinite(data).all():
        raise ValueError("bootstrap sample must hold only finite values")
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must be in (0, 1)")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    n = data.size
    values, counts = np.unique(data, return_counts=True)
    rng = np.random.default_rng(seed)
    means = np.empty(resamples, dtype=float)
    if values.size == 1:
        means.fill(data.mean())
    else:
        # A block is k counts over the distinct values, or n indices, per
        # resample. It stays bound until the next is drawn: freed first, glibc
        # returned its pages and every draw faulted them in again (567K minor
        # faults, not 762, and twice the time for 10,000 resamples of 15,000).
        if n >= _MIN_VALUES_PER_DISTINCT * values.size:
            width, draw = values.size, lambda size: rng.multinomial(n, counts / n, size=size)
            block_means = lambda block: block @ values / n
        else:
            width, draw = n, lambda size: rng.integers(0, n, size=(size, n))
            block_means = lambda block: data[block].mean(axis=1)
        chunk = max(1, min(resamples, _CHUNK_ELEMENTS // width))
        for start in range(0, resamples, chunk):
            size = min(chunk, resamples - start)
            block = draw(size)
            means[start : start + size] = block_means(block)
    alpha = 1.0 - level
    lower, upper = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapCI(
        estimate=float(data.mean()),
        lower=float(lower),
        upper=float(upper),
        level=level,
        resamples=resamples,
        seed=seed,
    )


@dataclass(frozen=True)
class ClassDistribution:
    """Volunteer counts per class in both dimensions, with exact percentages.

    Percentages are kept as exact fractions so each dimension sums to 100%
    identically; rounding happens only at presentation time.
    """

    total: int
    platform_counts: Mapping[PlatformClass, int]
    project_counts: Mapping[ProjectClass, int]

    def _percentages(self, counts: Mapping) -> dict:
        return {cls: Fraction(100 * count, self.total) for cls, count in counts.items()}

    def platform_percentages(self) -> dict[PlatformClass, Fraction]:
        return self._percentages(self.platform_counts)

    def project_percentages(self) -> dict[ProjectClass, Fraction]:
        return self._percentages(self.project_counts)


def class_distribution(
    classes: Iterable[tuple[PlatformClass, ProjectClass]],
) -> ClassDistribution:
    """Count volunteers per class; both dimensions partition the volunteers.

    ``classes`` holds one (platform, project) pair per volunteer; the pairs
    are counted first, then each distinct pair's count goes to both classes.

    Raises:
        ValueError: with no volunteers the distribution is undefined.
    """
    platform_counts = {cls: 0 for cls in PlatformClass}
    project_counts = {cls: 0 for cls in ProjectClass}
    pairs = Counter(classes)
    for (platform_class, project_class), count in pairs.items():
        platform_counts[platform_class] += count
        project_counts[project_class] += count
    total = sum(pairs.values())
    if total == 0:
        raise ValueError("class distribution requires at least one volunteer")
    return ClassDistribution(
        total=total, platform_counts=platform_counts, project_counts=project_counts
    )
