"""Inequality, ECDF, bootstrap, and class-distribution statistics."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crowdmetrics.events import build_snapshot, derive_profiles
from crowdmetrics.projects import Unbounded
from crowdmetrics.stats import (
    _MIN_VALUES_PER_DISTINCT,
    BootstrapCI,
    Ecdf,
    UndefinedGiniError,
    bootstrap_mean_ci,
    class_distribution,
    contribution_inequality,
    ecdf,
    gini,
    recruitment_inequality,
)
from crowdmetrics.volunteers import PlatformClass, ProjectClass
from testkit import ev, gini_pairwise


def gather_bootstrap_ci(sample, level, resamples, seed):
    """Reference: draw n indices with replacement per resample and gather them."""
    data = np.asarray(sample, dtype=float)
    rng = np.random.default_rng(seed)
    means = data[rng.integers(0, data.size, size=(resamples, data.size))].mean(axis=1)
    alpha = 1.0 - level
    return np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])


def low_k_sample(n=400):
    """Skewed sample of five distinct values, like whole-day duration ratios."""
    rng = np.random.default_rng(17)
    values = rng.choice([0.0, 0.1, 0.25, 0.5, 1.0], size=n, p=[0.5, 0.2, 0.15, 0.1, 0.05])
    assert n >= _MIN_VALUES_PER_DISTINCT * np.unique(values).size  # the count draw runs
    return values


gini_samples = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)),
    min_size=1,
    max_size=60,
).filter(lambda xs: sum(xs) > 0)


class TestGini:
    def test_equal_values_are_zero(self):
        assert gini([7, 7, 7, 7]) == 0.0
        assert gini([42]) == 0.0

    def test_frozen_examples(self):
        assert gini([0, 0, 0, 100]) == 0.75
        assert gini([1, 2, 3, 4]) == 0.25
        assert gini([1, 3]) == 0.25

    @given(gini_samples)
    def test_matches_pairwise_definition(self, values):
        assert gini(values) == pytest.approx(gini_pairwise(values), abs=1e-12)

    @given(gini_samples, st.sampled_from([2.0, 10.0, 0.5, 1e6, 1e-6]))
    def test_scale_invariance(self, values, c):
        assert gini([c * v for v in values]) == pytest.approx(gini(values), abs=1e-12)

    @given(gini_samples)
    def test_bounded_by_ceiling(self, values):
        n = len(values)
        assert -1e-15 <= gini(values) <= (n - 1) / n + 1e-12

    def test_single_holder_approaches_ceiling(self):
        assert gini([0] * 9 + [5]) == pytest.approx(0.9)

    def test_undefined_cases(self):
        with pytest.raises(UndefinedGiniError):
            gini([])
        with pytest.raises(UndefinedGiniError):
            gini([0, 0, 0])
        with pytest.raises(ValueError):
            gini([1, -2, 3])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, bad):
        for values in ([1.0, bad], [bad], [0.0, bad, 0.0]):
            with pytest.raises(ValueError, match="finite"):
                gini(values)

    def test_order_independent(self):
        shuffled = [5.0, 1.0, 9.0, 1.0, 3.0]
        assert gini(shuffled) == gini(sorted(shuffled))


class TestInequalityOverProjects:
    def test_recruitment_and_contribution(self):
        events = [
            # p1 recruits ann and bob; p2 recruits cid and inherits ann
            ev("ann", "t1", "p1", "2014-01-01T00:00"),
            ev("bob", "t2", "p1", "2014-01-02T00:00"),
            ev("cid", "t3", "p2", "2014-01-03T00:00"),
            ev("ann", "t4", "p2", "2014-01-04T00:00"),
            ev("ann", "t5", "p2", "2014-01-05T00:00"),
        ]
        _, projects = derive_profiles(build_snapshot(events))
        # recruited counts [2, 1], task counts [2, 3]
        assert recruitment_inequality(projects) == pytest.approx(gini_pairwise([2, 1]))
        assert contribution_inequality(projects) == pytest.approx(gini_pairwise([2, 3]))


class TestEcdf:
    def test_curve_shape(self):
        curve = ecdf([3.0, 1.0, 3.0, 2.0])
        assert curve.values == (1.0, 2.0, 3.0)
        assert curve.fractions == (0.25, 0.5, 1.0)
        assert curve.finite_count == 4

    def test_right_continuous_lookup(self):
        curve = ecdf([1.0, 1.0, 2.0])
        assert curve.fraction_at(0.99) == 0.0
        assert curve.fraction_at(1.0) == pytest.approx(2 / 3)
        assert curve.fraction_at(1.5) == pytest.approx(2 / 3)
        assert curve.fraction_at(2.0) == 1.0
        assert curve.fraction_at(99.0) == 1.0

    def test_unbounded_values_counted_not_plotted(self):
        curve = ecdf([Unbounded(-1), 0.5, Unbounded(1), Unbounded(1), 1.5])
        assert curve.finite_count == 2
        assert curve.unbounded_negative == 1
        assert curve.unbounded_positive == 2
        assert curve.values == (0.5, 1.5)

    def test_no_finite_values_raises(self):
        with pytest.raises(ValueError):
            ecdf([Unbounded(1), Unbounded(-1)])
        with pytest.raises(ValueError):
            ecdf([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_rejected(self, bad):
        # a float inf is not the tagged Unbounded
        for values in ([1.0, bad, 0.5], [bad], [Unbounded(1), bad]):
            with pytest.raises(ValueError, match="finite or Unbounded"):
                ecdf(values)

    def test_fraction_at_without_points_raises(self):
        curve = Ecdf(values=(), fractions=(), finite_count=0, unbounded_positive=2)
        assert curve.points() == ()
        with pytest.raises(ValueError, match="no finite points"):
            curve.fraction_at(0.0)

    @given(
        st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=50),
        st.floats(min_value=-150, max_value=150, allow_nan=False),
    )
    def test_fraction_at_matches_counting(self, values, x):
        curve = ecdf(values)
        expected = sum(1 for v in values if v <= x) / len(values)
        assert curve.fraction_at(x) == pytest.approx(expected)

    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=50))
    def test_matches_counting_reference_exactly(self, values):
        distinct = sorted(set(values))
        curve = ecdf(values)
        assert curve.values == tuple(distinct)
        assert curve.fractions == tuple(sum(v <= x for v in values) / len(values) for x in distinct)

    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=50))
    def test_monotone_and_complete(self, values):
        curve = ecdf(values)
        assert list(curve.values) == sorted(set(curve.values))
        assert all(a < b for a, b in zip(curve.fractions, curve.fractions[1:]))
        assert curve.fractions[-1] == pytest.approx(1.0)
        assert curve.points()[-1][1] == curve.fractions[-1]


class TestBootstrap:
    def test_deterministic_for_seed(self):
        sample = [0.1, 0.4, 0.35, 0.8, 0.2, 0.9]
        a = bootstrap_mean_ci(sample, resamples=500, seed=7)
        b = bootstrap_mean_ci(sample, resamples=500, seed=7)
        assert a == b

    def test_seed_changes_interval(self):
        sample = list(np.linspace(0, 1, 40))
        a = bootstrap_mean_ci(sample, resamples=500, seed=1)
        b = bootstrap_mean_ci(sample, resamples=500, seed=2)
        assert (a.lower, a.upper) != (b.lower, b.upper)

    def test_zero_variance_degenerates(self):
        ci = bootstrap_mean_ci([0.7] * 25, resamples=200, seed=0)
        assert ci.lower == ci.upper == ci.estimate
        assert ci.estimate == pytest.approx(0.7)

    def test_interval_brackets_estimate(self):
        rng = np.random.default_rng(5)
        sample = rng.uniform(0, 1, 200)
        ci = bootstrap_mean_ci(sample, resamples=2000, seed=3)
        assert ci.lower <= ci.estimate <= ci.upper
        assert ci.estimate == pytest.approx(float(sample.mean()))

    def test_width_shrinks_with_level(self):
        rng = np.random.default_rng(6)
        sample = rng.uniform(0, 1, 150)
        wide = bootstrap_mean_ci(sample, level=0.99, resamples=2000, seed=3)
        narrow = bootstrap_mean_ci(sample, level=0.80, resamples=2000, seed=3)
        assert narrow.upper - narrow.lower < wide.upper - wide.lower

    def test_matches_normal_approximation_on_uniform(self):
        rng = np.random.default_rng(11)
        sample = rng.uniform(0, 1, 1000)
        ci = bootstrap_mean_ci(sample, level=0.95, resamples=4000, seed=2)
        width = ci.upper - ci.lower
        analytic = 2 * 1.959963984540054 * sample.std(ddof=1) / np.sqrt(sample.size)
        assert width == pytest.approx(analytic, rel=0.2)

    def test_chunking_does_not_change_the_stream(self):
        # n large enough that 8e6 // n forces multiple chunks
        rng = np.random.default_rng(8)
        sample = rng.uniform(0, 1, 5000)
        ci = bootstrap_mean_ci(sample, resamples=3000, seed=9)
        # reference: single pass with the same seed and chunk policy
        ref_rng = np.random.default_rng(9)
        means = []
        chunk = max(1, min(3000, 8_000_000 // 5000))
        done = 0
        while done < 3000:
            size = min(chunk, 3000 - done)
            idx = ref_rng.integers(0, 5000, size=(size, 5000))
            means.extend(np.asarray(sample)[idx].mean(axis=1))
            done += size
        lower, upper = np.quantile(means, [0.025, 0.975])
        assert ci.lower == pytest.approx(float(lower), abs=1e-15)
        assert ci.upper == pytest.approx(float(upper), abs=1e-15)

    @pytest.mark.parametrize(
        "sample",
        [
            np.random.default_rng(12).uniform(0, 1, 501),
            np.random.default_rng(13).uniform(0, 1, 500),
            low_k_sample(),
        ],
        ids=["gather-odd-n", "gather-even-n", "count-draw"],
    )
    def test_interval_does_not_depend_on_block_size(self, sample, monkeypatch):
        resamples = 301
        distinct = np.unique(sample).size
        # elements per resample: n indices on the gather, k counts on the count draw
        row = distinct if sample.size >= _MIN_VALUES_PER_DISTINCT * distinct else sample.size
        intervals = {}
        for rows in (1, 7, resamples):
            monkeypatch.setattr("crowdmetrics.stats._CHUNK_ELEMENTS", rows * row)
            ci = bootstrap_mean_ci(sample, resamples=resamples, seed=5)
            intervals[rows] = (ci.lower, ci.upper)
        assert intervals[1] == intervals[7] == intervals[resamples]

    def test_count_draw_matches_gather_in_distribution(self):
        # The CI endpoints over many seeds must come from the same distribution
        # whichever way the resamples are drawn.
        sample = low_k_sample()
        m = 250
        cis = [bootstrap_mean_ci(sample, resamples=400, seed=s) for s in range(m)]
        new = np.array([(ci.lower, ci.upper) for ci in cis])
        old = np.array([gather_bootstrap_ci(sample, 0.95, 400, 10_000 + s) for s in range(m)])
        for a, b in zip(new.T, old.T):
            error = np.sqrt(a.var(ddof=1) / m + b.var(ddof=1) / m)
            assert abs(a.mean() - b.mean()) < 4 * error
            grid = np.union1d(a, b)
            a_cdf = np.searchsorted(np.sort(a), grid, side="right") / m
            b_cdf = np.searchsorted(np.sort(b), grid, side="right") / m
            # two-sample Kolmogorov-Smirnov critical value at the 0.01 level
            assert np.max(np.abs(a_cdf - b_cdf)) < 1.628 * np.sqrt(2 / m)

    def test_count_draw_ignores_sample_order(self):
        sample = low_k_sample()
        shuffled = np.random.default_rng(3).permutation(sample)
        assert bootstrap_mean_ci(shuffled, seed=4) == bootstrap_mean_ci(sample, seed=4)

    @pytest.mark.parametrize("value, n", [(0.1, 30_000), (1 / 3, 1000), (0.7, 3)])
    def test_single_distinct_value_degenerates_exactly(self, value, n):
        # n copies of value summed and divided by n need not give back value
        ci = bootstrap_mean_ci([value] * n, resamples=300, seed=1)
        assert ci.lower == ci.upper == ci.estimate == float(np.full(n, value).mean())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "sample", [np.linspace(0, 1, 3), low_k_sample()], ids=["gather", "count-draw"]
    )
    def test_non_finite_values_rejected(self, bad, sample):
        sample = list(sample)
        sample[1] = bad
        with pytest.raises(ValueError, match="finite"):
            bootstrap_mean_ci(sample, resamples=50)

    def test_bounds_stable_once_resamples_saturate(self):
        # 10x more resamples must not move the bounds past reporting precision
        rng = np.random.default_rng(99)
        sample = rng.uniform(0, 1, 1000)
        coarse = bootstrap_mean_ci(sample, resamples=10_000, seed=5)
        fine = bootstrap_mean_ci(sample, resamples=100_000, seed=5)
        assert abs(coarse.lower - fine.lower) < 1e-3
        assert abs(coarse.upper - fine.upper) < 1e-3

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bootstrap_mean_ci([], resamples=10)
        with pytest.raises(ValueError):
            bootstrap_mean_ci([1.0], level=1.5)
        with pytest.raises(ValueError):
            bootstrap_mean_ci([1.0], resamples=0)

    def test_result_carries_its_parameters(self):
        ci = bootstrap_mean_ci([1.0, 2.0], level=0.9, resamples=50, seed=4)
        assert ci == BootstrapCI(ci.estimate, ci.lower, ci.upper, 0.9, 50, 4)


class TestClassDistribution:
    def test_counts_and_exact_percentages(self):
        labels = (
            [(PlatformClass.REGULAR, ProjectClass.MULTI_PROJECT_REGULAR)] * 2
            + [(PlatformClass.REGULAR, ProjectClass.ONE_PROJECT)] * 1
            + [(PlatformClass.TRANSIENT, ProjectClass.ONE_PROJECT)] * 4
        )
        dist = class_distribution(labels)
        assert dist.total == 7
        assert dist.platform_counts[PlatformClass.REGULAR] == 3
        assert dist.project_counts[ProjectClass.ONE_PROJECT] == 5
        assert dist.platform_percentages()[PlatformClass.REGULAR] == Fraction(300, 7)
        assert sum(dist.platform_percentages().values()) == Fraction(100)
        assert sum(dist.project_percentages().values()) == Fraction(100)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            class_distribution([])

    def test_every_class_present_in_counts(self):
        dist = class_distribution([(PlatformClass.REGULAR, ProjectClass.ONE_PROJECT)])
        assert set(dist.platform_counts) == set(PlatformClass)
        assert set(dist.project_counts) == set(ProjectClass)

    @given(st.lists(st.tuples(st.sampled_from(list(PlatformClass)), st.sampled_from(list(ProjectClass))), min_size=1, max_size=40))
    def test_both_dimensions_partition(self, labels):
        dist = class_distribution(labels)
        assert sum(dist.platform_counts.values()) == dist.total == len(labels)
        assert sum(dist.project_counts.values()) == dist.total
        assert sum(dist.platform_percentages().values()) == Fraction(100)
        assert sum(dist.project_percentages().values()) == Fraction(100)
