"""Synthetic generator: quotas, determinism, planted-label recovery."""

from datetime import date, timezone

import pytest

from crowdmetrics.events import build_snapshot, derive_profiles
from crowdmetrics.stats import gini
from crowdmetrics.synth import (
    EXPECTED_LABELS,
    MULTI_PROJECT_REGULAR,
    PLANTED_CLASSES,
    REGULAR_EXPLORER,
    REGULAR_ONE_PROJECT,
    TRANSIENT_EXPLORER,
    TRANSIENT_ONE_PROJECT,
    ActivityModel,
    InfeasibleConfigError,
    SynthConfig,
    generate,
    largest_remainder_quota,
)
from crowdmetrics.volunteers import compute_volunteer_metrics


def recovered_classes(events):
    snap = build_snapshot(events)
    volunteers, projects = derive_profiles(snap)
    metrics = compute_volunteer_metrics(volunteers, projects, snap.observation_end)
    return {vid: (m.platform_class, m.project_class) for vid, m in metrics.items()}


class TestQuota:
    def test_exact_division(self):
        assert largest_remainder_quota([1, 1, 1, 1], 8) == [2, 2, 2, 2]

    def test_remainders_to_largest_fraction_first(self):
        assert largest_remainder_quota([1, 1, 1], 10) == [4, 3, 3]
        assert largest_remainder_quota([5, 3, 2], 7) == [4, 2, 1]

    def test_always_sums_to_total(self):
        for total in (0, 1, 7, 53, 1000):
            for weights in ([1], [3, 1], [0.2, 0.3, 0.5], [9, 0.001, 4, 4, 4]):
                counts = largest_remainder_quota(weights, total)
                assert sum(counts) == total
                assert all(c >= 0 for c in counts)

    def test_quantization_error_below_one(self):
        weights = [7, 1, 1, 1]
        counts = largest_remainder_quota(weights, 123)
        for w, c in zip(weights, counts):
            assert abs(c - 123 * w / sum(weights)) < 1.0

    def test_zero_weight_gets_nothing(self):
        assert largest_remainder_quota([1, 0, 1], 10) == [5, 0, 5]


class TestGenerate:
    def test_deterministic(self):
        config = SynthConfig(seed=42, volunteer_count=80, project_count=7)
        assert generate(config) == generate(config)

    def test_seed_changes_output(self):
        a = generate(SynthConfig(seed=1, volunteer_count=50))[0]
        b = generate(SynthConfig(seed=2, volunteer_count=50))[0]
        assert a != b

    def test_class_mix_quota_is_exact(self):
        config = SynthConfig(seed=3, volunteer_count=200, project_count=9)
        _, labels = generate(config)
        expected = largest_remainder_quota(
            [config.class_mix[c] for c in PLANTED_CLASSES], 200
        )
        recovered = {c: 0 for c in PLANTED_CLASSES}
        reverse = {v: k for k, v in EXPECTED_LABELS.items()}
        for label in labels.values():
            recovered[reverse[label]] += 1
        assert [recovered[c] for c in PLANTED_CLASSES] == expected

    def test_labels_recovered_by_pipeline(self):
        config = SynthConfig(seed=5, volunteer_count=300, project_count=15)
        events, labels = generate(config)
        assert recovered_classes(events) == labels

    def test_every_project_receives_events(self):
        config = SynthConfig(seed=6, volunteer_count=120, project_count=12)
        events, _ = generate(config)
        assert {e.project_id for e in events} == {f"p{i:04d}" for i in range(12)}

    def test_timestamps_inside_window(self):
        config = SynthConfig(
            seed=7, volunteer_count=60, start=date(2014, 3, 1), end=date(2014, 3, 10)
        )
        events, _ = generate(config)
        for event in events:
            assert event.timestamp.tzinfo == timezone.utc
            assert date(2014, 3, 1) <= event.timestamp.date() <= date(2014, 3, 10)

    def test_task_ids_globally_unique(self):
        events, _ = generate(SynthConfig(seed=8, volunteer_count=150))
        tasks = [e.task_id for e in events]
        assert len(tasks) == len(set(tasks))

    def test_recruitment_counts_match_weight_quota(self):
        weights = [10.0, 5.0, 1.0, 1.0, 1.0]
        config = SynthConfig(
            seed=9, volunteer_count=90, project_count=5, recruitment_weights=weights
        )
        events, _ = generate(config)
        _, projects = derive_profiles(build_snapshot(events))
        expected = largest_remainder_quota(weights, 90)
        for i, count in enumerate(expected):
            assert len(projects[f"p{i:04d}"].recruited) == count

    def test_planted_skew_reproduces_gini(self):
        weights = [(i + 1) ** -1.0 for i in range(50)]
        config = SynthConfig(
            seed=10, volunteer_count=5000, project_count=50, recruitment_weights=weights
        )
        events, _ = generate(config)
        _, projects = derive_profiles(build_snapshot(events))
        realized = gini(len(p.recruited) for p in projects.values())
        assert realized == pytest.approx(gini(weights), abs=0.02)

    def test_single_project_single_day_platform(self):
        config = SynthConfig(
            seed=11,
            volunteer_count=10,
            project_count=1,
            class_mix={TRANSIENT_ONE_PROJECT: 1.0},
            start=date(2014, 1, 1),
            end=date(2014, 1, 1),
        )
        events, labels = generate(config)
        assert recovered_classes(events) == labels


class TestInfeasibleConfigs:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(InfeasibleConfigError):
            generate(SynthConfig(class_mix={TRANSIENT_ONE_PROJECT: 0.5}))

    def test_unknown_class_rejected(self):
        with pytest.raises(InfeasibleConfigError):
            generate(SynthConfig(class_mix={"lurker": 1.0}))

    def test_negative_fraction_rejected(self):
        with pytest.raises(InfeasibleConfigError):
            generate(
                SynthConfig(
                    class_mix={TRANSIENT_ONE_PROJECT: 1.5, TRANSIENT_EXPLORER: -0.5}
                )
            )

    def test_multi_project_class_needs_two_projects(self):
        with pytest.raises(InfeasibleConfigError):
            generate(
                SynthConfig(project_count=1, class_mix={TRANSIENT_EXPLORER: 1.0})
            )

    def test_regular_class_needs_two_days(self):
        with pytest.raises(InfeasibleConfigError):
            generate(
                SynthConfig(
                    class_mix={REGULAR_ONE_PROJECT: 1.0},
                    start=date(2014, 1, 1),
                    end=date(2014, 1, 1),
                )
            )

    def test_weights_length_must_match(self):
        with pytest.raises(InfeasibleConfigError):
            generate(SynthConfig(project_count=3, recruitment_weights=[1.0, 2.0]))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(InfeasibleConfigError):
            generate(SynthConfig(project_count=2, recruitment_weights=[1.0, -1.0]))

    def test_zero_volunteers_rejected(self):
        with pytest.raises(InfeasibleConfigError):
            generate(SynthConfig(volunteer_count=0))

    def test_zero_projects_rejected(self):
        with pytest.raises(InfeasibleConfigError, match="project_count must be >= 1"):
            generate(SynthConfig(project_count=0))

    @pytest.mark.parametrize(
        "model, message",
        [
            (ActivityModel(tasks_per_day=(0, 3)), "bad tasks_per_day range"),
            (ActivityModel(tasks_per_day=(3, 2)), "bad tasks_per_day range"),
            (ActivityModel(active_days=(0, 4)), "bad active_days range"),
            (ActivityModel(active_days=(5, 4)), "bad active_days range"),
            (ActivityModel(extra_project_probability=-0.1), "bad extra_project_probability"),
            (ActivityModel(extra_project_probability=1.5), "bad extra_project_probability"),
        ],
    )
    def test_bad_activity_model_rejected(self, model, message):
        with pytest.raises(InfeasibleConfigError, match=f"^{message} for {REGULAR_EXPLORER}$"):
            generate(SynthConfig(activity={REGULAR_EXPLORER: model}))

    def test_reversed_window_rejected(self):
        with pytest.raises(InfeasibleConfigError):
            generate(SynthConfig(start=date(2014, 2, 1), end=date(2014, 1, 1)))

    def test_feasible_when_infeasible_class_has_zero_share(self):
        # a zero fraction for a demanding class must not block generation
        config = SynthConfig(
            project_count=1,
            volunteer_count=20,
            class_mix={
                TRANSIENT_ONE_PROJECT: 0.6,
                REGULAR_ONE_PROJECT: 0.4,
                TRANSIENT_EXPLORER: 0.0,
                REGULAR_EXPLORER: 0.0,
                MULTI_PROJECT_REGULAR: 0.0,
            },
        )
        events, labels = generate(config)
        assert recovered_classes(events) == labels
