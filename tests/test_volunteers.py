"""Volunteer metrics: availability, rates, activity duration, classes."""

from datetime import timedelta

import pytest
from hypothesis import given

from crowdmetrics.events import build_snapshot, derive_profiles
from crowdmetrics.volunteers import (
    PlatformClass,
    ProjectClass,
    availability_count,
    classify,
    compute_volunteer_metrics,
    engagement_rate,
    exploration_rate,
    relative_activity_duration,
)
from test_events import event_lists
from testkit import class_oracle, dedupe_oracle, ev, project_oracle, ts, volunteer_oracle


def profiles_from(events):
    snap = build_snapshot(events)
    volunteers, projects = derive_profiles(snap)
    return snap, volunteers, projects


def worked_example_events():
    """One volunteer with a=40, p=10, g=4; a filler volunteer opens 40 projects.

    The filler contributes once to every project at a later date, so all 40
    projects overlap the subject's tenure and count as available.
    """
    events = []
    task = 0
    # subject: two days in projects 0..3, one day in projects 4..9
    for idx in range(4):
        for day in ("2014-02-01T10:00", "2014-02-02T10:00"):
            task += 1
            events.append(ev("scholar", f"s{task:03d}", f"p{idx:02d}", day))
    for idx in range(4, 10):
        task += 1
        events.append(ev("scholar", f"s{task:03d}", f"p{idx:02d}", "2014-02-01T12:00"))
    # filler: one task in each of the 40 projects, afterwards
    for idx in range(40):
        events.append(ev("janitor", f"j{idx:03d}", f"p{idx:02d}", "2014-03-01T09:00"))
    return events


class TestWorkedExample:
    def test_rates_are_exact(self):
        _, volunteers, projects = profiles_from(worked_example_events())
        scholar = volunteers["scholar"]
        assert availability_count(scholar, projects) == 40
        assert scholar.explored_project_count == 10
        assert scholar.regular_project_count == 4
        assert exploration_rate(scholar, projects) == 0.25
        assert engagement_rate(scholar, projects) == 0.1


class TestAvailability:
    def test_project_ended_before_join_excluded_in_overlap(self):
        events = [
            ev("old", "t1", "dead", "2014-01-01T00:00"),
            ev("new", "t2", "alive", "2014-06-01T00:00"),
            ev("old", "t3", "alive", "2014-06-02T00:00"),
        ]
        _, volunteers, projects = profiles_from(events)
        assert availability_count(volunteers["new"], projects, "overlap") == 1
        assert availability_count(volunteers["new"], projects, "all") == 2
        # "old" joined before everything ended, so both projects count
        assert availability_count(volunteers["old"], projects, "overlap") == 2

    def test_project_created_after_join_is_available(self):
        events = [
            ev("v", "t1", "early", "2014-01-01T00:00"),
            ev("w", "t2", "late", "2014-09-01T00:00"),
        ]
        _, volunteers, projects = profiles_from(events)
        assert availability_count(volunteers["v"], projects, "overlap") == 2

    def test_unknown_mode_rejected(self):
        _, volunteers, projects = profiles_from([ev("v", "t1", "p", "2014-01-01T00:00")])
        with pytest.raises(ValueError):
            availability_count(volunteers["v"], projects, "sometimes")
        with pytest.raises(ValueError):
            compute_volunteer_metrics(volunteers, projects, ts("2014-01-01T00:00"), "sometimes")


class TestRelativeActivityDuration:
    def make_volunteer(self, first, last):
        _, volunteers, _ = profiles_from(
            [ev("v", "t1", "p", first), ev("v", "t2", "p", last)]
        )
        return volunteers["v"]

    def test_full_window_is_one(self):
        volunteer = self.make_volunteer("2014-01-01T00:00", "2014-01-11T00:00")
        assert relative_activity_duration(volunteer, ts("2014-01-11T23:00")) == 1.0

    def test_half_window(self):
        volunteer = self.make_volunteer("2014-01-01T00:00", "2014-01-06T00:00")
        assert relative_activity_duration(volunteer, ts("2014-01-11T00:00")) == 0.5

    def test_single_day_visitor_with_long_tenure_is_zero(self):
        volunteer = self.make_volunteer("2014-01-01T08:00", "2014-01-01T20:00")
        assert relative_activity_duration(volunteer, ts("2014-01-21T00:00")) == 0.0

    def test_joined_on_observation_day_is_one(self):
        volunteer = self.make_volunteer("2014-01-01T08:00", "2014-01-01T09:00")
        assert relative_activity_duration(volunteer, ts("2014-01-01T23:59")) == 1.0

    def test_calendar_days_not_elapsed_hours(self):
        # 11pm to 1am next day spans 1 calendar day even though only 2 hours
        volunteer = self.make_volunteer("2014-01-01T23:00", "2014-01-02T01:00")
        assert relative_activity_duration(volunteer, ts("2014-01-03T00:00")) == 0.5


class TestClassify:
    @pytest.mark.parametrize(
        "days,explored,regular,platform,project",
        [
            (1, 1, 0, PlatformClass.TRANSIENT, ProjectClass.ONE_PROJECT),
            (1, 3, 0, PlatformClass.TRANSIENT, ProjectClass.MULTI_PROJECT_EXPLORER),
            (2, 1, 1, PlatformClass.REGULAR, ProjectClass.ONE_PROJECT),
            (5, 4, 1, PlatformClass.REGULAR, ProjectClass.MULTI_PROJECT_EXPLORER),
            (2, 2, 0, PlatformClass.REGULAR, ProjectClass.MULTI_PROJECT_EXPLORER),
            (4, 2, 2, PlatformClass.REGULAR, ProjectClass.MULTI_PROJECT_REGULAR),
            (9, 6, 5, PlatformClass.REGULAR, ProjectClass.MULTI_PROJECT_REGULAR),
        ],
    )
    def test_truth_table(self, days, explored, regular, platform, project):
        assert classify(days, explored, regular) == (platform, project)

    def test_matches_class_oracle_on_every_small_triple(self):
        for days in range(1, 5):
            for explored in range(1, 6):
                for regular in range(explored + 1):
                    assert classify(days, explored, regular) == class_oracle(
                        days, explored, regular
                    ), (days, explored, regular)

    def test_enum_values_are_stable_serialization_names(self):
        assert PlatformClass.REGULAR.value == "platform_regular"
        assert ProjectClass.MULTI_PROJECT_EXPLORER.value == "multi_project_explorer"


class TestComputeVolunteerMetrics:
    @given(event_lists())
    def test_matches_oracle(self, events):
        snap, volunteers, projects = profiles_from(events)
        metrics = compute_volunteer_metrics(volunteers, projects, snap.observation_end)
        oracle = volunteer_oracle(snap.events)
        assert set(metrics) == set(oracle)
        for vid, fact in oracle.items():
            m = metrics[vid]
            available = sum(
                1
                for p in projects.values()
                if p.last_event >= volunteers[vid].join_instant
            )
            assert m.available_projects == available
            assert m.explored_projects == len(fact["projects"])
            assert m.regular_projects == fact["regular_projects"]
            assert m.exploration_rate == len(fact["projects"]) / available
            assert m.engagement_rate == fact["regular_projects"] / available
            assert (m.platform_class, m.project_class) == classify(
                len(fact["days"]), len(fact["projects"]), fact["regular_projects"]
            )
            assert (m.platform_class, m.project_class) == class_oracle(
                len(fact["days"]), len(fact["projects"]), fact["regular_projects"]
            )

    @given(event_lists())
    def test_available_projects_match_the_oracles_alone(self, events):
        snap, volunteers, projects = profiles_from(events)
        deduped = dedupe_oracle(events)
        joins = {vid: fact["join"] for vid, fact in volunteer_oracle(deduped).items()}
        ends = [fact["last"] for fact in project_oracle(deduped).values()]
        for mode in ("overlap", "all"):
            metrics = compute_volunteer_metrics(volunteers, projects, snap.observation_end, mode)
            assert set(metrics) == set(joins)
            for vid, join in joins.items():
                # overlap: the projects whose last event is not before the volunteer joins
                available = len(ends) if mode == "all" else sum(1 for end in ends if end >= join)
                assert metrics[vid].available_projects == available

    @given(event_lists())
    def test_ordering_invariants(self, events):
        snap, volunteers, projects = profiles_from(events)
        for mode in ("overlap", "all"):
            metrics = compute_volunteer_metrics(
                volunteers, projects, snap.observation_end, mode
            )
            for m in metrics.values():
                assert 0 < m.explored_projects
                assert m.regular_projects <= m.explored_projects <= m.available_projects
                assert m.engagement_rate <= m.exploration_rate <= 1.0
                assert 0.0 <= m.relative_activity_duration <= 1.0

    @given(event_lists())
    def test_multi_project_regular_implies_platform_regular(self, events):
        snap, volunteers, projects = profiles_from(events)
        metrics = compute_volunteer_metrics(volunteers, projects, snap.observation_end)
        for m in metrics.values():
            if m.project_class is ProjectClass.MULTI_PROJECT_REGULAR:
                assert m.platform_class is PlatformClass.REGULAR

    @given(event_lists())
    def test_class_views_match_the_rows(self, events):
        snap, volunteers, projects = profiles_from(events)
        metrics = compute_volunteer_metrics(volunteers, projects, snap.observation_end)
        rows = list(metrics.values())
        assert list(metrics.classes()) == [(m.platform_class, m.project_class) for m in rows]
        assert metrics.platform_regulars().tolist() == [
            m.platform_class is PlatformClass.REGULAR for m in rows
        ]

    def test_all_mode_uses_every_project(self):
        events = [
            ev("old", "t1", "dead", "2014-01-01T00:00"),
            ev("new", "t2", "alive", "2014-06-01T00:00"),
        ]
        snap, volunteers, projects = profiles_from(events)
        overlap = compute_volunteer_metrics(volunteers, projects, snap.observation_end)
        everything = compute_volunteer_metrics(
            volunteers, projects, snap.observation_end, "all"
        )
        assert overlap["new"].available_projects == 1
        assert everything["new"].available_projects == 2
        assert overlap["new"].exploration_rate == 1.0
        assert everything["new"].exploration_rate == 0.5


class TestVolunteerRows:
    @pytest.fixture(scope="class")
    def metrics(self):
        events = [ev(f"v{i}", f"t{i}", f"p{i % 3}", f"2014-01-{i % 9 + 1:02d}T10:00") for i in range(12)]
        snap, volunteers, projects = profiles_from(events)
        return compute_volunteer_metrics(volunteers, projects, snap.observation_end)

    @pytest.mark.parametrize(
        "part",
        [slice(1, 3), slice(None), slice(None, None, 3), slice(-4, None), slice(-2, -9, -2),
         slice(None, None, -1), slice(20, 30), slice(5, 2)],
    )
    def test_slice_is_the_same_slice_of_the_list(self, metrics, part):
        rows = metrics.values()
        assert rows[part] == list(rows)[part]

    def test_index_out_of_range_names_the_volunteer_rows(self, metrics):
        rows = metrics.values()
        assert rows[-1] == list(rows)[-1] == metrics["v9"]
        for index in (len(rows), -len(rows) - 1, 10**6):
            with pytest.raises(IndexError, match="volunteer row index"):
                rows[index]

    def test_rows_are_not_equal_to_a_non_sequence(self, metrics):
        rows = metrics.values()
        assert not (rows == 5) and rows != None and rows != "v0"  # noqa: E711

    @pytest.mark.parametrize("key", ["nobody", 3])
    def test_unknown_id_is_a_key_error(self, metrics, key):
        with pytest.raises(KeyError):
            metrics[key]
        assert key not in metrics
