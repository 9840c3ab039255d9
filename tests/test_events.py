"""Event parsing, snapshot construction, and profile derivation."""

import json
import random
import tracemalloc
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crowdmetrics.events import (
    DAY_MICROS,
    EmptyDatasetError,
    EventAfterObservationEndError,
    EventTable,
    IdKeys,
    InvalidTimestampError,
    TaskExecutionEvent,
    VolunteerProfiles,
    build_snapshot,
    derive_profiles,
    parse_timestamp,
)
from crowdmetrics.ingest import IngestConfig, fetch_api, load_events
from testkit import EPOCH, dedupe_oracle, ev, ev_at, project_oracle, ts, volunteer_oracle


class TestParseTimestamp:
    def test_z_suffix(self):
        assert parse_timestamp("2014-07-17T10:00:00Z") == ts("2014-07-17T10:00:00")

    def test_space_separator(self):
        assert parse_timestamp("2014-07-17 10:00:00") == ts("2014-07-17T10:00:00")

    def test_naive_is_utc(self):
        parsed = parse_timestamp("2014-07-17T10:00:00")
        assert parsed.tzinfo == timezone.utc

    def test_offset_converted_to_utc(self):
        parsed = parse_timestamp("2014-07-17T12:00:00+02:00")
        assert parsed == ts("2014-07-17T10:00:00")
        assert parsed.tzinfo == timezone.utc

    def test_fractional_seconds(self):
        parsed = parse_timestamp("2014-07-17T10:00:00.123456")
        assert parsed.microsecond == 123456

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "not a date",
            "2014-13-40T99:00:00",
            "17/07/2014",
            "0001-01-01T00:00:00+01:00",  # the offset moves it before year 1
            "9999-12-31T23:00:00-05:00",  # ... or past year 9999
        ],
    )
    def test_invalid_raises(self, bad):
        with pytest.raises(InvalidTimestampError):
            parse_timestamp(bad)


class TestBuildSnapshot:
    def test_sorted_by_time_then_volunteer_then_task(self):
        events = [
            ev("b", "t2", "p1", "2014-01-02T00:00"),
            ev("a", "t9", "p1", "2014-01-01T00:00"),
            ev("a", "t1", "p2", "2014-01-02T00:00"),
        ]
        snap = build_snapshot(events)
        assert [e.task_id for e in snap.events] == ["t9", "t1", "t2"]

    def test_duplicate_task_keeps_earliest(self):
        events = [
            ev("a", "t1", "p1", "2014-01-05T00:00"),
            ev("a", "t1", "p1", "2014-01-02T00:00"),
            ev("a", "t1", "p1", "2014-01-09T00:00"),
        ]
        snap = build_snapshot(events)
        assert len(snap.events) == 1
        assert snap.events[0].timestamp == ts("2014-01-02T00:00")
        assert snap.duplicates_removed == 2

    def test_duplicate_timestamp_tie_breaks_on_project(self):
        events = [
            ev("a", "t1", "p2", "2014-01-05T00:00"),
            ev("a", "t1", "p1", "2014-01-05T00:00"),
        ]
        snap = build_snapshot(events)
        assert snap.events[0].project_id == "p1"

    def test_same_task_id_different_volunteers_not_duplicates(self):
        events = [
            ev("a", "t1", "p1", "2014-01-01T00:00"),
            ev("b", "t1", "p1", "2014-01-01T00:00"),
        ]
        assert len(build_snapshot(events).events) == 2

    def test_exclusions_dropped_and_recorded(self):
        events = [
            ev("a", "t1", "p1", "2014-01-01T00:00"),
            ev("a", "t2", "demo", "2014-01-02T00:00"),
        ]
        snap = build_snapshot(events, exclusions=["demo"])
        assert len(snap.events) == 1
        assert snap.excluded_projects == frozenset({"demo"})

    def test_exclusions_given_as_a_str_rejected(self):
        # a str would be read as its characters: "p1" would exclude "p" and "1"
        events = [ev("a", "t1", "p1", "2014-01-01T00:00"), ev("a", "t2", "p", "2014-01-02T00:00")]
        with pytest.raises(TypeError, match="not a str"):
            build_snapshot(events, exclusions="p1")
        assert build_snapshot(events, exclusions=["p1"]).excluded_projects == frozenset({"p1"})

    def test_everything_excluded_raises(self):
        events = [ev("a", "t1", "p1", "2014-01-01T00:00")]
        with pytest.raises(EmptyDatasetError):
            build_snapshot(events, exclusions=["p1"])

    def test_no_events_raises(self):
        with pytest.raises(EmptyDatasetError):
            build_snapshot([])

    def test_empty_input_is_not_blamed_on_exclusion(self):
        with pytest.raises(EmptyDatasetError, match="^the input holds no events$"):
            build_snapshot([], exclusions=["p1"])
        with pytest.raises(EmptyDatasetError, match="^no events survive exclusion filtering$"):
            build_snapshot([ev("a", "t1", "p1", "2014-01-01T00:00")], exclusions=["p1"])

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            build_snapshot([ev("", "t1", "p1", "2014-01-01T00:00")])

    def test_observation_end_defaults_to_last_event(self):
        events = [
            ev("a", "t1", "p1", "2014-01-01T00:00"),
            ev("a", "t2", "p1", "2014-03-01T12:30"),
        ]
        assert build_snapshot(events).observation_end == ts("2014-03-01T12:30")

    def test_event_after_observation_end_raises(self):
        events = [ev("a", "t1", "p1", "2014-06-01T00:00")]
        with pytest.raises(EventAfterObservationEndError):
            build_snapshot(events, observation_end=ts("2014-05-01T00:00"))

    def test_explicit_later_observation_end_kept(self):
        events = [ev("a", "t1", "p1", "2014-01-01T00:00")]
        snap = build_snapshot(events, observation_end=ts("2014-12-31T00:00"))
        assert snap.observation_end == ts("2014-12-31T00:00")

    def test_observation_end_kept_as_its_utc_instant(self):
        events = [ev("a", "t1", "p1", "2014-01-01T00:00")]
        end = datetime(2014, 2, 1, 12, tzinfo=timezone(timedelta(hours=2)))
        kept = build_snapshot(events, observation_end=end).observation_end
        assert kept == ts("2014-02-01T10:00") and kept.utcoffset() == timedelta(0)

    def test_naive_instants_are_utc(self):
        aware = [ev("a", "t1", "p1", "2014-01-01T00:00"), ev("b", "t2", "p2", "2014-01-02T12:30")]
        naive = [event._replace(timestamp=event.timestamp.replace(tzinfo=None)) for event in aware]
        end = ts("2014-02-01T00:00")
        assert build_snapshot(naive) == build_snapshot(aware)
        assert build_snapshot(aware, observation_end=end.replace(tzinfo=None)) == build_snapshot(
            aware, observation_end=end
        )
        with pytest.raises(EventAfterObservationEndError):
            build_snapshot(aware, observation_end=datetime(2014, 1, 2, 12))


@st.composite
def event_lists(draw, max_events=60):
    count = draw(st.integers(1, max_events))
    events = []
    for _ in range(count):
        events.append(
            TaskExecutionEvent(
                volunteer_id=f"v{draw(st.integers(0, 7))}",
                task_id=f"t{draw(st.integers(0, 29)):03d}",
                project_id=f"p{draw(st.integers(0, 5))}",
                timestamp=EPOCH + timedelta(seconds=draw(st.integers(0, 120 * 86400))),
            )
        )
    return events


UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


@st.composite
def edge_event_lists(draw, max_events=40):
    """Events at the edges of the columnar encoding.

    Ids that differ only by a comma or a trailing NUL (lost by fixed-width
    numpy strings), and instants around the Unix epoch that tie to the
    second, differ only in microseconds, or fall before 1970.
    """
    count = draw(st.integers(1, max_events))
    return [
        TaskExecutionEvent(
            volunteer_id=draw(st.sampled_from(["a", "a\x00", "a,b", "b"])),
            task_id=draw(st.sampled_from(["t", "t\x00", "t,0", "u"])),
            project_id=draw(st.sampled_from(["p", "p\x00", "p,q"])),
            timestamp=UNIX_EPOCH
            + timedelta(days=draw(st.integers(-2, 1)), microseconds=draw(st.integers(-2, 2))),
        )
        for _ in range(count)
    ]


any_event_lists = st.one_of(event_lists(), edge_event_lists())


class TestSnapshotProperties:
    @given(any_event_lists)
    def test_dedupe_matches_oracle(self, events):
        snap = build_snapshot(events)
        assert list(snap.events) == dedupe_oracle(events)

    @given(any_event_lists, st.randoms(use_true_random=False))
    def test_row_order_does_not_matter(self, events, rng):
        shuffled = list(events)
        rng.shuffle(shuffled)
        snap, again = build_snapshot(events), build_snapshot(shuffled)
        assert again == snap
        assert again.duplicates_removed == snap.duplicates_removed

    @given(any_event_lists, st.data())
    def test_exclusion_then_dedupe_matches_oracle(self, events, data):
        projects = sorted({e.project_id for e in events})
        # any proper subset of the projects keeps at least one event
        excluded = data.draw(st.sets(st.sampled_from(projects), max_size=len(projects) - 1))
        kept = [e for e in events if e.project_id not in excluded]
        snap, expected = build_snapshot(events, exclusions=excluded), dedupe_oracle(kept)
        assert list(snap.events) == expected
        assert snap.duplicates_removed == len(kept) - len(expected)

    @given(event_lists())
    def test_idempotent(self, events):
        first = build_snapshot(events)
        again = build_snapshot(first.events, observation_end=first.observation_end)
        assert again == first
        assert again.duplicates_removed == 0

    @given(event_lists())
    def test_task_keys_unique_after_dedupe(self, events):
        snap = build_snapshot(events)
        keys = [(e.volunteer_id, e.task_id) for e in snap.events]
        assert len(keys) == len(set(keys))
        assert len(snap.events) + snap.duplicates_removed == len(events)

    def test_columns_are_read_only(self):
        snap = build_snapshot([ev("a", "t1", "p1", "2014-01-01T00:00")])
        with pytest.raises(ValueError):
            snap.events.timestamp[0] = 0
        with pytest.raises(ValueError):
            snap.events.volunteer[0] = 1

    def test_event_table_slices_and_repr(self):
        events = [ev(f"v{i % 3}", f"t{i}", f"p{i % 2}", f"2014-01-0{i + 1}T00:00") for i in range(5)]
        snap = build_snapshot(events)
        rows = list(snap.events)
        assert rows == events
        for part in (slice(1, 3), slice(None, None, 2), slice(-2, None), slice(None, None, -1), slice(4, 1, -2)):
            assert snap.events[part] == rows[part]
        assert snap.events[-1] == rows[-1]
        assert repr(snap.events) == "EventTable(5 events, 3 volunteers, 2 projects)"
        assert snap.event_count == 5

    def test_unhashable_by_design(self):
        events = [ev("a", "t1", "p1", "2014-01-01T00:00")]
        snap = build_snapshot(events)
        # events equal any sequence of the same events, so no column hash fits
        assert snap.events == tuple(snap.events)
        with pytest.raises(TypeError, match="unhashable type: 'PlatformSnapshot'"):
            hash(snap)
        assert snap == build_snapshot(events)

    def test_microsecond_ties_and_pre_epoch_instants(self):
        base = datetime(1969, 12, 31, 23, 59, 59, tzinfo=timezone.utc)
        events = [
            ev("v", "t2", "pB", base + timedelta(microseconds=1)),
            ev("v", "t1", "pA", base + timedelta(microseconds=2)),
            ev("v", "t1", "pC", base + timedelta(microseconds=1)),  # earlier copy of t1
            ev("w", "t3", "pA", base + timedelta(seconds=1)),  # 1970-01-01, the next day
        ]
        snap = build_snapshot(events)
        assert [(e.task_id, e.project_id) for e in snap.events] == [
            ("t1", "pC"), ("t2", "pB"), ("t3", "pA")
        ]
        assert list(snap.events) == dedupe_oracle(events)
        volunteers, _ = derive_profiles(snap)
        assert volunteers["v"].first_project == "pC"  # same microsecond: smaller task id
        assert volunteers["v"].active_days == {base.date()}
        assert volunteers["w"].active_days == {UNIX_EPOCH.date()}


def settled(events):
    """The snapshot of ``events``, checked against the oracle and its duplicate count."""
    snap = build_snapshot(events)
    assert list(snap.events) == dedupe_oracle(events)
    assert snap.duplicates_removed == len(events) - len(snap.events)
    return snap


class TestRepeatedPairs:
    """The rows of a repeated (volunteer, task) pair, settled apart from the rest."""

    def test_every_row_a_repeat(self):
        # 12 pairs of 3 rows each, their times and projects out of order
        events = [ev_at(f"v{i % 3}", f"t{i % 4}", f"p{7 * i % 5}", 3600 * (11 * i % 17)) for i in range(36)]
        assert settled(events).duplicates_removed == 24

    @pytest.mark.parametrize("pair", [("v0", "t0"), ("v4", "t3")], ids=["first", "last"])
    def test_only_one_pair_repeated(self, pair):
        events = [ev_at(f"v{i % 5}", f"t{i // 5}", "p1", 60 * i) for i in range(20)]
        events.append(ev_at(*pair, "p0", 30))
        assert settled(events).duplicates_removed == 1

    def test_equal_times_settled_by_the_smallest_project(self):
        events = [
            ev("a", "t1", "p3", "2014-01-05T00:00"),
            ev("b", "t0", "p9", "2014-01-01T00:00"),
            ev("a", "t1", "p1", "2014-01-05T00:00"),
            ev("a", "t1", "p2", "2014-01-05T00:00"),
        ]
        snap = settled(events)
        assert [(e.volunteer_id, e.project_id) for e in snap.events] == [("b", "p9"), ("a", "p1")]
        assert snap.duplicates_removed == 2

    def test_exact_copies_keep_one_event(self):
        copy = ev("a", "t1", "p1", "2014-01-02T00:00")
        events = [copy, ev("a", "t2", "p1", "2014-01-01T00:00"), copy, copy]
        snap = settled(events)
        assert list(snap.events) == [events[1], copy]
        assert snap.duplicates_removed == 2

    def test_no_repeats(self):
        events = [ev_at(f"v{i % 7}", f"t{i}", f"p{i % 3}", 3600 * (i % 5)) for i in range(40)]
        assert settled(events).duplicates_removed == 0

    def test_seeded_log_with_repeats_in_many_pairs(self):
        rng = random.Random(20)
        events = []
        for _ in range(19_000):
            volunteer, task = f"v{rng.randrange(800):03d}", f"t{rng.randrange(2000):04d}"
            events.append(ev_at(volunteer, task, f"p{rng.randrange(12)}", rng.randrange(30 * 86400)))
        for original in rng.sample(events, 1000):
            # a re-submission in any project: at the same instant a third of the time, else at any time
            seconds = rng.randrange(30 * 86400)
            when = original.timestamp if rng.random() < 1 / 3 else EPOCH + timedelta(seconds=seconds)
            events.append(original._replace(project_id=f"p{rng.randrange(12)}", timestamp=when))
        rng.shuffle(events)
        assert settled(events).duplicates_removed >= 1000


class TestDeriveProfiles:
    def test_hand_worked_example(self):
        events = [
            ev("ann", "t1", "p1", "2014-01-01T08:00"),
            ev("ann", "t2", "p1", "2014-01-03T09:00"),
            ev("ann", "t3", "p2", "2014-01-03T10:00"),
            ev("bob", "t4", "p2", "2014-01-02T07:00"),
        ]
        volunteers, projects = derive_profiles(build_snapshot(events))

        ann = volunteers["ann"]
        assert ann.join_instant == ts("2014-01-01T08:00")
        assert ann.last_instant == ts("2014-01-03T10:00")
        assert ann.first_project == "p1"
        assert ann.active_days == {ts("2014-01-01T00:00").date(), ts("2014-01-03T00:00").date()}
        assert ann.explored_project_count == 2
        assert ann.regular_project_count == 1  # p1 on two days, p2 on one
        assert ann.event_count == 3

        p1, p2 = projects["p1"], projects["p2"]
        assert p1.task_count == 2 and p2.task_count == 2
        assert p1.recruited == {"ann"} and p1.inherited == set()
        assert p2.recruited == {"bob"} and p2.inherited == {"ann"}
        assert p2.first_event == ts("2014-01-02T07:00")
        assert p2.last_event == ts("2014-01-03T10:00")

    def test_first_project_tie_broken_by_task_id(self):
        # same instant in two projects: the smaller task id wins
        events = [
            ev("v", "t2", "pB", "2014-01-01T00:00"),
            ev("v", "t1", "pA", "2014-01-01T00:00"),
        ]
        volunteers, projects = derive_profiles(build_snapshot(events))
        assert volunteers["v"].first_project == "pA"
        assert projects["pA"].recruited == {"v"}
        assert projects["pB"].inherited == {"v"}

    def test_regular_needs_two_utc_days(self):
        # two tasks on one UTC day do not make the pair regular; one second
        # apart across midnight they do
        events = [
            ev("amy", "t1", "p1", "2014-01-01T00:00:00"),
            ev("amy", "t2", "p1", "2014-01-01T23:59:59"),
            ev("ben", "t3", "p1", "2014-01-01T23:59:59"),
            ev("ben", "t4", "p1", "2014-01-02T00:00:00"),
        ]
        volunteers, _ = derive_profiles(build_snapshot(events))
        assert volunteers["amy"].regular_project_count == 0
        assert volunteers["amy"].active_day_count == 1
        assert volunteers["ben"].regular_project_count == 1
        assert volunteers["ben"].active_day_count == 2

    @given(any_event_lists)
    def test_matches_raw_event_oracle(self, events):
        snap = build_snapshot(events)
        volunteers, projects = derive_profiles(snap)
        oracle = volunteer_oracle(snap.events)

        assert set(volunteers) == set(oracle)
        for vid, fact in oracle.items():
            profile = volunteers[vid]
            assert set(profile.per_project_task_count) == fact["projects"]
            assert profile.active_days == fact["days"]
            assert profile.active_day_count == len(fact["days"])
            assert profile.first_project == fact["first_project"]
            assert profile.join_instant == fact["join"]
            assert profile.last_instant == fact["last"]
            assert profile.regular_project_count == fact["regular_projects"]
            assert dict(profile.per_project_task_count) == dict(fact["tasks_by_project"])

    @given(any_event_lists)
    def test_projects_match_raw_event_oracle(self, events):
        _, projects = derive_profiles(build_snapshot(events))
        oracle = project_oracle(dedupe_oracle(events))

        assert set(projects) == set(oracle)
        for pid, fact in oracle.items():
            project = projects[pid]
            assert project.project_id == pid
            assert project.first_event == fact["first"]
            assert project.last_event == fact["last"]
            assert project.task_count == fact["tasks"]
            assert project.recruited_count == len(fact["recruited"])
            assert project.inherited_count == len(fact["inherited"])
            assert project.recruited_task_count == fact["recruited_tasks"]
            assert project.inherited_task_count == fact["tasks"] - fact["recruited_tasks"]
            assert project.recruited == fact["recruited"]
            assert project.inherited == fact["inherited"]

    @given(event_lists())
    def test_partition_and_totals(self, events):
        snap = build_snapshot(events)
        volunteers, projects = derive_profiles(snap)
        assert sum(p.task_count for p in projects.values()) == len(snap.events)
        assert sum(v.event_count for v in volunteers.values()) == len(snap.events)
        recruited_total = 0
        for project in projects.values():
            assert project.recruited | project.inherited == project.volunteers
            assert project.recruited & project.inherited == set()
            recruited_total += len(project.recruited)
        # every volunteer is recruited by exactly one project
        assert recruited_total == len(volunteers)

    def test_days_of_an_unknown_volunteer_is_a_key_error(self):
        volunteers, _ = derive_profiles(build_snapshot([ev("a", "t1", "p1", "2014-01-01T00:00")]))
        assert volunteers.days("a") == {ts("2014-01-01T00:00").date()}
        with pytest.raises(KeyError, match="nobody"):
            volunteers.days("nobody")

    def test_lookup_by_an_id_that_is_not_a_str_is_a_key_error(self):
        volunteers, _ = derive_profiles(build_snapshot([ev("a", "t1", "p1", "2014-01-01T00:00")]))
        with pytest.raises(KeyError):
            volunteers.days(5)

    @pytest.mark.parametrize("recruited", [True, False])
    def test_members_of_an_unknown_project_is_a_key_error(self, recruited):
        volunteers, _ = derive_profiles(build_snapshot([ev("a", "t1", "p1", "2014-01-01T00:00")]))
        with pytest.raises(KeyError, match="nope"):
            volunteers.members("nope", recruited)

    def test_a_lookup_scans_no_events(self, monkeypatch):
        events = [
            ev("amy", "t1", "p1", "2014-01-01T10:00"),
            ev("amy", "t2", "p2", "2014-01-02T10:00"),
            ev("amy", "t3", "p2", "2014-01-03T10:00"),
            ev("ben", "t4", "p1", "2014-01-03T11:00"),
        ]
        volunteers, _ = derive_profiles(build_snapshot(events))

        class Scanned(Exception):
            pass

        def days(self, volunteer_id):
            raise Scanned(volunteer_id)

        monkeypatch.setattr(VolunteerProfiles, "days", days)
        amy = volunteers["amy"]
        assert amy.per_project_task_count == {"p1": 1, "p2": 2}
        assert (amy.explored_project_count, amy.regular_project_count, amy.event_count) == (2, 1, 3)
        assert (amy.join_instant, amy.last_instant) == (ts("2014-01-01T10:00"), ts("2014-01-03T10:00"))
        assert amy.first_project == "p1"
        # only the day set, and the day count, may read the events
        with pytest.raises(Scanned, match="amy"):
            amy.active_days

    def test_pure_function_of_snapshot(self):
        events = [ev_at(f"v{i % 3}", f"t{i}", f"p{i % 2}", i * 3600) for i in range(20)]
        snap = build_snapshot(events)
        first = derive_profiles(snap)
        second = derive_profiles(snap)
        assert first == second


def test_profiles_peak_near_their_events():
    """Deriving the profiles' arrays allocates at most 1.8 times the event table's arrays.

    Each pair's first and last day read at the ends of its run in one stable
    argsort, with no event-length day array, take it to 1.3 times. With a
    day array sorted by pair and two ``reduceat`` calls it was 1.9, and with
    a whole-table day array and copies of each key 3.5.
    """
    events, volunteers = 100_000, 5_000
    rng = np.random.default_rng(31)
    table = EventTable(
        tuple(f"v{i:05d}" for i in range(volunteers)),
        tuple(f"t{i:06d}" for i in range(events)),
        tuple(f"p{i:02d}" for i in range(12)),
        rng.integers(0, volunteers, events).astype(np.int32),
        np.arange(events, dtype=np.int32),
        rng.integers(0, 12, events).astype(np.int32),
        np.sort(rng.integers(0, 200 * DAY_MICROS, events)),
    )
    tracemalloc.start()
    try:
        profiles = VolunteerProfiles(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(profiles) == volunteers and int(profiles.explored.sum()) <= events
    size = sum(column.nbytes for column in (table.volunteer, table.task, table.project, table.timestamp))
    assert peak / size < 1.8, f"profiles peak {peak / size:.2f} times the events"


def test_snapshot_peaks_near_its_events():
    """Building a snapshot with no exclusion allocates at most 1.5 times the event table's arrays.

    The pair key's argsort is the rows, and the kept rows are held in the
    smallest unsigned type that indexes the table while the new table is
    built beside them: 1.24 times. With a gathered copy of every row index
    and int64 rows it was 1.6.
    """
    events, volunteers, tasks = 100_000, 5_000, 100_000
    rng = np.random.default_rng(32)
    # random tasks and times, so a few (volunteer, task) pairs repeat
    table = EventTable.from_codes(
        [f"v{i:05d}" for i in range(volunteers)],
        [f"t{i:06d}" for i in range(tasks)],
        [f"p{i:02d}" for i in range(12)],
        rng.integers(0, volunteers, events).astype(np.int32),
        rng.integers(0, tasks, events).astype(np.int32),
        rng.integers(0, 12, events).astype(np.int32),
        rng.integers(0, 200 * DAY_MICROS, events),
    )
    tracemalloc.start()
    try:
        snapshot = build_snapshot(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < snapshot.duplicates_removed < 100
    size = sum(column.nbytes for column in (table.volunteer, table.task, table.project, table.timestamp))
    assert peak / size < 1.5, f"snapshot peak {peak / size:.2f} times the events"


class TestRegistrationOverride:
    def test_override_moves_join_earlier(self):
        events = [
            ev("v1", "t1", "p1", "2014-03-10T12:00:00"),
            ev("v1", "t2", "p1", "2014-03-20T12:00:00"),
        ]
        snap = build_snapshot(events)
        volunteers, _ = derive_profiles(snap, {"v1": ts("2014-01-01T00:00:00")})
        assert volunteers["v1"].join_instant == ts("2014-01-01T00:00:00")
        assert volunteers["v1"].last_instant == ts("2014-03-20T12:00:00")

    def test_unlisted_and_unknown_ids_ignored(self):
        events = [
            ev("v1", "t1", "p1", "2014-03-10T12:00:00"),
            ev("v2", "t2", "p1", "2014-03-11T12:00:00"),
        ]
        snap = build_snapshot(events)
        registrations = {"v2": ts("2014-02-01T00:00:00"), "ghost": ts("2014-01-01T00:00:00")}
        volunteers, _ = derive_profiles(snap, registrations)
        # v1 has no override, ghost never produced an event
        assert volunteers["v1"].join_instant == ts("2014-03-10T12:00:00")
        assert volunteers["v2"].join_instant == ts("2014-02-01T00:00:00")
        assert "ghost" not in volunteers

    def test_ids_without_events_ignored_wherever_they_sort(self):
        events = [
            ev("m", "t1", "p1", "2014-03-10T12:00:00"),
            ev("s", "t2", "p1", "2014-03-11T12:00:00"),
        ]
        snap = build_snapshot(events)
        early = ts("2014-01-01T00:00:00")
        ghosts = {ghost: early for ghost in ("a", "p", "z")}  # before, between and after the ids
        assert derive_profiles(snap, {**ghosts, "s": early}) == derive_profiles(snap, {"s": early})

    def test_postdated_registration_rejected(self):
        events = [ev("v1", "t1", "p1", "2014-03-10T12:00:00")]
        snap = build_snapshot(events)
        with pytest.raises(ValueError, match="postdates"):
            derive_profiles(snap, {"v1": ts("2014-03-10T12:00:01")})

    def test_postdated_offender_has_the_earliest_first_event_then_the_smaller_id(self):
        events = [
            ev("a", "t1", "p1", "2014-03-11T12:00:00"),
            ev("c", "t2", "p1", "2014-03-10T12:00:00"),
            ev("b", "t3", "p1", "2014-03-10T12:00:00"),
        ]
        snap = build_snapshot(events)
        late = ts("2014-04-01T00:00:00")
        with pytest.raises(ValueError, match="'b' postdates"):
            derive_profiles(snap, {"a": late, "c": late, "b": late})

    def test_naive_registration_date_is_utc(self):
        snap = build_snapshot([ev("v1", "t1", "p1", "2014-03-10T12:00:00")])
        volunteers, _ = derive_profiles(snap, {"v1": datetime(2014, 1, 1, 6)})
        assert volunteers["v1"].join_instant == ts("2014-01-01T06:00:00")

    def test_registration_equal_to_first_event_accepted(self):
        events = [ev("v1", "t1", "p1", "2014-03-10T12:00:00")]
        snap = build_snapshot(events)
        volunteers, _ = derive_profiles(snap, {"v1": ts("2014-03-10T12:00:00")})
        assert volunteers["v1"].join_instant == ts("2014-03-10T12:00:00")

    def test_an_override_does_not_make_a_one_day_volunteer_a_platform_regular(self):
        from crowdmetrics.volunteers import PlatformClass, compute_volunteer_metrics

        events = [
            ev("v", "t1", "p", "2014-01-05T09:00:00"),
            ev("v", "t2", "p", "2014-01-05T17:00:00"),
            ev("w", "t3", "p", "2014-01-05T12:00:00"),
            ev("w", "t4", "p", "2014-01-06T12:00:00"),
        ]
        snap = build_snapshot(events)
        volunteers, projects = derive_profiles(snap, {"v": ts("2014-01-01T00:00:00")})
        metrics = compute_volunteer_metrics(volunteers, projects, snap.observation_end)
        assert volunteers["v"].join_instant == ts("2014-01-01T00:00:00")
        assert volunteers["v"].active_day_count == 1
        assert metrics["v"].platform_class is PlatformClass.TRANSIENT
        assert metrics["w"].platform_class is PlatformClass.REGULAR

    def test_earlier_join_widens_availability_and_duration(self):
        from crowdmetrics.volunteers import compute_volunteer_metrics

        # q's only activity predates v's first event but not v's registration
        events = [
            ev("w", "t0", "q", "2014-01-01T12:00:00"),
            ev("v", "t1", "p", "2014-01-11T12:00:00"),
            ev("v", "t2", "p", "2014-01-21T12:00:00"),
            ev("w", "t3", "p", "2014-01-31T12:00:00"),
        ]
        snap = build_snapshot(events)
        plain = compute_volunteer_metrics(*derive_profiles(snap), snap.observation_end)
        override = {"v": ts("2014-01-01T12:00:00")}
        shifted = compute_volunteer_metrics(
            *derive_profiles(snap, override), snap.observation_end
        )
        assert plain["v"].available_projects == 1
        assert shifted["v"].available_projects == 2
        assert shifted["v"].relative_activity_duration > plain["v"].relative_activity_duration
        assert plain["w"] == shifted["w"]


#: An ``EventTable``'s fields, in constructor order, with valid values: sorted id tables that hold only used ids.
TABLE = {
    "volunteer_ids": ("a", "b"),
    "task_ids": ("t1", "t2", "t3"),
    "project_ids": ("p1", "p2"),
    "volunteer": [0, 1, 1],
    "task": [0, 1, 2],
    "project": [0, 0, 1],
    "timestamp": [0, 86_400_000_000, 2 * 86_400_000_000],
}
#: For each field, another valid value, so a table with it differs from ``TABLE``'s in that field alone.
CHANGED = {
    "volunteer_ids": ("a", "c"),
    "task_ids": ("t1", "t2", "t4"),
    "project_ids": ("p1", "p3"),
    "volunteer": [0, 0, 1],
    "task": [0, 2, 1],
    "project": [0, 1, 1],
    "timestamp": [0, 86_400_000_000, 2 * 86_400_000_000 + 1],
}
ARRAYS = ("volunteer", "task", "project", "timestamp")


def table(**changes):
    """A fresh ``EventTable`` of ``TABLE``'s values, with ``changes`` in place of some."""
    values = {**TABLE, **changes}
    for name in ARRAYS:
        values[name] = np.array(values[name], dtype=np.int64 if name == "timestamp" else np.int32)
    return EventTable(**values)


def assert_read_only(events):
    for name in ARRAYS:
        column = getattr(events, name)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]


class TestEventTableContract:
    """Equality reads every field, the four arrays are read-only whatever built the table, and it has slots only."""

    def test_equal_copies_compare_equal(self):
        assert table() == table()
        positional = table()
        assert EventTable(*(getattr(positional, name) for name in TABLE)) == table()
        # a key table equals the tuple of the same ids, either way round
        keyed = table(task_ids=IdKeys(np.array([b"t1", b"t2", b"t3"])))
        assert keyed == table() and table() == keyed

    @pytest.mark.parametrize("name", list(TABLE))
    def test_a_table_that_differs_in_one_field_compares_unequal(self, name):
        changed = table(**{name: CHANGED[name]})
        assert changed != table()
        assert table() != changed

    def test_a_table_is_not_equal_to_a_non_sequence(self):
        assert not (table() == 5) and table() != None  # noqa: E711

    def test_a_table_has_no_instance_dict(self):
        assert not hasattr(table(), "__dict__")

    def test_columns_are_read_only_however_built(self):
        assert_read_only(table())
        assert_read_only(table().take(np.array([2, 0])))
        assert_read_only(
            EventTable.from_codes(
                ["b", "a"], ["t2", "t1"], ["p1"], np.array([0, 1], dtype=np.int32),
                np.array([1, 0], dtype=np.int32), np.array([0, 0], dtype=np.int32), np.array([5, 6]),
            )
        )

    def test_every_loader_returns_read_only_columns(self, tmp_path):
        records = [
            {"user_id": f"u{i % 2}", "task_id": f"t{i}", "project_id": "p", "finish_time": f"2014-01-0{i + 1}T00:00:00Z"}
            for i in range(3)
        ]
        header = "user_id,task_id,project_id,finish_time\n"
        ascii_csv = tmp_path / "ascii.csv"
        ascii_csv.write_text(header + "".join(",".join(r.values()) + "\n" for r in records), encoding="utf-8")
        declined_csv = tmp_path / "declined.csv"  # a non-ASCII byte: the csv.reader route
        declined_csv.write_text(header + "u\u00e9,t9,p,2014-01-09T00:00:00Z\n", encoding="utf-8")
        jsonl = tmp_path / "events.jsonl"
        jsonl.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        byte_path = load_events(IngestConfig(kind="csv-file", location=str(ascii_csv))).events
        rows_path = load_events(IngestConfig(kind="csv-file", location=str(declined_csv))).events
        assert isinstance(byte_path.task_ids, IdKeys) and isinstance(rows_path.task_ids, tuple)
        pages = SimpleNamespace(
            get=lambda url, timeout: SimpleNamespace(
                status_code=200, headers={}, content=json.dumps(records if url.endswith("offset=0") else []).encode()
            )
        )
        crawled = fetch_api(IngestConfig(kind="api", location="http://platform.test"), session=pages).events
        from_jsonl = load_events(IngestConfig(kind="jsonl-file", location=str(jsonl))).events
        for events in (byte_path, rows_path, from_jsonl, crawled):
            assert len(events)
            assert_read_only(events)
