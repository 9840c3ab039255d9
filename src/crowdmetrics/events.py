"""Core domain model: task-execution events, platform snapshots, derived profiles.

A task-execution event records that one volunteer completed one task of one
project at one instant. A snapshot is the deduplicated, time-bounded event
collection that every metric in this package is computed from; profiles are
per-volunteer and per-project aggregates derived from a snapshot.

Events are held as columns (see ``EventTable``): id codes and UTC epoch
microseconds in numpy arrays. Deduplication, ordering and profile counts are
sorts and bin counts over those arrays; event objects, day sets and member
sets are built only when a caller reads them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np


class EmptyDatasetError(ValueError):
    """No events remain after exclusion filtering."""


class InvalidTimestampError(ValueError):
    """A timestamp string could not be parsed as ISO-8601."""


class EventAfterObservationEndError(ValueError):
    """An event timestamp lies beyond the declared observation end."""


class RegistrationAfterFirstEventError(ValueError):
    """A registration-date override postdates the volunteer's first event."""


class TaskExecutionEvent(NamedTuple):
    """One task performed by one volunteer in one project at one instant."""

    volunteer_id: str
    task_id: str
    project_id: str
    timestamp: datetime  # timezone-aware, UTC


EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
DAY_MICROS = 86_400_000_000
_MICROSECOND = timedelta(microseconds=1)
_EPOCH_ORDINAL = EPOCH.toordinal()


def to_micros(instant: datetime) -> int:
    """UTC epoch microseconds of a timezone-aware instant."""
    return (instant - EPOCH) // _MICROSECOND


def from_micros(micros: int) -> datetime:
    """The UTC instant ``micros`` microseconds after the epoch."""
    return EPOCH + timedelta(microseconds=micros)


def _day(day_number: int) -> date:
    return date.fromordinal(_EPOCH_ORDINAL + day_number)


def parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 timestamp into a timezone-aware UTC datetime.

    Accepts both the ``2014-07-17T10:00:00Z`` and ``2014-07-17 10:00:00``
    forms. Naive timestamps are taken to be UTC; aware ones are converted.

    Raises:
        InvalidTimestampError: if the string is not valid ISO-8601.
    """
    text = raw.strip()
    if text.endswith(("Z", "z")):
        # datetime.fromisoformat() rejects the Z suffix before Python 3.11
        text = text[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(text)
    except (ValueError, TypeError) as exc:
        raise InvalidTimestampError(f"unparseable timestamp: {raw!r}") from exc
    tz = parsed.tzinfo
    if tz is None:
        return parsed.replace(tzinfo=timezone.utc)
    if tz is timezone.utc:
        # already the UTC singleton, astimezone would be an expensive no-op
        return parsed
    return parsed.astimezone(timezone.utc)


#: Character positions of the canonical ``YYYY-MM-DDTHH:MM:SSZ`` form.
_CANONICAL_SEPARATORS = ((4, "-"), (7, "-"), (10, "T"), (13, ":"), (16, ":"), (19, "Z"))
_CANONICAL_NUMBERS = ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19))
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=np.int32)
#: Values parsed per vectorised step; bounds the temporaries to a few MB.
_PARSE_CHUNK = 1 << 16


def parse_canonical_timestamps(raw: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Epoch microseconds of the values in exactly ``YYYY-MM-DDTHH:MM:SSZ`` form.

    Returns the int64 microseconds and a mask of the values parsed. A value
    is parsed only when it has exactly 20 characters in that shape and names
    a real instant; every other value, including canonical-shaped ones such
    as ``2014-02-30T00:00:00Z``, is left out of the mask for
    ``parse_timestamp``, so callers keep its results and error messages.
    """
    count = len(raw)
    micros = np.zeros(count, dtype=np.int64)
    parsed = np.fromiter(map(len, raw), dtype=np.int32, count=count) == 20
    for start in range(0, count, _PARSE_CHUNK):
        stop = min(start + _PARSE_CHUNK, count)
        shaped = parsed[start:stop]
        if shaped.all():
            chunk_micros, valid = _parse_canonical(raw[start:stop])
            micros[start:stop] = chunk_micros
        elif shaped.any():
            chunk_micros, valid = _parse_canonical(list(compress(raw[start:stop], shaped.tolist())))
            micros[start:stop][shaped] = chunk_micros
        else:
            continue
        shaped[shaped] = valid  # a view: updates ``parsed``
    return micros, parsed


def _parse_canonical(values: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Microseconds and validity of 20-character values; see above."""
    # "replace" encodes each non-ASCII code point as one "?", so every value
    # stays 20 bytes long and fails the digit or separator checks
    text = "".join(values).encode("ascii", "replace")
    chars = np.frombuffer(text, dtype=np.uint8).reshape(-1, 20)
    valid = np.ones(len(chars), dtype=bool)
    for position, separator in _CANONICAL_SEPARATORS:
        valid &= chars[:, position] == ord(separator)
    numbers = []
    for start, stop in _CANONICAL_NUMBERS:
        value = np.zeros(len(chars), dtype=np.int32)
        for position in range(start, stop):
            digit = chars[:, position] - np.uint8(ord("0"))  # bytes below "0" wrap past 9
            valid &= digit <= 9
            value = value * 10 + digit
        numbers.append(value)
    year, month, day, hour, minute, second = numbers
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month - 1, 0, 11)] + (leap & (month == 2))
    valid &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    valid &= (hour <= 23) & (minute <= 59) & (second <= 59)
    # days since 1970-01-01 of a proleptic Gregorian date (Hinnant's days_from_civil)
    shifted = year - (month <= 2)
    era = shifted // 400
    year_of_era = shifted - era * 400
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    days = (era * 146_097 + day_of_era - 719_468).astype(np.int64)
    seconds = days * 86_400 + hour * 3_600 + minute * 60 + second
    return np.where(valid, seconds * 1_000_000, 0), valid


def _compact(ids: tuple[str, ...], codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Drop the ids no code uses, keeping the order of the rest."""
    used = np.zeros(len(ids), dtype=bool)
    used[codes] = True
    if used.all():
        return ids, codes
    remap = np.cumsum(used, dtype=np.int32) - 1
    return tuple(compress(ids, used.tolist())), remap[codes]


def _sort_codes(ids: tuple[str, ...], codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Re-code against the same ids sorted as Python strings."""
    order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    if np.array_equal(order, np.arange(len(ids))):
        return ids, codes
    remap = np.empty(len(ids), dtype=np.int32)
    remap[order] = np.arange(len(ids), dtype=np.int32)
    return tuple(map(ids.__getitem__, order.tolist())), remap[codes]


def _encode(column: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct ids of ``column`` sorted as Python strings, and its codes."""
    table = tuple(sorted(set(column)))
    rank = dict(zip(table, range(len(table))))
    return table, np.fromiter(map(rank.__getitem__, column), dtype=np.int32, count=len(column))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class EventTable(Sequence):
    """Task-execution events as columns, readable as a sequence of events.

    ``volunteer``, ``task`` and ``project`` are int32 codes into the id
    tables ``volunteer_ids``, ``task_ids`` and ``project_ids``; each table
    lists the ids its events use, sorted as Python strings, so comparing
    codes compares ids. ``timestamp`` holds int64 UTC epoch microseconds.
    The arrays are read-only. Indexing or iterating builds
    ``TaskExecutionEvent`` objects on the fly; ``len`` builds none.

    Because the tables are sorted and hold only used ids, two tables hold
    the same events in the same order exactly when their id tables and
    columns are equal.
    """

    __slots__ = ("volunteer_ids", "task_ids", "project_ids", "volunteer", "task", "project", "timestamp")

    def __init__(
        self,
        volunteer_ids: tuple[str, ...],
        task_ids: tuple[str, ...],
        project_ids: tuple[str, ...],
        volunteer: np.ndarray,
        task: np.ndarray,
        project: np.ndarray,
        timestamp: np.ndarray,
    ):
        self.volunteer_ids = volunteer_ids
        self.task_ids = task_ids
        self.project_ids = project_ids
        self.volunteer = _read_only(volunteer)
        self.task = _read_only(task)
        self.project = _read_only(project)
        self.timestamp = _read_only(timestamp)

    @classmethod
    def from_codes(
        cls,
        volunteer_ids: Iterable[str],
        task_ids: Iterable[str],
        project_ids: Iterable[str],
        volunteer: np.ndarray,
        task: np.ndarray,
        project: np.ndarray,
        timestamp: np.ndarray,
    ) -> EventTable:
        """Build a table from ids listed in code order and columns of their codes.

        The ids may be in any order and may include ids no event uses; the
        table is re-coded to the sorted, used ids.
        """
        volunteer_table, volunteer = _sort_codes(*_compact(tuple(volunteer_ids), volunteer))
        task_table, task = _sort_codes(*_compact(tuple(task_ids), task))
        project_table, project = _sort_codes(*_compact(tuple(project_ids), project))
        return cls(volunteer_table, task_table, project_table, volunteer, task, project, timestamp)

    @classmethod
    def from_events(cls, events: Iterable[TaskExecutionEvent]) -> EventTable:
        """Encode event objects, e.g. from the JSONL or API loaders or ``synth``.

        Raises:
            ValueError: an event carries an empty id.
        """
        events = list(events)
        volunteers, tasks, projects, timestamps = tuple(zip(*events)) or ((),) * 4
        if not (all(volunteers) and all(tasks) and all(projects)):
            event = next(e for e in events if not all(e[:3]))
            raise ValueError(f"event with empty id field: {event!r}")
        volunteer_ids, volunteer = _encode(volunteers)
        task_ids, task = _encode(tasks)
        project_ids, project = _encode(projects)
        micros = np.fromiter(map(to_micros, timestamps), dtype=np.int64, count=len(timestamps))
        return cls(volunteer_ids, task_ids, project_ids, volunteer, task, project, micros)

    def take(self, rows: np.ndarray) -> EventTable:
        """The events at ``rows``, in that order, with unused ids dropped."""
        volunteer_ids, volunteer = _compact(self.volunteer_ids, self.volunteer[rows])
        task_ids, task = _compact(self.task_ids, self.task[rows])
        project_ids, project = _compact(self.project_ids, self.project[rows])
        return EventTable(
            volunteer_ids, task_ids, project_ids, volunteer, task, project, self.timestamp[rows]
        )

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return TaskExecutionEvent(
            self.volunteer_ids[self.volunteer[index]],
            self.task_ids[self.task[index]],
            self.project_ids[self.project[index]],
            from_micros(int(self.timestamp[index])),
        )

    def __iter__(self) -> Iterator[TaskExecutionEvent]:
        volunteer_ids, task_ids, project_ids = self.volunteer_ids, self.task_ids, self.project_ids
        columns = (self.volunteer, self.task, self.project, self.timestamp)
        for volunteer, task, project, micros in zip(*(column.tolist() for column in columns)):
            yield TaskExecutionEvent(
                volunteer_ids[volunteer], task_ids[task], project_ids[project], from_micros(micros)
            )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventTable):
            return (
                self.volunteer_ids == other.volunteer_ids
                and self.task_ids == other.task_ids
                and self.project_ids == other.project_ids
                and np.array_equal(self.volunteer, other.volunteer)
                and np.array_equal(self.task, other.task)
                and np.array_equal(self.project, other.project)
                and np.array_equal(self.timestamp, other.timestamp)
            )
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"EventTable({len(self)} events, {len(self.volunteer_ids)} volunteers,"
            f" {len(self.project_ids)} projects)"
        )


@dataclass(frozen=True)
class PlatformSnapshot:
    """Deduplicated, time-bounded event collection plus the observation end.

    Immutable after construction and safe to share across parallel workers.
    ``events`` is ordered by (timestamp, volunteer_id, task_id), and
    equality compares its columns. ``duplicates_removed`` counts the
    (volunteer, task) re-submissions dropped during deduplication; it is
    surfaced in reports but does not take part in snapshot equality.

    Snapshots are unhashable by design: ``events`` also compares equal to
    any sequence holding the same events, such as a tuple, and no hash of
    its columns could agree with that tuple's hash.
    """

    events: EventTable
    observation_end: datetime
    excluded_projects: frozenset[str] = frozenset()
    duplicates_removed: int = field(default=0, compare=False)

    __hash__ = None  # type: ignore[assignment]

    @property
    def event_count(self) -> int:
        return len(self.events)


@dataclass
class VolunteerProfile:
    """Per-volunteer activity history derived from a snapshot.

    ``join_instant`` is the first event unless a registration-date override
    was supplied at derivation; it never exceeds ``last_instant``. The day
    sets ``active_days`` and ``per_project_active_days`` are built from the
    snapshot when first read.
    """

    volunteer_id: str
    join_instant: datetime
    last_instant: datetime
    per_project_task_count: dict[str, int]
    first_project: str
    active_day_count: int
    regular_project_count: int  # projects with tasks on at least two distinct days
    _profiles: VolunteerProfiles = field(repr=False, compare=False)

    @property
    def explored_project_count(self) -> int:
        """Number of distinct projects with at least one task by this volunteer."""
        return len(self.per_project_task_count)

    @property
    def event_count(self) -> int:
        return sum(self.per_project_task_count.values())

    @cached_property
    def active_days(self) -> set[date]:
        return self._profiles.days(self.volunteer_id)

    @cached_property
    def per_project_active_days(self) -> dict[str, set[date]]:
        return {
            project_id: self._profiles.days(self.volunteer_id, project_id)
            for project_id in self.per_project_task_count
        }


@dataclass
class ProjectProfile:
    """Per-project aggregates: availability window, task and volunteer counts.

    ``recruited`` holds volunteers whose first-ever platform task was in this
    project; ``inherited`` holds the rest of its participants. The two sets
    partition ``volunteers`` and are built when first read; their sizes and
    the tasks the recruited side performed here are kept as counts.
    """

    project_id: str
    first_event: datetime
    last_event: datetime
    task_count: int
    recruited_count: int
    inherited_count: int
    recruited_task_count: int  # tasks here by the volunteers this project recruited
    _profiles: VolunteerProfiles = field(repr=False, compare=False)

    @property
    def inherited_task_count(self) -> int:
        return self.task_count - self.recruited_task_count

    @cached_property
    def recruited(self) -> set[str]:
        return self._profiles.members(self.project_id, recruited=True)

    @cached_property
    def inherited(self) -> set[str]:
        return self._profiles.members(self.project_id, recruited=False)

    @property
    def volunteers(self) -> set[str]:
        return self.recruited | self.inherited


def _find(table: tuple[str, ...], item: str) -> int | None:
    index = bisect_left(table, item)
    if index < len(table) and table[index] == item:
        return index
    return None


class VolunteerProfiles(Mapping[str, VolunteerProfile]):
    """Per-volunteer counts over a snapshot, one array entry per volunteer code.

    Codes follow the snapshot's sorted volunteer table, so iteration is in
    volunteer id order. The arrays are what the metrics read: ``join`` and
    ``last`` (epoch microseconds), ``first_project`` (a project code),
    ``active_day_count``, ``explored`` and ``regular``. A
    ``VolunteerProfile`` is built only when a volunteer is looked up.
    """

    def __init__(
        self,
        events: EventTable,
        join: np.ndarray,
        last: np.ndarray,
        first_project: np.ndarray,
        active_day_count: np.ndarray,
        by_volunteer: np.ndarray,
        starts: np.ndarray,
        pair_volunteer: np.ndarray,
        pair_project: np.ndarray,
        pair_tasks: np.ndarray,
        pair_regular: np.ndarray,
    ):
        count = len(events.volunteer_ids)
        self.ids = events.volunteer_ids
        self.join = join
        self.last = last
        self.first_project = first_project
        self.active_day_count = active_day_count
        self.explored = np.bincount(pair_volunteer, minlength=count)
        self.regular = np.bincount(pair_volunteer[pair_regular], minlength=count)
        self._events = events
        # events of volunteer c in snapshot order: by_volunteer[starts[c]:starts[c + 1]]
        self._by_volunteer = by_volunteer
        self._starts = starts
        # (volunteer, project) pairs, sorted by volunteer and then project
        self._pair_starts = np.concatenate(([0], np.cumsum(self.explored)))
        self._pair_volunteer = pair_volunteer
        self._pair_project = pair_project
        self._pair_tasks = pair_tasks

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __getitem__(self, volunteer_id: str) -> VolunteerProfile:
        code = _find(self.ids, volunteer_id) if isinstance(volunteer_id, str) else None
        if code is None:
            raise KeyError(volunteer_id)
        pairs = slice(self._pair_starts[code], self._pair_starts[code + 1])
        project_ids = self._events.project_ids
        return VolunteerProfile(
            volunteer_id=volunteer_id,
            join_instant=from_micros(int(self.join[code])),
            last_instant=from_micros(int(self.last[code])),
            per_project_task_count={
                project_ids[project]: tasks
                for project, tasks in zip(
                    self._pair_project[pairs].tolist(), self._pair_tasks[pairs].tolist()
                )
            },
            first_project=project_ids[self.first_project[code]],
            active_day_count=int(self.active_day_count[code]),
            regular_project_count=int(self.regular[code]),
            _profiles=self,
        )

    def days(self, volunteer_id: str, project_id: str | None = None) -> set[date]:
        """Calendar days (UTC) with a task by the volunteer, optionally in one project."""
        code = _find(self.ids, volunteer_id)
        if code is None:
            raise KeyError(volunteer_id)
        rows = self._by_volunteer[self._starts[code] : self._starts[code + 1]]
        if project_id is not None:
            rows = rows[self._events.project[rows] == _find(self._events.project_ids, project_id)]
        day_numbers = set((self._events.timestamp[rows] // DAY_MICROS).tolist())
        return {_day(number) for number in day_numbers}

    def members(self, project_id: str, recruited: bool) -> set[str]:
        """Volunteers of a project that it recruited, or else inherited."""
        code = _find(self._events.project_ids, project_id)
        members = self._pair_volunteer[self._pair_project == code]
        chosen = members[(self.first_project[members] == code) == recruited]
        return {self.ids[volunteer] for volunteer in chosen.tolist()}


def build_snapshot(
    events: Iterable[TaskExecutionEvent],
    observation_end: datetime | None = None,
    exclusions: Iterable[str] = (),
) -> PlatformSnapshot:
    """Validate, filter, deduplicate, and order raw events into a snapshot.

    ``events`` is an ``EventTable`` (as every loader returns) or any
    iterable of event objects, which is encoded first. Events from excluded
    projects are dropped first. Duplicate (volunteer_id, task_id) pairs keep
    the record with the earliest timestamp, ties going to the smallest
    project_id: a task is one unit of contribution and re-submissions are
    noise. Surviving events are sorted by (timestamp, volunteer_id, task_id)
    so downstream derivation is deterministic. When ``observation_end`` is
    absent it defaults to the maximum event timestamp.

    Raises:
        EmptyDatasetError: no events survive exclusion filtering.
        EventAfterObservationEndError: an event postdates ``observation_end``.
        ValueError: an event carries an empty id.
    """
    excluded = frozenset(exclusions)
    table = events if isinstance(events, EventTable) else EventTable.from_events(events)
    dropped = [code for code, project_id in enumerate(table.project_ids) if project_id in excluded]
    rows = np.flatnonzero(~np.isin(table.project, dropped))
    if not rows.size:
        raise EmptyDatasetError("no events survive exclusion filtering")

    timestamp = table.timestamp
    # (volunteer, task) as one key that sorts by volunteer, then task
    pair = table.volunteer[rows].astype(np.int64) * len(table.task_ids) + table.task[rows]
    order = np.lexsort((table.project[rows], timestamp[rows], pair))
    pair, rows = pair[order], rows[order]
    first = np.ones(len(rows), dtype=bool)
    np.not_equal(pair[1:], pair[:-1], out=first[1:])
    duplicates = len(rows) - int(np.count_nonzero(first))
    pair, rows = pair[first], rows[first]
    rows = rows[np.lexsort((pair, timestamp[rows]))]
    ordered = table.take(rows)

    latest = int(ordered.timestamp[-1])
    if observation_end is None:
        observation_end = from_micros(latest)
    else:
        end = to_micros(observation_end)
        if latest > end:
            offender = ordered[int(np.searchsorted(ordered.timestamp, end, side="right"))]
            raise EventAfterObservationEndError(
                f"event {offender.task_id!r} at {offender.timestamp.isoformat()} "
                f"is after observation end {observation_end.isoformat()}"
            )
    return PlatformSnapshot(
        events=ordered,
        observation_end=observation_end,
        excluded_projects=excluded,
        duplicates_removed=duplicates,
    )


def _group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values."""
    boundary = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    return np.flatnonzero(boundary)


def _distinct_days(day: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Distinct values per group of a sequence whose groups are each sorted."""
    new_day = np.ones(len(day), dtype=bool)
    np.not_equal(day[1:], day[:-1], out=new_day[1:])
    new_day[starts] = True
    return np.add.reduceat(new_day, starts, dtype=np.int64)


def derive_profiles(
    snapshot: PlatformSnapshot,
    registration_dates: Mapping[str, datetime] | None = None,
) -> tuple[VolunteerProfiles, dict[str, ProjectProfile]]:
    """Derive volunteer and project profiles from a snapshot.

    A volunteer's first project is the project of their earliest event; ties
    on the timestamp are broken by the smallest task_id, which the snapshot's
    sort order provides for free. Recruitment attribution follows from that:
    a volunteer is recruited by their first project and inherited by every
    other project they contributed to.

    A volunteer's join instant defaults to their first event, the only proxy
    a task log offers. ``registration_dates`` overrides it per volunteer for
    platforms that export account-creation dates; an override may not
    postdate the volunteer's first event, and ids without events are ignored.

    Pure function of its inputs: repeated runs produce identical profiles.

    Raises:
        RegistrationAfterFirstEventError: an override postdates the first event.
    """
    events = snapshot.events
    volunteer, project, timestamp = events.volunteer, events.project, events.timestamp
    project_count = len(events.project_ids)
    day = timestamp // DAY_MICROS

    # Each volunteer's events in snapshot order: the first is the join (ties
    # already ordered by task_id), the last is the last instant.
    by_volunteer = np.argsort(volunteer, kind="stable")
    bounds = np.append(_group_starts(volunteer[by_volunteer]), len(events))
    first = by_volunteer[bounds[:-1]]
    last = by_volunteer[bounds[1:] - 1]
    active_day_count = _distinct_days(day[by_volunteer], bounds[:-1])

    # Each (volunteer, project) pair's events, in snapshot order.
    pair_key = volunteer.astype(np.int64) * project_count + project
    by_pair = np.argsort(pair_key, kind="stable")
    pair_key = pair_key[by_pair]
    pair_starts = _group_starts(pair_key)
    pair_volunteer = (pair_key[pair_starts] // project_count).astype(np.int32)
    pair_project = (pair_key[pair_starts] % project_count).astype(np.int32)
    pair_tasks = np.diff(np.append(pair_starts, len(events)))
    pair_regular = _distinct_days(day[by_pair], pair_starts) >= 2

    join = timestamp[first]
    first_project = project[first]
    if registration_dates:
        late = []
        for volunteer_id, registered in registration_dates.items():
            code = _find(events.volunteer_ids, volunteer_id)
            if code is None:
                continue
            micros = to_micros(registered)
            if micros > timestamp[first[code]]:
                late.append(code)
            else:
                join[code] = micros
        if late:
            # name the offender whose first event is earliest, so the message is deterministic
            offender = events.volunteer_ids[min(late, key=lambda code: first[code])]
            raise RegistrationAfterFirstEventError(
                f"registration date for {offender!r} postdates their first event"
            )

    volunteers = VolunteerProfiles(
        events,
        join=join,
        last=timestamp[last],
        first_project=first_project,
        active_day_count=active_day_count,
        by_volunteer=by_volunteer,
        starts=bounds,
        pair_volunteer=pair_volunteer,
        pair_project=pair_project,
        pair_tasks=pair_tasks,
        pair_regular=pair_regular,
    )

    recruit = pair_project == first_project[pair_volunteer]
    task_count = np.bincount(project, minlength=project_count)
    recruited_count = np.bincount(first_project, minlength=project_count)
    inherited_count = np.bincount(pair_project, minlength=project_count) - recruited_count
    recruited_tasks = np.zeros(project_count, dtype=np.int64)
    np.add.at(recruited_tasks, pair_project[recruit], pair_tasks[recruit])
    project_first = np.full(project_count, np.iinfo(np.int64).max)
    np.minimum.at(project_first, project, timestamp)
    project_last = np.full(project_count, np.iinfo(np.int64).min)
    np.maximum.at(project_last, project, timestamp)
    projects = {
        project_id: ProjectProfile(
            project_id=project_id,
            first_event=from_micros(first_micros),
            last_event=from_micros(last_micros),
            task_count=tasks,
            recruited_count=recruited,
            inherited_count=inherited,
            recruited_task_count=recruited_task_count,
            _profiles=volunteers,
        )
        for project_id, first_micros, last_micros, tasks, recruited, inherited, recruited_task_count in zip(
            events.project_ids,
            project_first.tolist(),
            project_last.tolist(),
            task_count.tolist(),
            recruited_count.tolist(),
            inherited_count.tolist(),
            recruited_tasks.tolist(),
        )
    }
    return volunteers, projects
