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
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from datetime import date, datetime, timedelta, timezone
from functools import cached_property
from itertools import compress, count
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class EmptyDatasetError(ValueError):
    """No events to analyse: the input holds none, or exclusion filtering removed them all."""


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
    """UTC epoch microseconds of an instant; a naive one is UTC, as ``parse_timestamp`` reads it."""
    if instant.tzinfo is None:
        instant = instant.replace(tzinfo=timezone.utc)
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
    if parsed.tzinfo is None:
        return parsed.replace(tzinfo=timezone.utc)
    try:
        return parsed.astimezone(timezone.utc)
    except OverflowError as exc:  # the offset moves it past year 1 or 9999
        raise InvalidTimestampError(f"timestamp out of range: {raw!r}") from exc


#: Widths of the fixed-width ISO-8601 forms the vectorised kernel reads: ``YYYY-MM-DD?HH:MM:SS``
#: (``?`` is ``T`` or a space), then an optional ``.ffffff``, then nothing, ``Z`` or ``±HH:MM``.
_ISO_WIDTHS = (19, 20, 25, 26, 27, 32)
#: Character positions of the ``YYYY-MM-DD?HH:MM:SS`` part every form starts with.
_DATE_TIME_SEPARATORS = ((4, "-"), (7, "-"), (13, ":"), (16, ":"))
_DATE_TIME_NUMBERS = ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19))
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=np.int32)
_MIN_MICROS = to_micros(datetime.min)
_MAX_MICROS = to_micros(datetime.max)


def parse_canonical_timestamps(raw: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Epoch microseconds of the values in one of the fixed-width ISO-8601 forms.

    Returns the int64 microseconds and a mask of the values parsed. A value
    is parsed only when it is exactly one of the ``_ISO_WIDTHS`` forms and
    ``parse_timestamp`` reads it as the same instant (see
    ``_fixed_width_micros``); every other value, such as
    ``2014-02-30T00:00:00Z``, ``...+24:00`` or a padded one, is left out of
    the mask for ``parse_timestamp``, so callers keep its results and error
    messages. The temporaries grow with ``len(raw)``: callers pass bounded
    blocks.
    """
    widths = np.fromiter(map(len, raw), dtype=np.intp, count=len(raw))
    widths[widths > _ISO_WIDTHS[-1]] = 0  # left out of the text, and no form is 0 wide
    # "replace" encodes each non-ASCII code point as one "?", so every value
    # keeps its width and fails the digit or separator checks
    text = "".join(compress(raw, widths.tolist())).encode("ascii", "replace")
    return _canonical_micros(np.frombuffer(text, dtype=np.uint8), np.cumsum(widths) - widths, widths)


def _canonical_micros(buf: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Microseconds and validity of the values ``buf[starts[i] : starts[i] + widths[i]]`` of a uint8 buffer.

    The kernel of ``parse_canonical_timestamps``, for callers that hold the
    bytes already. The values of each width in ``_ISO_WIDTHS`` are gathered
    into one matrix and read by ``_fixed_width_micros``, all at once when
    every value has the same width; a value of any other width is invalid,
    and an invalid value reads 0.
    """
    if len(widths) and widths[0] in _ISO_WIDTHS and (widths == widths[0]).all():
        # one form throughout, as in a file this package writes: no rows to pick out
        return _fixed_width_micros(sliding_window_view(buf, int(widths[0]))[starts])
    micros = np.zeros(len(starts), dtype=np.int64)
    valid = np.zeros(len(starts), dtype=bool)
    for width in _ISO_WIDTHS:
        rows = np.flatnonzero(widths == width)
        if len(rows):
            micros[rows], valid[rows] = _fixed_width_micros(sliding_window_view(buf, width)[starts[rows]])
    return micros, valid


def _fixed_width_micros(chars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Microseconds and validity of the rows of an ``(n, width)`` uint8 matrix, one ``_ISO_WIDTHS`` form.

    The width fixes the form: a ``.ffffff`` fraction when it is 26 or more,
    and after it nothing, ``Z`` or ``±HH:MM`` (a naive value is UTC). A row
    is valid when it spells a real instant in that form which
    ``parse_timestamp`` reads as the same instant. So the rows left to it
    include an offset hour over 23 or minute over 59 (Python reads
    ``+01:60`` as ``+02:00``), an offset that moves the instant out of
    years 1 to 9999, and a lowercase ``z``.
    """
    width = chars.shape[1]
    fraction = width >= 26
    zone = width - (26 if fraction else 19)  # 0, 1 or 6 characters
    valid = np.ones(len(chars), dtype=bool)

    def number(start: int, stop: int) -> np.ndarray:
        nonlocal valid
        value = np.zeros(len(chars), dtype=np.int32)
        for position in range(start, stop):
            digit = chars[:, position] - np.uint8(ord("0"))  # bytes below "0" wrap past 9
            valid &= digit <= 9
            value = value * 10 + digit
        return value

    year, month, day, hour, minute, second = (number(start, stop) for start, stop in _DATE_TIME_NUMBERS)
    for position, separator in _DATE_TIME_SEPARATORS:
        valid &= chars[:, position] == ord(separator)
    valid &= (chars[:, 10] == ord("T")) | (chars[:, 10] == ord(" "))
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
    micros = (days * 86_400 + hour * 3_600 + minute * 60 + second) * 1_000_000
    if fraction:
        valid &= chars[:, 19] == ord(".")
        micros += number(20, 26)
    if zone == 1:
        valid &= chars[:, -1] == ord("Z")
    elif zone == 6:
        sign = chars[:, -6]
        valid &= ((sign == ord("+")) | (sign == ord("-"))) & (chars[:, -3] == ord(":"))
        hours, minutes = number(width - 5, width - 3), number(width - 2, width)
        valid &= (hours <= 23) & (minutes <= 59)
        offset = (hours * 60 + minutes).astype(np.int64) * 60_000_000
        micros -= np.where(sign == ord("-"), -offset, offset)
        valid &= (micros >= _MIN_MICROS) & (micros <= _MAX_MICROS)
    return np.where(valid, micros, 0), valid


def _key_bytes(keys: np.ndarray) -> np.ndarray:
    """Id keys as ``S`` strings: the bytes of a ``uint64`` key are its id, NUL-padded."""
    return keys.astype(">u8").view("S8") if keys.dtype.kind == "u" else keys


def _decode_ids(keys: np.ndarray) -> tuple[str, ...]:
    """The UTF-8 ids of id keys (see ``IdKeys``), decoded in one join and split."""
    keys = np.ascontiguousarray(_key_bytes(keys))
    matrix = keys.view(np.uint8).reshape(len(keys), keys.dtype.itemsize)
    lines = np.concatenate([matrix, np.full((len(keys), 1), ord("\n"), dtype=np.uint8)], axis=1)
    return tuple(lines[lines != 0].tobytes().decode("utf-8").split("\n")[:-1])


class IdKeys(Sequence):
    """A sorted id table held as keys, each id decoded when it is read.

    ``keys`` holds one key per id: its UTF-8 bytes, NUL-padded, as a
    big-endian ``uint64`` when every id fits in 8 bytes, else as ``S``
    strings. UTF-8 byte order is ``str`` order, so sorted keys are sorted
    ids and ``_code``'s bisect finds an id in them. An index decodes one
    id, a slice or an iteration decodes in one join and split, and ``len``
    decodes nothing. The table compares equal to any sequence of the same
    ids, such as a tuple; two such tables compare by their keys.
    """

    __slots__ = ("keys",)

    def __init__(self, keys: np.ndarray):
        self.keys = _read_only(keys)

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _decode_ids(self.keys[index])
        key = self.keys[index]
        if self.keys.dtype.kind == "u":
            key = int(key).to_bytes(8, "big")
        return key.rstrip(b"\0").decode("utf-8")

    def __iter__(self) -> Iterator[str]:
        return iter(_decode_ids(self.keys))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IdKeys):
            return np.array_equal(_key_bytes(self.keys), _key_bytes(other.keys))
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"IdKeys({len(self)} ids)"


def _compact(ids: Sequence[str], codes: np.ndarray) -> tuple[Sequence[str], np.ndarray]:
    """Drop the ids no code uses, keeping the order of the rest."""
    used = np.zeros(len(ids), dtype=bool)
    used[codes] = True
    if used.all():
        return ids, codes
    remap = np.cumsum(used, dtype=np.int32) - 1
    if isinstance(ids, IdKeys):
        return IdKeys(ids.keys[used]), remap[codes]
    return tuple(compress(ids, used.tolist())), remap[codes]


def _sort_codes(ids: tuple[str, ...], codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Re-code against the same ids sorted as Python strings."""
    order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    if np.array_equal(order, np.arange(len(ids))):
        return ids, codes
    remap = np.empty(len(ids), dtype=np.int32)
    remap[order] = np.arange(len(ids), dtype=np.int32)
    return tuple(map(ids.__getitem__, order.tolist())), remap[codes]


#: Rows an ``EventTable`` iteration turns into Python ints at a time.
_ITER_ROWS = 1 << 16


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(eq=False, repr=False, slots=True)
class EventTable(Sequence):
    """Task-execution events as columns, readable as a sequence of events.

    ``volunteer``, ``task`` and ``project`` are int32 codes into the id
    tables ``volunteer_ids``, ``task_ids`` and ``project_ids``; each table
    lists the ids its events use, sorted as Python strings, so comparing
    codes compares ids. A table is a tuple, or an ``IdKeys`` that decodes
    an id when it is read (the CSV byte path's ``task_ids``). ``timestamp``
    holds int64 UTC epoch microseconds. The arrays are read-only. Indexing
    or iterating builds ``TaskExecutionEvent`` objects on the fly; ``len``
    builds none.

    Because the tables are sorted and hold only used ids, two tables hold
    the same events in the same order exactly when their id tables and
    columns are equal.
    """

    volunteer_ids: Sequence[str]
    task_ids: Sequence[str]
    project_ids: Sequence[str]
    volunteer: np.ndarray
    task: np.ndarray
    project: np.ndarray
    timestamp: np.ndarray

    def __post_init__(self):
        for column in (self.volunteer, self.task, self.project, self.timestamp):
            _read_only(column)

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
        pairs = zip((volunteer_ids, task_ids, project_ids), (volunteer, task, project))
        tables, codes = zip(*(_sort_codes(*_compact(tuple(ids), column)) for ids, column in pairs))
        return cls(*tables, *codes, timestamp)

    @classmethod
    def from_events(cls, events: Iterable[TaskExecutionEvent]) -> EventTable:
        """Encode event objects, e.g. from ``synth``, for ``build_snapshot``.

        Raises:
            ValueError: an event carries an empty id.
        """
        events = list(events)
        volunteers, tasks, projects, timestamps = tuple(zip(*events)) or ((),) * 4
        if not (all(volunteers) and all(tasks) and all(projects)):
            event = next(e for e in events if not all(e[:3]))
            raise ValueError(f"event with empty id field: {event!r}")
        tables = [defaultdict(count().__next__) for _ in range(3)]  # id -> code, in arrival order
        codes = [
            np.fromiter(map(table.__getitem__, ids), dtype=np.int32, count=len(ids))
            for table, ids in zip(tables, (volunteers, tasks, projects))
        ]
        micros = np.fromiter(map(to_micros, timestamps), dtype=np.int64, count=len(timestamps))
        return cls.from_codes(*tables, *codes, micros)

    def take(self, rows: np.ndarray) -> EventTable:
        """The events at ``rows``, in that order, with unused ids dropped."""
        pairs = zip((self.volunteer_ids, self.task_ids, self.project_ids), (self.volunteer, self.task, self.project))
        tables, codes = zip(*(_compact(ids, column[rows]) for ids, column in pairs))
        return EventTable(*tables, *codes, self.timestamp[rows])

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
        # a key table decodes once, in bulk, not once per event; the columns
        # become Python ints a block of rows at a time
        volunteer_ids, task_ids, project_ids = map(tuple, (self.volunteer_ids, self.task_ids, self.project_ids))
        columns = (self.volunteer, self.task, self.project, self.timestamp)
        for start in range(0, len(self), _ITER_ROWS):
            block = (column[start : start + _ITER_ROWS].tolist() for column in columns)
            for volunteer, task, project, micros in zip(*block):
                yield TaskExecutionEvent(
                    volunteer_ids[volunteer], task_ids[task], project_ids[project], from_micros(micros)
                )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventTable):
            pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
            return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)
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
    """One volunteer's entries of ``VolunteerProfiles``, built on lookup.

    ``join_instant`` is the first event unless ``derive_profiles`` applied a
    registration-date override; it never exceeds ``last_instant``. The day
    set ``active_days`` is built from the snapshot when first read.
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


def _code(table: Sequence[str], key: str) -> int:
    """Position of ``key`` in the sorted id ``table``; KeyError if it is not a str in it."""
    if isinstance(key, str):
        index = bisect_left(table, key)
        if index < len(table) and table[index] == key:
            return index
    raise KeyError(key)


def _first_of_runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values."""
    first = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def _first_and_last(groups: np.ndarray, size: int, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest of the integer ``values`` in each of ``size`` groups."""
    first = np.full(size, np.iinfo(values.dtype).max, dtype=values.dtype)
    np.minimum.at(first, groups, values)
    last = np.full(size, np.iinfo(values.dtype).min, dtype=values.dtype)
    np.maximum.at(last, groups, values)
    return first, last


class VolunteerProfiles(Mapping[str, VolunteerProfile]):
    """Per-volunteer counts over a snapshot's events, one array entry per volunteer code.

    Codes follow the snapshot's sorted volunteer table, so iteration is in
    volunteer id order. ``__init__`` reduces the events to the arrays the
    metrics read, and the table must be in snapshot (time) order, as
    ``build_snapshot`` leaves it. ``join``, ``last`` and ``first_project``
    are the timestamps and the project at each volunteer's smallest and
    largest snapshot position: the first event, ties going to the smaller
    task id, and the last (``derive_profiles`` may move ``join`` back to a
    registration date). ``active_day_count`` counts each volunteer's
    distinct (day, volunteer) keys, sorted in place. ``explored`` counts the
    (volunteer, project) pairs, grouped by one argsort of their key, and
    ``regular`` those whose last event falls on a later UTC day than their
    first: tasks on two or more days. In time order those two events are
    the smallest and largest positions in the pair's run of the argsort.
    Each key is built in place and each temporary dropped once read, so at
    most three event-length ones are held at once. A ``VolunteerProfile`` is
    built only when a volunteer is looked up.
    """

    def __init__(self, events: EventTable):
        volunteer, project, timestamp = events.volunteer, events.project, events.timestamp
        project_count = len(events.project_ids)
        self.ids = events.volunteer_ids
        self._events = events
        count = len(self.ids)

        first, last = _first_and_last(volunteer, count, np.arange(len(events)))
        self.join, self.last = timestamp[first], timestamp[last]
        self.first_project = project[first]
        # one sorted key per (day, volunteer) event; the floor % gives the volunteer back
        volunteer_day = timestamp // DAY_MICROS
        volunteer_day *= count
        volunteer_day += volunteer
        volunteer_day.sort()
        distinct = volunteer_day[_first_of_runs(volunteer_day)]
        del volunteer_day
        self.active_day_count = np.bincount(distinct % count, minlength=count)
        del distinct

        # (volunteer, project) pairs, sorted by volunteer and then project
        pair_key = volunteer.astype(np.int64)
        pair_key *= project_count
        pair_key += project
        by_pair = np.argsort(pair_key)
        pair_key = pair_key[by_pair]
        runs = np.flatnonzero(_first_of_runs(pair_key))
        del pair_key
        self._pair_tasks = np.diff(np.append(runs, len(events)))
        # events are in time order, so a pair's first and last events are the
        # smallest and largest positions in its run (for no events, no runs)
        heads, tails = (end.reduceat(by_pair, runs) if len(runs) else runs for end in (np.minimum, np.maximum))
        del by_pair, runs
        self._pair_volunteer, self._pair_project = volunteer[heads], project[heads]
        pair_regular = timestamp[tails] // DAY_MICROS > timestamp[heads] // DAY_MICROS
        del heads, tails
        self.explored = np.bincount(self._pair_volunteer, minlength=count)
        self.regular = np.bincount(self._pair_volunteer[pair_regular], minlength=count)
        # volunteer c's pairs: _pair_starts[c]:_pair_starts[c + 1]
        self._pair_starts = np.concatenate(([0], np.cumsum(self.explored)))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __getitem__(self, volunteer_id: str) -> VolunteerProfile:
        code = _code(self.ids, volunteer_id)
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

    def days(self, volunteer_id: str) -> set[date]:
        """Calendar days (UTC) with a task by the volunteer."""
        code = _code(self.ids, volunteer_id)
        timestamps = self._events.timestamp[self._events.volunteer == code]
        day_numbers = set((timestamps // DAY_MICROS).tolist())
        return {_day(number) for number in day_numbers}

    def members(self, project_id: str, recruited: bool) -> set[str]:
        """Volunteers of a project that it recruited, or else inherited."""
        code = _code(self._events.project_ids, project_id)
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
    so downstream derivation is deterministic. ``observation_end`` is kept
    as its UTC instant and defaults to the maximum event timestamp. A naive
    datetime, here or in an event, is read as UTC.

    Raises:
        EmptyDatasetError: the input holds no events, or none survive exclusion filtering.
        EventAfterObservationEndError: an event postdates ``observation_end``.
        ValueError: an event carries an empty id.
        TypeError: ``exclusions`` is a str, not a collection of project ids.
    """
    if isinstance(exclusions, str):
        raise TypeError("exclusions must be a collection of project ids, not a str")
    excluded = frozenset(exclusions)
    table = events if isinstance(events, EventTable) else EventTable.from_events(events)
    if not len(table):
        raise EmptyDatasetError("the input holds no events")
    dropped = [code for code, project_id in enumerate(table.project_ids) if project_id in excluded]
    volunteer, task, rows = table.volunteer, table.task, None
    if dropped:
        rows = np.flatnonzero(~np.isin(table.project, dropped))
        if not rows.size:
            raise EmptyDatasetError("no events survive exclusion filtering")
        volunteer, task = volunteer[rows], task[rows]

    timestamp = table.timestamp
    # (volunteer, task) as one key that sorts by volunteer, then task
    pair = volunteer.astype(np.int64)
    pair *= len(table.task_ids)
    pair += task
    del volunteer, task
    # the load, this stage and the profiles peak at about the same live memory
    # on the 1.25M-event scale fixture: reassign one array at a time and drop
    # each as soon as it is dead
    order = np.argsort(pair)
    rows = order if rows is None else rows[order]
    pair = pair[order]
    del order
    first = _first_of_runs(pair)
    duplicates = len(pair) - int(np.count_nonzero(first))
    # only the rows of a repeated pair need the full order; its first row wins
    repeated = ~first
    repeated[:-1] |= ~first[1:]
    repeated = np.flatnonzero(repeated)
    repeat_rows = rows[repeated]
    order = np.lexsort((table.project[repeat_rows], timestamp[repeat_rows], pair[repeated]))
    rows[repeated] = repeat_rows[order]
    del pair, repeated, repeat_rows, order
    # the new table is built beside the kept rows, so hold them in the smallest
    # unsigned type that indexes the table: numpy gathers through it as fast
    # as through intp
    rows = rows[first].astype(np.min_scalar_type(len(table)))
    del first
    # the kept rows are in pair order, so a stable sort breaks time ties by pair
    rows = rows[np.argsort(timestamp[rows], kind="stable")]
    ordered = table.take(rows)

    latest = int(ordered.timestamp[-1])
    if observation_end is None:
        observation_end = from_micros(latest)
    else:
        end = to_micros(observation_end)
        observation_end = from_micros(end)
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
    volunteers = VolunteerProfiles(snapshot.events)
    if registration_dates:
        late = []
        for volunteer_id, registered in registration_dates.items():
            try:
                code = _code(volunteers.ids, volunteer_id)
            except KeyError:  # an id with no events
                continue
            micros = to_micros(registered)
            if micros > volunteers.join[code]:
                late.append(code)
            else:
                volunteers.join[code] = micros
        if late:
            # name the offender whose first event is earliest, ties going to the
            # smaller id, so the message is deterministic
            offender = volunteers.ids[min(late, key=lambda code: (volunteers.join[code], code))]
            raise RegistrationAfterFirstEventError(
                f"registration date for {offender!r} postdates their first event"
            )

    events = snapshot.events
    project, timestamp = events.project, events.timestamp
    project_count = len(events.project_ids)
    first_project = volunteers.first_project
    pair_project, pair_tasks = volunteers._pair_project, volunteers._pair_tasks
    recruit = pair_project == first_project[volunteers._pair_volunteer]
    task_count = np.bincount(project, minlength=project_count)
    recruited_count = np.bincount(first_project, minlength=project_count)
    inherited_count = np.bincount(pair_project, minlength=project_count) - recruited_count
    recruited_tasks = np.zeros(project_count, dtype=np.int64)
    np.add.at(recruited_tasks, pair_project[recruit], pair_tasks[recruit])
    first, last = _first_and_last(project, project_count, timestamp)
    # one row per project, its columns in ProjectProfile's field order
    rows = zip(
        events.project_ids,
        map(from_micros, first.tolist()),
        map(from_micros, last.tolist()),
        *(column.tolist() for column in (task_count, recruited_count, inherited_count, recruited_tasks)),
    )
    return volunteers, {row[0]: ProjectProfile(*row, volunteers) for row in rows}
