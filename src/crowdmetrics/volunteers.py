"""Volunteer-perspective metrics and class assignment.

Three per-volunteer metrics: how widely the volunteer tried the projects that
were available to them (exploration rate), in how many of those they kept
coming back (engagement rate), and how much of their platform tenure their
contribution span covered (relative activity duration). On top of these,
every volunteer gets one platform-dimension class and one project-dimension
class; each dimension's classes are mutually exclusive and exhaustive.
"""

from __future__ import annotations

import operator
from datetime import datetime
from enum import Enum
from itertools import product
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .events import DAY_MICROS, ProjectProfile, VolunteerProfile, VolunteerProfiles, _code, to_micros

#: Availability modes: "overlap" counts projects whose last event is not
#: before the volunteer's join instant; "all" counts every project on the
#: platform regardless of timing (sensitivity toggle).
AVAILABILITY_MODES = ("overlap", "all")


class PlatformClass(str, Enum):
    REGULAR = "platform_regular"      # tasks on >= 2 distinct days overall
    TRANSIENT = "platform_transient"  # tasks on exactly one day


class ProjectClass(str, Enum):
    MULTI_PROJECT_REGULAR = "multi_project_regular"    # regular in >= 2 projects
    MULTI_PROJECT_EXPLORER = "multi_project_explorer"  # >= 2 projects, regular in < 2
    ONE_PROJECT = "one_project"                        # touched exactly 1 project


class VolunteerMetrics(NamedTuple):
    """Computed metric values and class labels for one volunteer.

    The fields, in this order, are the columns of every volunteer table.
    """

    volunteer_id: str
    available_projects: int   # a
    explored_projects: int    # p
    regular_projects: int     # g
    exploration_rate: float
    engagement_rate: float
    relative_activity_duration: float
    platform_class: PlatformClass
    project_class: ProjectClass


_PLATFORM_CLASSES = tuple(PlatformClass)
_PROJECT_CLASSES = tuple(ProjectClass)
#: Every (platform class, project class) pair; the pair of class codes
#: ``platform`` and ``project`` is at ``platform * len(ProjectClass) + project``.
_CLASS_PAIRS = tuple(product(_PLATFORM_CLASSES, _PROJECT_CLASSES))


def _available(join: np.ndarray, projects: Mapping[str, ProjectProfile], mode: str) -> np.ndarray:
    """Available-project counts for join instants in epoch microseconds.

    Counts, per join instant, the projects whose last event is not before it
    ("overlap") or every project ("all"), through a sorted index of project
    end instants instead of a scan per volunteer.
    """
    if mode == "all":
        return np.full(len(join), len(projects), dtype=np.int64)
    if mode != "overlap":
        raise ValueError(f"unknown availability mode: {mode!r}")
    ends = np.sort(np.array([to_micros(p.last_event) for p in projects.values()], dtype=np.int64))
    return len(ends) - np.searchsorted(ends, join, side="left")


def _activity_duration(join: np.ndarray, last: np.ndarray, end: int) -> np.ndarray:
    """``relative_activity_duration`` for arrays of epoch-microsecond instants."""
    join_day = join // DAY_MICROS
    tenure = end // DAY_MICROS - join_day
    span = last // DAY_MICROS - join_day
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(tenure == 0, 1.0, span / tenure)


def availability_count(
    volunteer: VolunteerProfile,
    projects: Mapping[str, ProjectProfile],
    mode: str = "overlap",
) -> int:
    """Number of projects available to the volunteer (the metric denominator a).

    In "overlap" mode a project counts when its last event is at or after the
    volunteer's join instant, i.e. it was still active when the volunteer
    arrived or was built later. Projects that ended before the volunteer
    joined are excluded. In "all" mode every project counts.
    """
    return int(_available(np.array([to_micros(volunteer.join_instant)]), projects, mode)[0])


def exploration_rate(
    volunteer: VolunteerProfile,
    projects: Mapping[str, ProjectProfile],
    mode: str = "overlap",
) -> float:
    """Fraction p/a of available projects the volunteer performed a task in."""
    available = availability_count(volunteer, projects, mode)
    return volunteer.explored_project_count / available


def engagement_rate(
    volunteer: VolunteerProfile,
    projects: Mapping[str, ProjectProfile],
    mode: str = "overlap",
) -> float:
    """Fraction g/a of available projects the volunteer was regular in.

    A volunteer is regular in a project when they performed tasks there on at
    least two distinct calendar days. Always <= the exploration rate.
    """
    available = availability_count(volunteer, projects, mode)
    return volunteer.regular_project_count / available


def relative_activity_duration(volunteer: VolunteerProfile, observation_end: datetime) -> float:
    """Contribution span over platform tenure, in calendar days, in [0, 1].

    Span is the number of days between the first and last contribution;
    tenure runs from the join day to the observation end day. A volunteer who
    joined on the observation day used their entire (zero-length) window, so
    a zero denominator yields 1.0.
    """
    join = np.array([to_micros(volunteer.join_instant)])
    last = np.array([to_micros(volunteer.last_instant)])
    return float(_activity_duration(join, last, to_micros(observation_end))[0])


def _class_codes(
    active_days: np.ndarray, explored: np.ndarray, regular: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-volunteer class codes (arrays, or single counts): indices into the enums' members.

    Platform: regular (0) on >= 2 active days, transient (1) otherwise.
    Project: multi-project regular (0) when regular in >= 2 projects, else
    multi-project explorer (1) when >= 2 were touched, else one-project (2).
    """
    platform = np.where(active_days >= 2, 0, 1)
    project = np.where(regular >= 2, 0, np.where(explored >= 2, 1, 2))
    return platform, project


def classify(
    active_day_count: int, explored_projects: int, regular_projects: int
) -> tuple[PlatformClass, ProjectClass]:
    """Platform- and project-dimension classes of one volunteer (see ``_class_codes``)."""
    platform, project = _class_codes(active_day_count, explored_projects, regular_projects)
    return _PLATFORM_CLASSES[platform], _PROJECT_CLASSES[project]


class VolunteerMetricsTable(Mapping[str, VolunteerMetrics]):
    """Every volunteer's metrics and classes as columns, read as a mapping of rows.

    The columns are derived from the profiles' count arrays: ``volunteer_ids``
    lists the ids in sorted order, ``available``, ``explored``, ``regular``
    and ``duration`` hold each volunteer's a, p, g and relative activity
    duration, and ``platform`` and ``project`` the class codes of
    ``_class_codes``, one entry per id. A ``VolunteerMetrics`` is built only
    when a volunteer is looked up or the rows are read; ``values()`` is the
    rows as a sequence in id order.
    """

    def __init__(
        self,
        volunteers: VolunteerProfiles,
        projects: Mapping[str, ProjectProfile],
        observation_end: datetime,
        availability: str,
    ):
        self.volunteer_ids, self.explored, self.regular = volunteers.ids, volunteers.explored, volunteers.regular
        self.available = _available(volunteers.join, projects, availability)
        self.duration = _activity_duration(volunteers.join, volunteers.last, to_micros(observation_end))
        self.platform, self.project = _class_codes(volunteers.active_day_count, self.explored, self.regular)

    def __len__(self) -> int:
        return len(self.volunteer_ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self.volunteer_ids)

    def __getitem__(self, volunteer_id: str) -> VolunteerMetrics:
        return self.values()[_code(self.volunteer_ids, volunteer_id)]

    def values(self) -> VolunteerRows:
        return VolunteerRows(self)

    def platform_regulars(self) -> np.ndarray:
        """Boolean mask of the platform regulars, in id order."""
        return self.platform == _PLATFORM_CLASSES.index(PlatformClass.REGULAR)

    def classes(self) -> Iterator[tuple[PlatformClass, ProjectClass]]:
        """Each volunteer's (platform class, project class), in id order."""
        codes = self.platform * len(_PROJECT_CLASSES) + self.project
        return map(_CLASS_PAIRS.__getitem__, codes.tolist())

    def columns(self, rows: slice) -> list:
        """The ``VolunteerMetrics`` columns of a slice of the rows, in field order.

        The ids and the class members come as sequences, the counts and
        the rates as int64 and float64 arrays.
        """
        available, explored, regular = self.available[rows], self.explored[rows], self.regular[rows]
        return [
            self.volunteer_ids[rows],
            available,
            explored,
            regular,
            explored / available,
            regular / available,
            self.duration[rows],
            list(map(_PLATFORM_CLASSES.__getitem__, self.platform[rows].tolist())),
            list(map(_PROJECT_CLASSES.__getitem__, self.project[rows].tolist())),
        ]


class VolunteerRows(Sequence[VolunteerMetrics]):
    """A ``VolunteerMetricsTable``'s rows in volunteer id order, built from its columns when read.

    Two row sequences are equal when they hold equal rows in the same order.
    """

    def __init__(self, table: VolunteerMetricsTable):
        self.table = table

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, index: int | slice) -> VolunteerMetrics | list[VolunteerMetrics]:
        if isinstance(index, slice):
            return list(self._build(index))
        try:
            row = range(len(self))[index]
        except IndexError:
            raise IndexError(f"volunteer row index {index} out of range for {len(self)} rows") from None
        return next(self._build(slice(row, row + 1)))

    def __iter__(self) -> Iterator[VolunteerMetrics]:
        return self._build(slice(None))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def _build(self, rows: slice) -> Iterator[VolunteerMetrics]:
        columns = self.table.columns(rows)
        return map(VolunteerMetrics, *(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))


def compute_volunteer_metrics(
    volunteers: VolunteerProfiles,
    projects: Mapping[str, ProjectProfile],
    observation_end: datetime,
    availability: str = "overlap",
) -> VolunteerMetricsTable:
    """Compute metrics and classes for every volunteer.

    Reads the per-volunteer count arrays of the profiles ``derive_profiles``
    returns and computes each metric and class for all volunteers at once.
    The table holds the ids and its own arrays, not the profiles, so it does
    not keep the snapshot's events alive.
    """
    return VolunteerMetricsTable(volunteers, projects, observation_end, availability)
