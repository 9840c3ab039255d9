"""Volunteer-perspective metrics and class assignment.

Three per-volunteer metrics: how widely the volunteer tried the projects that
were available to them (exploration rate), in how many of those they kept
coming back (engagement rate), and how much of their platform tenure their
contribution span covered (relative activity duration). On top of these,
every volunteer gets one platform-dimension class and one project-dimension
class; each dimension's classes are mutually exclusive and exhaustive.
"""

from __future__ import annotations

from datetime import datetime
from enum import Enum
from typing import Mapping, NamedTuple

import numpy as np

from .events import DAY_MICROS, ProjectProfile, VolunteerProfile, VolunteerProfiles, to_micros

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
    return tuple(PlatformClass)[platform], tuple(ProjectClass)[project]


def compute_volunteer_metrics(
    volunteers: VolunteerProfiles,
    projects: Mapping[str, ProjectProfile],
    observation_end: datetime,
    availability: str = "overlap",
) -> dict[str, VolunteerMetrics]:
    """Compute metrics and classes for every volunteer.

    Reads the per-volunteer count arrays of the profiles ``derive_profiles``
    returns and computes each metric and class for all volunteers at once;
    the rows are then zipped from the columns. The dict is built in volunteer
    id order, the profiles' order.
    """
    available = _available(volunteers.join, projects, availability)
    explored = volunteers.explored
    regular = volunteers.regular
    duration = _activity_duration(volunteers.join, volunteers.last, to_micros(observation_end))
    platform, project = _class_codes(volunteers.active_day_count, explored, regular)
    rows = map(
        VolunteerMetrics,
        volunteers,
        available.tolist(),
        explored.tolist(),
        regular.tolist(),
        (explored / available).tolist(),
        (regular / available).tolist(),
        duration.tolist(),
        map(tuple(PlatformClass).__getitem__, platform.tolist()),
        map(tuple(ProjectClass).__getitem__, project.tolist()),
    )
    return dict(zip(volunteers, rows))
