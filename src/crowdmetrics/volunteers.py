"""Volunteer-perspective metrics and class assignment.

Three per-volunteer metrics: how widely the volunteer tried the projects that
were available to them (exploration rate), in how many of those they kept
coming back (engagement rate), and how much of their platform tenure their
contribution span covered (relative activity duration). On top of these,
every volunteer gets one platform-dimension class and one project-dimension
class; each dimension's classes are mutually exclusive and exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import Mapping

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


@dataclass(frozen=True)
class VolunteerMetrics:
    """Computed metric values and class labels for one volunteer."""

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


def classify(
    active_day_count: int, explored_projects: int, regular_projects: int
) -> tuple[PlatformClass, ProjectClass]:
    """Assign the platform-dimension and project-dimension classes.

    Platform dimension: regular on >= 2 active days, transient otherwise.
    Project dimension: multi-project regular when regular in >= 2 projects;
    multi-project explorer when >= 2 projects were touched but fewer than 2
    regularly; one-project otherwise. The elif chain keeps the three project
    classes mutually exclusive.
    """
    if active_day_count >= 2:
        platform_class = PlatformClass.REGULAR
    else:
        platform_class = PlatformClass.TRANSIENT
    if regular_projects >= 2:
        project_class = ProjectClass.MULTI_PROJECT_REGULAR
    elif explored_projects >= 2:
        project_class = ProjectClass.MULTI_PROJECT_EXPLORER
    else:
        project_class = ProjectClass.ONE_PROJECT
    return platform_class, project_class


def compute_volunteer_metrics(
    volunteers: VolunteerProfiles,
    projects: Mapping[str, ProjectProfile],
    observation_end: datetime,
    availability: str = "overlap",
) -> dict[str, VolunteerMetrics]:
    """Compute metrics and classes for every volunteer.

    Reads the per-volunteer count arrays of the profiles ``derive_profiles``
    returns and computes each metric for all volunteers at once; only the
    result objects are built per volunteer.
    """
    if availability not in AVAILABILITY_MODES:
        raise ValueError(f"unknown availability mode: {availability!r}")
    available = _available(volunteers.join, projects, availability)
    explored = volunteers.explored
    regular = volunteers.regular
    duration = _activity_duration(volunteers.join, volunteers.last, to_micros(observation_end))
    results: dict[str, VolunteerMetrics] = {}
    for volunteer_id, a, p, g, exploration, engagement, relative, days in zip(
        volunteers,
        available.tolist(),
        explored.tolist(),
        regular.tolist(),
        (explored / available).tolist(),
        (regular / available).tolist(),
        duration.tolist(),
        volunteers.active_day_count.tolist(),
    ):
        platform_class, project_class = classify(days, p, g)
        results[volunteer_id] = VolunteerMetrics(
            volunteer_id=volunteer_id,
            available_projects=a,
            explored_projects=p,
            regular_projects=g,
            exploration_rate=exploration,
            engagement_rate=engagement,
            relative_activity_duration=relative,
            platform_class=platform_class,
            project_class=project_class,
        )
    return results
