"""Scientist-perspective balance metrics per project.

Both balances compare the project's inherited side (volunteers who arrived
from elsewhere on the platform) against its recruited side (volunteers whose
first-ever platform task was here). Positive values mean the inherited side
dominates; negative values mean the recruited side does. When one side is
empty or zero the ratio is undefined, so the result is a tagged Unbounded
value carrying only the sign, never a crash or a NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .events import ProjectProfile, VolunteerProfile


@dataclass(frozen=True)
class Unbounded:
    """Balance whose denominator is zero; only the direction is meaningful."""

    sign: int  # +1 inherited side dominates, -1 recruited side dominates

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError("Unbounded sign must be +1 or -1")

    def __str__(self) -> str:
        return "unbounded+" if self.sign > 0 else "unbounded-"


BalanceValue = Union[float, Unbounded]


def signed_balance(inherited_side: float, recruited_side: float) -> BalanceValue:
    """(inherited − recruited) / min of the two, with tagged unbounded cases.

    Zero iff the operands are equal. When the smaller operand is zero the
    ratio is undefined and an Unbounded with the sign of the difference is
    returned instead.
    """
    if inherited_side == recruited_side:
        return 0.0
    smaller = min(inherited_side, recruited_side)
    if smaller == 0:
        return Unbounded(1 if inherited_side > recruited_side else -1)
    return (inherited_side - recruited_side) / smaller


def balance_in_recruitment(project: ProjectProfile) -> BalanceValue:
    """Compare how many volunteers the project inherited vs recruited."""
    if not project.inherited_count and not project.recruited_count:
        raise ValueError(f"project {project.project_id!r} has no volunteers")
    return signed_balance(project.inherited_count, project.recruited_count)


def balance_in_computing(
    project: ProjectProfile, task_counts: Mapping[str, int]
) -> BalanceValue:
    """Compare mean tasks per inherited volunteer vs per recruited volunteer.

    ``task_counts`` maps volunteer_id to that volunteer's task count within
    this project. A side with no members leaves its mean undefined, so the
    result is Unbounded in the direction of the side that is present.
    """
    if not project.volunteers:
        raise ValueError(f"project {project.project_id!r} has no volunteers")
    if not project.inherited:
        return Unbounded(-1)
    if not project.recruited:
        return Unbounded(1)
    inherited_mean = sum(task_counts[v] for v in project.inherited) / len(project.inherited)
    recruited_mean = sum(task_counts[v] for v in project.recruited) / len(project.recruited)
    return signed_balance(inherited_mean, recruited_mean)


@dataclass(frozen=True)
class ProjectBalances:
    """Both balance metrics for one project, with their ingredients."""

    project_id: str
    inherited_count: int            # n
    recruited_count: int            # u
    mean_tasks_inherited: float | None  # t, undefined when n == 0
    mean_tasks_recruited: float | None  # m, undefined when u == 0
    recruitment: BalanceValue
    computing: BalanceValue


def compute_project_balances(
    projects: Mapping[str, ProjectProfile],
    volunteers: Mapping[str, VolunteerProfile],
) -> dict[str, ProjectBalances]:
    """Compute both balances for every project. Order-independent.

    Reads only the counts on the project profiles; ``volunteers`` stays in
    the signature for the callers that pass it.
    """
    results: dict[str, ProjectBalances] = {}
    for project_id in sorted(projects):
        project = projects[project_id]
        inherited_count = project.inherited_count
        recruited_count = project.recruited_count
        mean_inherited = (
            project.inherited_task_count / inherited_count if inherited_count else None
        )
        mean_recruited = (
            project.recruited_task_count / recruited_count if recruited_count else None
        )
        if not inherited_count:
            computing: BalanceValue = Unbounded(-1)
        elif not recruited_count:
            computing = Unbounded(1)
        else:
            computing = signed_balance(mean_inherited, mean_recruited)
        results[project_id] = ProjectBalances(
            project_id=project_id,
            inherited_count=inherited_count,
            recruited_count=recruited_count,
            mean_tasks_inherited=mean_inherited,
            mean_tasks_recruited=mean_recruited,
            recruitment=balance_in_recruitment(project),
            computing=computing,
        )
    return results
