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

from .events import ProjectProfile


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


def balance_in_computing(project: ProjectProfile) -> BalanceValue:
    """Compare mean tasks per inherited volunteer vs per recruited volunteer.

    The means are the project's task counts on each side over the side's
    volunteer count. A side with no members leaves its mean undefined, so
    the result is Unbounded in the direction of the side that is present.
    """
    if not project.inherited_count and not project.recruited_count:
        raise ValueError(f"project {project.project_id!r} has no volunteers")
    if not project.inherited_count:
        return Unbounded(-1)
    if not project.recruited_count:
        return Unbounded(1)
    return signed_balance(
        project.inherited_task_count / project.inherited_count,
        project.recruited_task_count / project.recruited_count,
    )


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


def compute_project_balances(projects: Mapping[str, ProjectProfile]) -> dict[str, ProjectBalances]:
    """Compute both balances for every project, read from its counts, in project id order."""
    results: dict[str, ProjectBalances] = {}
    for project_id in sorted(projects):
        project = projects[project_id]
        inherited, recruited = project.inherited_count, project.recruited_count
        results[project_id] = ProjectBalances(
            project_id=project_id,
            inherited_count=inherited,
            recruited_count=recruited,
            mean_tasks_inherited=project.inherited_task_count / inherited if inherited else None,
            mean_tasks_recruited=project.recruited_task_count / recruited if recruited else None,
            recruitment=balance_in_recruitment(project),
            computing=balance_in_computing(project),
        )
    return results
