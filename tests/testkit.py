"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately avoid the package's own implementations: the
Gini oracle is the quadratic pairwise definition, the volunteer oracle
recounts days and projects straight from raw event tuples with collections
primitives, and the class oracle is the paper's if/elif chain. Tests compare
the fast production code against these.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from datetime import datetime, timedelta, timezone

import numpy as np

from crowdmetrics.events import TaskExecutionEvent

EPOCH = datetime(2014, 1, 1, tzinfo=timezone.utc)


def ts(text: str) -> datetime:
    """Aware UTC datetime from a compact ISO string ('2014-07-17T10:00')."""
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.astimezone(timezone.utc)


def ev(volunteer: str, task: str, project: str, when: str | datetime) -> TaskExecutionEvent:
    stamp = ts(when) if isinstance(when, str) else when
    return TaskExecutionEvent(volunteer, task, project, stamp)


def ev_at(volunteer: str, task: str, project: str, seconds: int) -> TaskExecutionEvent:
    return TaskExecutionEvent(volunteer, task, project, EPOCH + timedelta(seconds=seconds))


def gini_pairwise(values) -> float:
    """O(n^2) mean-absolute-pairwise-difference Gini, the defining formula."""
    arr = np.asarray(list(values), dtype=float)
    n = arr.size
    total = float(arr.sum())
    spread = float(np.abs(arr[:, None] - arr[None, :]).sum())
    return spread / (2.0 * n * total)


def volunteer_oracle(events) -> dict[str, dict]:
    """Recount per-volunteer facts directly from raw (deduplicated) events.

    Returns per volunteer: explored project set, overall active-day set,
    per-project active-day sets, first project (earliest timestamp, ties by
    smallest task_id then project_id), join/last instants.
    """
    facts: dict[str, dict] = {}
    for event in events:
        fact = facts.setdefault(
            event.volunteer_id,
            {
                "projects": set(),
                "days": set(),
                "days_by_project": defaultdict(set),
                "tasks_by_project": defaultdict(int),
                "first_key": None,
                "join": None,
                "last": None,
            },
        )
        day = event.timestamp.date()
        fact["projects"].add(event.project_id)
        fact["days"].add(day)
        fact["days_by_project"][event.project_id].add(day)
        fact["tasks_by_project"][event.project_id] += 1
        key = (event.timestamp, event.task_id, event.project_id)
        if fact["first_key"] is None or key < fact["first_key"]:
            fact["first_key"] = key
            fact["join"] = event.timestamp
        if fact["last"] is None or event.timestamp > fact["last"]:
            fact["last"] = event.timestamp
    for fact in facts.values():
        fact["first_project"] = fact["first_key"][2]
        fact["regular_projects"] = sum(
            1 for days in fact["days_by_project"].values() if len(days) >= 2
        )
    return facts


def class_oracle(active_days: int, explored: int, regular: int) -> tuple[str, str]:
    """The paper's class rules as an if/elif chain, by their serialized names.

    Platform: regular on two or more active days, transient otherwise.
    Project: multi-project regular when regular in two or more projects,
    else multi-project explorer when two or more were touched, else
    one-project.
    """
    if active_days >= 2:
        platform = "platform_regular"
    else:
        platform = "platform_transient"
    if regular >= 2:
        project = "multi_project_regular"
    elif explored >= 2:
        project = "multi_project_explorer"
    else:
        project = "one_project"
    return platform, project


def dedupe_oracle(events) -> list[TaskExecutionEvent]:
    """Reference deduplication: keep the earliest record per (volunteer, task)."""
    best: dict[tuple[str, str], TaskExecutionEvent] = {}
    for event in events:
        key = (event.volunteer_id, event.task_id)
        prior = best.get(key)
        if prior is None or (event.timestamp, event.project_id) < (prior.timestamp, prior.project_id):
            best[key] = event
    return sorted(best.values(), key=lambda e: (e.timestamp, e.volunteer_id, e.task_id))


# ---------------------------------------------------------------------------
# acceptance-criteria bookkeeping: one printed PASS/FAIL line per criterion,
# surfaced through the terminal-summary hook in conftest.py

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, passed: bool, description: str) -> None:
    ACCEPTANCE_LINES.append(
        f"criterion {number:02d} {'PASS' if passed else 'FAIL'}: {description}"
    )


def criterion(number: int, description: str):
    """Decorator: record the PASS/FAIL line for an acceptance criterion test.

    The wrapped test may return a short string with measured numbers; it is
    appended to the PASS line.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                record_criterion(number, False, f"{description} [{type(exc).__name__}: {exc}]")
                raise
            line = description if not detail else f"{description} ({detail})"
            record_criterion(number, True, line)

        return wrapper

    return decorate
