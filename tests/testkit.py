"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately avoid the package's own implementations: the
timestamp oracle is a regular expression and ``datetime`` arithmetic, the
Gini oracle is the quadratic pairwise definition, the volunteer oracle
recounts days and projects straight from raw event tuples with collections
primitives, the project oracle recounts each project's window, tasks and
recruitment the same way, and the class oracle is the paper's if/elif
chain. Tests compare the fast production code against these.
"""

from __future__ import annotations

import functools
import re
from collections import defaultdict
from datetime import datetime, timedelta, timezone

import numpy as np

from crowdmetrics.events import TaskExecutionEvent

EPOCH = datetime(2014, 1, 1, tzinfo=timezone.utc)


def ts(text: str) -> datetime:
    """Aware UTC datetime from a compact ISO literal that a test writes ('2014-07-17T10:00')."""
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.astimezone(timezone.utc)


#: RFC 3339's date-time, with ``t`` or a space for ``T``, ``z`` for ``Z``, no zone meaning UTC,
#: and a fraction of at most 6 digits; ASCII digits only.
TIMESTAMP_GRAMMAR = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})[Tt ](\d{2}):(\d{2}):(\d{2})(?:\.(\d{1,6}))?(?:[Zz]|([+-])(\d{2}):(\d{2}))?",
    re.ASCII,
)


def timestamp_oracle(raw: str) -> datetime | None:
    """The UTC instant ``raw`` names in the package's timestamp grammar, or None for a malformed value.

    Surrounding whitespace is stripped. The calendar, the 00-23 hour and the
    00-59 minute and second are ``datetime``'s checks; an offset's hour must
    be at most 23 and its minute at most 59, and the instant must stay in
    years 1 to 9999 once the offset is taken off.
    """
    match = TIMESTAMP_GRAMMAR.fullmatch(raw.strip())
    if match is None:
        return None
    *fields, fraction, sign, zone_hours, zone_minutes = match.groups()
    try:
        local = datetime(*map(int, fields), int((fraction or "0").ljust(6, "0")), tzinfo=timezone.utc)
    except ValueError:  # no such day, or an hour, minute or second out of range
        return None
    if sign is None:
        return local
    if int(zone_hours) > 23 or int(zone_minutes) > 59:
        return None
    offset = timedelta(hours=int(zone_hours), minutes=int(zone_minutes))
    try:
        return local - offset if sign == "+" else local + offset
    except OverflowError:  # before year 1 or past year 9999
        return None


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


def project_oracle(events) -> dict[str, dict]:
    """Recount per-project facts directly from raw (deduplicated) events.

    Returns per project: first and last instants, task count, the set of
    volunteers it recruited (those whose first project, as
    ``volunteer_oracle`` picks it, is this one), the set it inherited (its
    other participants), and the tasks its recruited volunteers did in it.
    """
    first_project = {vid: fact["first_project"] for vid, fact in volunteer_oracle(events).items()}
    facts: dict[str, dict] = {}
    for event in events:
        fact = facts.setdefault(
            event.project_id,
            {
                "first": event.timestamp,
                "last": event.timestamp,
                "tasks": 0,
                "recruited": set(),
                "inherited": set(),
                "recruited_tasks": 0,
            },
        )
        fact["first"] = min(fact["first"], event.timestamp)
        fact["last"] = max(fact["last"], event.timestamp)
        fact["tasks"] += 1
        if first_project[event.volunteer_id] == event.project_id:
            fact["recruited"].add(event.volunteer_id)
            fact["recruited_tasks"] += 1
        else:
            fact["inherited"].add(event.volunteer_id)
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
