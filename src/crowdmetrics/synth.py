"""Synthetic event-log generator with planted per-volunteer class labels.

The generator exists to verify the metrics pipeline, not to model human
behaviour. Each volunteer is assigned one of five planted classes and their
events are constructed to satisfy that class definition exactly (a planted
multi-project regular really does get two distinct active days in each of at
least two projects), so classification recovery tests can demand equality
rather than tolerate noise. Generation is deterministic for a fixed seed.

Recruitment is planted too: every volunteer's first event lands in a project
chosen by a largest-remainder quota over the configured recruitment weights,
so the realized per-project recruit counts track the configured skew with
quantization error only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path
from typing import Mapping, Sequence

from .events import TaskExecutionEvent
from .ingest import _replacing
from .volunteers import PlatformClass, ProjectClass


class InfeasibleConfigError(ValueError):
    """The config cannot produce events satisfying its planted classes."""


TRANSIENT_ONE_PROJECT = "transient_one_project"
TRANSIENT_EXPLORER = "transient_explorer"
REGULAR_ONE_PROJECT = "regular_one_project"
REGULAR_EXPLORER = "regular_explorer"
MULTI_PROJECT_REGULAR = "multi_project_regular"

PLANTED_CLASSES = (
    TRANSIENT_ONE_PROJECT,
    TRANSIENT_EXPLORER,
    REGULAR_ONE_PROJECT,
    REGULAR_EXPLORER,
    MULTI_PROJECT_REGULAR,
)

#: What the classifier must report for each planted class.
EXPECTED_LABELS: dict[str, tuple[PlatformClass, ProjectClass]] = {
    TRANSIENT_ONE_PROJECT: (PlatformClass.TRANSIENT, ProjectClass.ONE_PROJECT),
    TRANSIENT_EXPLORER: (PlatformClass.TRANSIENT, ProjectClass.MULTI_PROJECT_EXPLORER),
    REGULAR_ONE_PROJECT: (PlatformClass.REGULAR, ProjectClass.ONE_PROJECT),
    REGULAR_EXPLORER: (PlatformClass.REGULAR, ProjectClass.MULTI_PROJECT_EXPLORER),
    MULTI_PROJECT_REGULAR: (PlatformClass.REGULAR, ProjectClass.MULTI_PROJECT_REGULAR),
}

DEFAULT_MIX: dict[str, float] = {
    TRANSIENT_ONE_PROJECT: 0.55,
    TRANSIENT_EXPLORER: 0.10,
    REGULAR_ONE_PROJECT: 0.20,
    REGULAR_EXPLORER: 0.10,
    MULTI_PROJECT_REGULAR: 0.05,
}


@dataclass(frozen=True)
class ActivityModel:
    """Knobs for how much a planted volunteer does, not what class they are."""

    active_days: tuple[int, int] = (2, 4)       # distinct-day target for regular classes
    tasks_per_day: tuple[int, int] = (1, 3)
    extra_project_probability: float = 0.25     # chance of touching yet another project


DEFAULT_ACTIVITY = ActivityModel()


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    project_count: int = 10
    volunteer_count: int = 100
    class_mix: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    activity: Mapping[str, ActivityModel] = field(default_factory=dict)
    start: date = date(2013, 1, 1)
    end: date = date(2014, 12, 31)
    recruitment_weights: Sequence[float] | None = None  # per-project first-task share; None = uniform

    def model_for(self, planted_class: str) -> ActivityModel:
        return self.activity.get(planted_class, DEFAULT_ACTIVITY)


def largest_remainder_quota(weights: Sequence[float], total: int) -> list[int]:
    """Split ``total`` into integer counts proportional to ``weights``.

    Deterministic: remainder ties go to the lower index.
    """
    weight_sum = float(sum(weights))
    raw = [w / weight_sum * total for w in weights]
    counts = [math.floor(r) for r in raw]
    leftover = total - sum(counts)
    by_remainder = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in by_remainder[:leftover]:
        counts[i] += 1
    return counts


def _validate(config: SynthConfig, class_counts: Mapping[str, int], day_count: int) -> None:
    if config.volunteer_count < 1:
        raise InfeasibleConfigError("volunteer_count must be >= 1")
    if config.project_count < 1:
        raise InfeasibleConfigError("project_count must be >= 1")
    if day_count < 1:
        raise InfeasibleConfigError("platform start must not be after end")
    unknown = set(config.class_mix) - set(PLANTED_CLASSES)
    if unknown:
        raise InfeasibleConfigError(f"unknown planted classes: {sorted(unknown)}")
    if any(fraction < 0 for fraction in config.class_mix.values()):
        raise InfeasibleConfigError("class-mix fractions must be non-negative")
    if abs(sum(config.class_mix.values()) - 1.0) > 1e-9:
        raise InfeasibleConfigError("class-mix fractions must sum to 1")
    planted = [EXPECTED_LABELS[c] for c, count in class_counts.items() if count > 0]
    if config.project_count < 2 and any(project is not ProjectClass.ONE_PROJECT for _, project in planted):
        raise InfeasibleConfigError("multi-project classes require at least 2 projects")
    if day_count < 2 and any(platform is PlatformClass.REGULAR for platform, _ in planted):
        raise InfeasibleConfigError("regular classes require a window of at least 2 days")
    for planted_class in PLANTED_CLASSES:
        model = config.model_for(planted_class)
        if model.tasks_per_day[0] < 1 or model.tasks_per_day[0] > model.tasks_per_day[1]:
            raise InfeasibleConfigError(f"bad tasks_per_day range for {planted_class}")
        if model.active_days[0] < 1 or model.active_days[0] > model.active_days[1]:
            raise InfeasibleConfigError(f"bad active_days range for {planted_class}")
        if not 0.0 <= model.extra_project_probability <= 1.0:
            raise InfeasibleConfigError(f"bad extra_project_probability for {planted_class}")
    if config.recruitment_weights is not None:
        weights = list(config.recruitment_weights)
        if len(weights) != config.project_count:
            raise InfeasibleConfigError("recruitment_weights length must equal project_count")
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise InfeasibleConfigError("recruitment_weights must be non-negative and not all zero")


class _OtherProjects:
    """Hands out distinct non-first projects, visiting uncovered ones first.

    Keeping every configured project covered matters: a project with zero
    events would silently vanish from the snapshot and bias the planted
    recruitment-inequality comparison.
    """

    def __init__(self, project_count: int, covered: set[int]):
        self.project_count = project_count
        self.uncovered = sorted(set(range(project_count)) - covered)
        self.cursor = 0

    def pick(self, first_idx: int, count: int) -> list[int]:
        chosen: list[int] = []
        still_uncovered: list[int] = []
        for idx in self.uncovered:
            if idx != first_idx and len(chosen) < count:
                chosen.append(idx)
            else:
                still_uncovered.append(idx)
        self.uncovered = still_uncovered
        taken = set(chosen)
        while len(chosen) < count:
            idx = self.cursor % self.project_count
            self.cursor += 1
            if idx != first_idx and idx not in taken:
                chosen.append(idx)
                taken.add(idx)
        return chosen


def _extra_count(rng: random.Random, probability: float, cap: int) -> int:
    extras = 0
    while extras < cap and rng.random() < probability:
        extras += 1
    return extras


def _plan_slots(
    planted_class: str,
    first_idx: int,
    rng: random.Random,
    model: ActivityModel,
    day_count: int,
    project_count: int,
    others: _OtherProjects,
) -> list[tuple[int, int]]:
    """Ordered (project index, day offset) slots; slot 0 is the recruitment event."""
    if planted_class == TRANSIENT_ONE_PROJECT:
        day = rng.randrange(day_count)
        return [(first_idx, day)]

    if planted_class == TRANSIENT_EXPLORER:
        day = rng.randrange(day_count)
        n_others = 1 + _extra_count(rng, model.extra_project_probability, project_count - 2)
        return [(first_idx, day)] + [(o, day) for o in others.pick(first_idx, n_others)]

    span = lambda: min(max(rng.randint(*model.active_days), 2), day_count)

    if planted_class == REGULAR_ONE_PROJECT:
        days = sorted(rng.sample(range(day_count), span()))
        return [(first_idx, d) for d in days]

    if planted_class == REGULAR_EXPLORER:
        days = sorted(rng.sample(range(day_count), span()))
        n_others = 1 + _extra_count(rng, model.extra_project_probability, project_count - 2)
        other_ids = others.pick(first_idx, n_others)
        if rng.random() < 0.5:
            # first project is the regular one; every other project gets one day
            slots = [(first_idx, d) for d in days]
            slots += [(o, rng.choice(days)) for o in other_ids]
        else:
            # nobody is regular: one day per project, first project owns the earliest
            slots = [(first_idx, days[0])]
            slots.append((other_ids[0], days[1]))
            slots += [(o, rng.choice(days[1:])) for o in other_ids[1:]]
        return slots

    # multi-project regular: >= 2 projects, each active on >= 2 distinct days
    pool = sorted(rng.sample(range(day_count), span()))
    n_regular_others = 1 + _extra_count(rng, model.extra_project_probability, project_count - 2)
    other_ids = others.pick(first_idx, n_regular_others)
    first_days = sorted({pool[0], *rng.sample(pool[1:], max(1, min(len(pool) - 1, span() - 1)))})
    slots = [(first_idx, d) for d in first_days]
    for other in other_ids:
        size = min(max(2, rng.randint(*model.active_days)), len(pool))
        for d in sorted(rng.sample(pool, size)):
            slots.append((other, d))
    return slots


def generate(
    config: SynthConfig,
) -> tuple[list[TaskExecutionEvent], dict[str, tuple[PlatformClass, ProjectClass]]]:
    """Generate events plus the planted (platform, project) label per volunteer.

    Raises:
        InfeasibleConfigError: the config cannot satisfy its own classes.
    """
    day_count = (config.end - config.start).days + 1
    mix = [config.class_mix.get(c, 0.0) for c in PLANTED_CLASSES]
    if sum(mix) > 0:
        class_counts = dict(zip(PLANTED_CLASSES, largest_remainder_quota(mix, config.volunteer_count)))
    else:
        class_counts = {c: 0 for c in PLANTED_CLASSES}
    _validate(config, class_counts, day_count)

    rng = random.Random(config.seed)
    project_ids = [f"p{i:04d}" for i in range(config.project_count)]
    weights = (
        list(config.recruitment_weights)
        if config.recruitment_weights is not None
        else [1.0] * config.project_count
    )
    first_assignments: list[int] = []
    for idx, count in enumerate(largest_remainder_quota(weights, config.volunteer_count)):
        first_assignments.extend([idx] * count)
    rng.shuffle(first_assignments)
    others = _OtherProjects(config.project_count, covered=set(first_assignments))

    events: list[TaskExecutionEvent] = []
    labels: dict[str, tuple[PlatformClass, ProjectClass]] = {}
    base = datetime.combine(config.start, time(0, 0), tzinfo=timezone.utc)
    task_counter = 1
    volunteer_index = 0
    for planted_class in PLANTED_CLASSES:
        model = config.model_for(planted_class)
        for _ in range(class_counts[planted_class]):
            volunteer_id = f"v{volunteer_index:06d}"
            first_idx = first_assignments[volunteer_index]
            volunteer_index += 1
            slots = _plan_slots(
                planted_class, first_idx, rng, model, day_count, config.project_count, others
            )
            # expand slots into (project, day, seconds); slot 0 / task 0 is
            # the recruitment event and must be the earliest of the volunteer
            expanded: list[list[int]] = []
            for project_idx, day in slots:
                for _task in range(rng.randint(*model.tasks_per_day)):
                    expanded.append([project_idx, day, rng.randrange(86400)])
            min_day = min(entry[1] for entry in expanded)
            min_seconds = min(entry[2] for entry in expanded if entry[1] == min_day)
            expanded[0][2] = min_seconds  # ties lose to the smaller task id below
            for project_idx, day, seconds in expanded:
                events.append(
                    TaskExecutionEvent(
                        volunteer_id=volunteer_id,
                        task_id=f"t{task_counter:08d}",
                        project_id=project_ids[project_idx],
                        timestamp=base + timedelta(days=day, seconds=seconds),
                    )
                )
                task_counter += 1
            labels[volunteer_id] = EXPECTED_LABELS[planted_class]
    return events, labels


def write_labels_csv(
    labels: Mapping[str, tuple[PlatformClass, ProjectClass]], path: str | Path
) -> None:
    """Write planted labels as CSV, sorted by volunteer id."""
    lines = ["volunteer_id,platform_class,project_class"]
    for volunteer_id in sorted(labels):
        platform_class, project_class = labels[volunteer_id]
        lines.append(f"{volunteer_id},{platform_class.value},{project_class.value}")
    with _replacing(Path(path)) as (temp,):
        temp.write_text("\n".join(lines) + "\n", encoding="utf-8")
