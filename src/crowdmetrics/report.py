"""Metric report assembly and deterministic artifact writers.

A report is a pure function of the snapshot and the analysis options. Two
runs over the same snapshot with the same options produce byte-identical
artifacts, and nothing about where the events came from (file path, wire
format, API URL) leaks into any output. That makes report bytes a fair way
to compare ingestion routes.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from datetime import datetime
from itertools import islice
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Mapping, TextIO

from ._version import __version__
from .events import PlatformSnapshot, derive_profiles
from .ingest import format_timestamp
from .projects import BalanceValue, ProjectBalances, Unbounded, compute_project_balances
from .stats import (
    BootstrapCI,
    ClassDistribution,
    Ecdf,
    UndefinedGiniError,
    bootstrap_mean_ci,
    class_distribution,
    contribution_inequality,
    ecdf,
    recruitment_inequality,
)
from .volunteers import (
    AVAILABILITY_MODES,
    PlatformClass,
    ProjectClass,
    VolunteerMetrics,
    compute_volunteer_metrics,
)

#: Platform regulars, split by whether they ever left their first project.
#: Order is load-bearing: group i draws its bootstrap stream from seed + i.
ACTIVITY_GROUPS = ("single_project_regulars", "multi_project_regulars")

#: Machine-readable report plus the human tables, written by `metrics`.
TABLE_ARTIFACT_NAMES = (
    "report.json",
    "volunteers.csv",
    "projects.csv",
    "platform.csv",
)

#: Plot-data files (x y per line), additionally written by `report`.
PLOT_ARTIFACT_NAMES = (
    "ecdf_recruitment.dat",
    "ecdf_computing.dat",
    "activity_ci.dat",
)

ARTIFACT_NAMES = TABLE_ARTIFACT_NAMES + PLOT_ARTIFACT_NAMES


@dataclass(frozen=True)
class ReportOptions:
    availability: str = "overlap"
    bootstrap_resamples: int = 10_000
    confidence_level: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        if self.availability not in AVAILABILITY_MODES:
            raise ValueError(f"availability must be one of {AVAILABILITY_MODES}")
        if self.bootstrap_resamples < 1:
            raise ValueError("bootstrap_resamples must be >= 1")
        if not 0.0 < self.confidence_level < 1.0:
            raise ValueError("confidence_level must be in (0, 1)")


@dataclass(frozen=True)
class ActivityGroup:
    """Relative activity duration of one regular-volunteer group."""

    name: str
    volunteer_count: int
    ci: BootstrapCI | None  # None when the group is empty


@dataclass(frozen=True)
class MetricsReport:
    observation_end: datetime
    options: ReportOptions
    fingerprint: str
    event_count: int
    duplicates_removed: int
    excluded_projects: tuple[str, ...]
    volunteers: tuple[VolunteerMetrics, ...]
    projects: tuple[ProjectBalances, ...]
    distribution: ClassDistribution
    gini_recruitment: float | None
    gini_computing: float | None
    ecdf_recruitment: Ecdf | None
    ecdf_computing: Ecdf | None
    activity_groups: tuple[ActivityGroup, ...]
    source_stats: Mapping[str, int] | None = None


def config_fingerprint(snapshot: PlatformSnapshot, options: ReportOptions) -> str:
    """Hash of everything that can change the numbers in a report.

    Deliberately excludes the event source (path, format, URL): the same
    records must fingerprint the same however they arrived.
    """
    payload = {
        "availability": options.availability,
        "bootstrap_resamples": options.bootstrap_resamples,
        "confidence_level": options.confidence_level,
        "excluded_projects": sorted(snapshot.excluded_projects),
        "observation_end": format_timestamp(snapshot.observation_end),
        "seed": options.seed,
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _maybe_ecdf(values: Iterable[BalanceValue]) -> Ecdf | None:
    try:
        return ecdf(values)
    except ValueError:
        return None


def build_report(
    snapshot: PlatformSnapshot,
    options: ReportOptions = ReportOptions(),
    source_stats: Mapping[str, int] | None = None,
    registration_dates: Mapping[str, datetime] | None = None,
) -> MetricsReport:
    """Compute the full metric suite for a snapshot.

    ``registration_dates`` optionally overrides join instants (see
    ``derive_profiles``); everything else is derived from the snapshot.
    """
    volunteers, projects = derive_profiles(snapshot, registration_dates)
    metrics = compute_volunteer_metrics(
        volunteers, projects, snapshot.observation_end, options.availability
    )
    balances = compute_project_balances(projects)

    try:
        gini_recruitment = recruitment_inequality(projects)
    except UndefinedGiniError:
        gini_recruitment = None
    try:
        gini_computing = contribution_inequality(projects)
    except UndefinedGiniError:
        gini_computing = None

    ordered_metrics = tuple(metrics[v] for v in sorted(metrics))
    ordered_balances = tuple(balances[p] for p in sorted(balances))
    distribution = class_distribution(
        (m.platform_class, m.project_class) for m in ordered_metrics
    )

    group_samples: dict[str, list[float]] = {name: [] for name in ACTIVITY_GROUPS}
    for m in ordered_metrics:
        if m.platform_class is not PlatformClass.REGULAR:
            continue
        name = ACTIVITY_GROUPS[0] if m.explored_projects == 1 else ACTIVITY_GROUPS[1]
        group_samples[name].append(m.relative_activity_duration)
    # The groups' bootstraps draw from separate streams, and numpy releases
    # the GIL while drawing and gathering, so they run side by side.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(ACTIVITY_GROUPS)) as pool:
        futures = {
            name: pool.submit(
                bootstrap_mean_ci,
                sample,
                level=options.confidence_level,
                resamples=options.bootstrap_resamples,
                seed=options.seed + index,
            )
            for index, (name, sample) in enumerate(group_samples.items())
            if sample
        }
    groups = [
        ActivityGroup(
            name=name,
            volunteer_count=len(sample),
            ci=futures[name].result() if name in futures else None,
        )
        for name, sample in group_samples.items()
    ]

    return MetricsReport(
        observation_end=snapshot.observation_end,
        options=options,
        fingerprint=config_fingerprint(snapshot, options),
        event_count=len(snapshot.events),
        duplicates_removed=snapshot.duplicates_removed,
        excluded_projects=tuple(sorted(snapshot.excluded_projects)),
        volunteers=ordered_metrics,
        projects=ordered_balances,
        distribution=distribution,
        gini_recruitment=gini_recruitment,
        gini_computing=gini_computing,
        ecdf_recruitment=_maybe_ecdf(b.recruitment for b in ordered_balances),
        ecdf_computing=_maybe_ecdf(b.computing for b in ordered_balances),
        activity_groups=tuple(groups),
        source_stats=dict(source_stats) if source_stats else None,
    )


def _balance_cell(value: BalanceValue) -> str:
    if isinstance(value, Unbounded):
        return str(value)
    return f"{value:.6f}"


def _balance_json(value: BalanceValue) -> float | str:
    if isinstance(value, Unbounded):
        return str(value)
    return value


def _percent(fraction) -> float:
    return float(round(fraction, 4))


def _ecdf_doc(curve: Ecdf | None) -> dict | None:
    if curve is None:
        return None
    return {
        "points": [[v, f] for v, f in curve.points()],
        "finite_count": curve.finite_count,
        "unbounded_negative": curve.unbounded_negative,
        "unbounded_positive": curve.unbounded_positive,
    }


def report_to_dict(report: MetricsReport) -> dict:
    """Plain JSON-serializable view of a report, stable key order."""
    dist = report.distribution
    platform_pct = dist.platform_percentages()
    project_pct = dist.project_percentages()
    classes = {
        "platform": {
            cls.value: {
                "count": dist.platform_counts[cls],
                "percent": _percent(platform_pct[cls]),
            }
            for cls in PlatformClass
        },
        "project": {
            cls.value: {
                "count": dist.project_counts[cls],
                "percent": _percent(project_pct[cls]),
            }
            for cls in ProjectClass
        },
    }
    activity = []
    for group in report.activity_groups:
        row: dict = {"group": group.name, "volunteers": group.volunteer_count}
        if group.ci is None:
            row.update({"mean": None, "ci_lower": None, "ci_upper": None})
        else:
            row.update(
                {
                    "mean": group.ci.estimate,
                    "ci_lower": group.ci.lower,
                    "ci_upper": group.ci.upper,
                }
            )
        activity.append(row)
    events_block: dict = {
        "analyzed": report.event_count,
        "duplicates_removed": report.duplicates_removed,
    }
    if report.source_stats:
        events_block.update({k: report.source_stats[k] for k in sorted(report.source_stats)})
    return {
        "metadata": {
            "generator": "crowdmetrics",
            "version": __version__,
            "fingerprint": report.fingerprint,
            "observation_end": format_timestamp(report.observation_end),
            "availability": report.options.availability,
            "bootstrap": {
                "resamples": report.options.bootstrap_resamples,
                "confidence_level": report.options.confidence_level,
                "seed": report.options.seed,
            },
            "excluded_projects": list(report.excluded_projects),
            "events": events_block,
        },
        "platform": {
            "volunteers": dist.total,
            "projects": len(report.projects),
            "gini_recruitment": report.gini_recruitment,
            "gini_computing": report.gini_computing,
            "classes": classes,
            "activity": activity,
            "ecdf": {
                "recruitment": _ecdf_doc(report.ecdf_recruitment),
                "computing": _ecdf_doc(report.ecdf_computing),
            },
        },
        "volunteers": [
            {
                "volunteer_id": m.volunteer_id,
                "available_projects": m.available_projects,
                "explored_projects": m.explored_projects,
                "regular_projects": m.regular_projects,
                "exploration_rate": m.exploration_rate,
                "engagement_rate": m.engagement_rate,
                "relative_activity_duration": m.relative_activity_duration,
                "platform_class": m.platform_class.value,
                "project_class": m.project_class.value,
            }
            for m in report.volunteers
        ],
        "projects": [
            {
                "project_id": b.project_id,
                "inherited_count": b.inherited_count,
                "recruited_count": b.recruited_count,
                "mean_tasks_inherited": b.mean_tasks_inherited,
                "mean_tasks_recruited": b.mean_tasks_recruited,
                "balance_recruitment": _balance_json(b.recruitment),
                "balance_computing": _balance_json(b.computing),
            }
            for b in report.projects
        ],
    }


def _csv_text(header: Iterable[str], rows: Iterable[Iterable[object]]) -> str:
    """CSV text with "\n" line ends; fields holding a comma, quote, "\r" or "\n" are quoted.

    The writer gets "\r\n" as its line terminator because it quotes only
    the line-terminator characters it was given; it writes one whole row per
    call, and each row's terminator is swapped for "\n".
    """
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join([line[:-2] + "\n" for line in lines])


def _volunteers_csv(report: MetricsReport) -> str:
    header = (
        "volunteer_id,available_projects,explored_projects,regular_projects,"
        "exploration_rate,engagement_rate,relative_activity_duration,"
        "platform_class,project_class"
    ).split(",")
    rows = (
        (
            m.volunteer_id,
            m.available_projects,
            m.explored_projects,
            m.regular_projects,
            f"{m.exploration_rate:.6f}",
            f"{m.engagement_rate:.6f}",
            f"{m.relative_activity_duration:.6f}",
            m.platform_class.value,
            m.project_class.value,
        )
        for m in report.volunteers
    )
    return _csv_text(header, rows)


def _projects_csv(report: MetricsReport) -> str:
    header = (
        "project_id,inherited_count,recruited_count,mean_tasks_inherited,"
        "mean_tasks_recruited,balance_recruitment,balance_computing"
    ).split(",")
    rows = (
        (
            b.project_id,
            b.inherited_count,
            b.recruited_count,
            "" if b.mean_tasks_inherited is None else f"{b.mean_tasks_inherited:.6f}",
            "" if b.mean_tasks_recruited is None else f"{b.mean_tasks_recruited:.6f}",
            _balance_cell(b.recruitment),
            _balance_cell(b.computing),
        )
        for b in report.projects
    )
    return _csv_text(header, rows)


def _platform_csv(report: MetricsReport) -> str:
    dist = report.distribution
    platform_pct = dist.platform_percentages()
    project_pct = dist.project_percentages()
    rows: list[tuple[str, object]] = [
        ("volunteers", dist.total),
        ("projects", len(report.projects)),
        ("events_analyzed", report.event_count),
        ("duplicates_removed", report.duplicates_removed),
        ("gini_recruitment", "" if report.gini_recruitment is None else f"{report.gini_recruitment:.6f}"),
        ("gini_computing", "" if report.gini_computing is None else f"{report.gini_computing:.6f}"),
    ]
    for cls in PlatformClass:
        rows.append((f"{cls.value}_count", dist.platform_counts[cls]))
        rows.append((f"{cls.value}_percent", f"{_percent(platform_pct[cls]):.4f}"))
    for cls in ProjectClass:
        rows.append((f"{cls.value}_count", dist.project_counts[cls]))
        rows.append((f"{cls.value}_percent", f"{_percent(project_pct[cls]):.4f}"))
    lines = ["metric,value"] + [f"{name},{value}" for name, value in rows]
    return "\n".join(lines) + "\n"


def _ecdf_dat(curve: Ecdf | None, label: str) -> str:
    lines = [f"# {label} cumulative_fraction"]
    if curve is None:
        lines.append("# no finite values")
        return "\n".join(lines) + "\n"
    lines.append(
        f"# finite={curve.finite_count} unbounded_negative={curve.unbounded_negative}"
        f" unbounded_positive={curve.unbounded_positive}"
    )
    for value, fraction in curve.points():
        lines.append(f"{value:.6f} {fraction:.6f}")
    return "\n".join(lines) + "\n"


def _activity_dat(report: MetricsReport) -> str:
    lines = ["# group volunteers mean ci_lower ci_upper"]
    for group in report.activity_groups:
        if group.ci is None:
            lines.append(f"{group.name} 0 NA NA NA")
        else:
            lines.append(
                f"{group.name} {group.volunteer_count} {group.ci.estimate:.6f}"
                f" {group.ci.lower:.6f} {group.ci.upper:.6f}"
            )
    return "\n".join(lines) + "\n"


#: Artifact name -> its text; report.json is streamed by _write_json instead.
_ARTIFACT_TEXT = {
    "volunteers.csv": _volunteers_csv,
    "projects.csv": _projects_csv,
    "platform.csv": _platform_csv,
    "ecdf_recruitment.dat": lambda report: _ecdf_dat(report.ecdf_recruitment, "balance_in_recruitment"),
    "ecdf_computing.dat": lambda report: _ecdf_dat(report.ecdf_computing, "balance_in_computing"),
    "activity_ci.dat": _activity_dat,
}

#: Encoder chunks joined per write: a few hundred KB of text at a time.
_JSON_CHUNKS_PER_WRITE = 4096


def _write_json(doc: dict, handle: TextIO) -> None:
    """Write ``json.dumps(doc, sort_keys=True, indent=2) + "\n"`` without building it."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)
    while batch := list(islice(chunks, _JSON_CHUNKS_PER_WRITE)):
        handle.write("".join(batch))
    handle.write("\n")


def write_report(
    report: MetricsReport, out_dir: str | Path, plot_data: bool = True
) -> dict[str, Path]:
    """Write report artifacts into ``out_dir``; returns name -> path.

    Always writes the JSON report and the three CSV tables; ``plot_data``
    adds the ECDF and CI data files. Output is deterministic: same report,
    same bytes. Each artifact is built only as it is written, and
    ``report.json`` is streamed, so no two artifacts are held at once.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = ARTIFACT_NAMES if plot_data else TABLE_ARTIFACT_NAMES
    paths: dict[str, Path] = {}
    for name in names:
        path = out / name
        with path.open("w", encoding="utf-8", newline="\n") as handle:
            if name == "report.json":
                _write_json(report_to_dict(report), handle)
            else:
                handle.write(_ARTIFACT_TEXT[name](report))
        paths[name] = path
    return paths


def render_summary(report: MetricsReport) -> str:
    """Short human-readable run summary for stdout."""
    dist = report.distribution
    platform_pct = dist.platform_percentages()
    project_pct = dist.project_percentages()
    gini_r = "undefined" if report.gini_recruitment is None else f"{report.gini_recruitment:.2f}"
    gini_c = "undefined" if report.gini_computing is None else f"{report.gini_computing:.2f}"
    lines = [
        f"events analyzed     {report.event_count}"
        + (f" ({report.duplicates_removed} duplicates removed)" if report.duplicates_removed else ""),
        f"volunteers          {dist.total}",
        f"projects            {len(report.projects)}",
        f"gini recruitment    {gini_r}",
        f"gini computing      {gini_c}",
        "classes",
    ]
    # integer percent style in the human view; exact values live in the tables
    for cls in PlatformClass:
        lines.append(
            f"  {cls.value:<26} {dist.platform_counts[cls]:>8}"
            f"  {float(platform_pct[cls]):4.0f}%"
        )
    for cls in ProjectClass:
        lines.append(
            f"  {cls.value:<26} {dist.project_counts[cls]:>8}"
            f"  {float(project_pct[cls]):4.0f}%"
        )
    lines.append("relative activity duration (mean, CI)")
    for group in report.activity_groups:
        if group.ci is None:
            lines.append(f"  {group.name:<26} empty group")
        else:
            lines.append(
                f"  {group.name:<26} {group.ci.estimate:.3f}"
                f" [{group.ci.lower:.3f}, {group.ci.upper:.3f}]"
                f" n={group.volunteer_count}"
            )
    return "\n".join(lines) + "\n"
