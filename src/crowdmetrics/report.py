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
import os
from dataclasses import dataclass
from datetime import datetime
from itertools import islice
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping, TextIO

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

    ordered_metrics = tuple(metrics.values())
    ordered_balances = tuple(balances.values())
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
    """Plain JSON-serializable view of a report: the one source of every artifact.

    ``report.json`` sorts its keys; the tables and plot files are written
    from this document in its insertion order, so the order of each row's
    keys here is the order of its table's columns. A volunteer row is its
    ``VolunteerMetrics._asdict()``: the class cells hold the enum members,
    ``str`` subclasses whose text, the one ``json`` and ``csv`` write, is their value.
    """
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
    activity = [
        {
            "group": group.name,
            "volunteers": group.volunteer_count,
            "mean": None if group.ci is None else group.ci.estimate,
            "ci_lower": None if group.ci is None else group.ci.lower,
            "ci_upper": None if group.ci is None else group.ci.upper,
        }
        for group in report.activity_groups
    ]
    events_block: dict = {
        "analyzed": report.event_count,
        "duplicates_removed": report.duplicates_removed,
    }
    if report.source_stats:
        events_block.update(report.source_stats)
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
        "volunteers": [m._asdict() for m in report.volunteers],
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


def _cell(value: object) -> object:
    """A table cell: a float gets 6 decimals, None is empty, anything else is as it is."""
    if isinstance(value, float):
        return f"{value:.6f}"
    return "" if value is None else value


def _write_table(rows: list[dict], handle: TextIO) -> None:
    """CSV of ``rows`` under a header of their keys, with "\n" line ends, one write per row.

    Fields holding a comma, quote, "\r" or "\n" are quoted. The writer gets
    "\r\n" as its line terminator because it quotes only the line-terminator
    characters it was given; it writes one whole row per call, and each
    row's terminator is swapped for "\n".
    """
    sink = SimpleNamespace(write=lambda line: handle.write(line[:-2] + "\n"))
    writer = csv.writer(sink, lineterminator="\r\n")
    writer.writerow(rows[0])
    writer.writerows(map(_cell, row.values()) for row in rows)


def _write_platform(doc: dict, handle: TextIO) -> None:
    platform, events = doc["platform"], doc["metadata"]["events"]
    metrics = {
        "volunteers": platform["volunteers"],
        "projects": platform["projects"],
        "events_analyzed": events["analyzed"],
        "duplicates_removed": events["duplicates_removed"],
        "gini_recruitment": platform["gini_recruitment"],
        "gini_computing": platform["gini_computing"],
    }
    for classes in platform["classes"].values():
        for name, entry in classes.items():
            metrics[f"{name}_count"] = entry["count"]
            metrics[f"{name}_percent"] = f"{entry['percent']:.4f}"
    _write_table([{"metric": name, "value": value} for name, value in metrics.items()], handle)


def _write_ecdf(doc: dict, balance: str, handle: TextIO) -> None:
    handle.write(f"# balance_in_{balance} cumulative_fraction\n")
    curve = doc["platform"]["ecdf"][balance]
    if curve is None:
        handle.write("# no finite values\n")
        return
    handle.write(
        f"# finite={curve['finite_count']} unbounded_negative={curve['unbounded_negative']}"
        f" unbounded_positive={curve['unbounded_positive']}\n"
    )
    handle.writelines(f"{value:.6f} {fraction:.6f}\n" for value, fraction in curve["points"])


def _write_activity(doc: dict, handle: TextIO) -> None:
    rows = doc["platform"]["activity"]
    handle.write(f"# {' '.join(rows[0])}\n")
    for row in rows:
        handle.write(" ".join("NA" if v is None else str(_cell(v)) for v in row.values()) + "\n")


#: Encoder chunks joined per write: a few hundred KB of text at a time.
_JSON_CHUNKS_PER_WRITE = 4096


def _write_json(doc: dict, handle: TextIO) -> None:
    """Write ``json.dumps(doc, sort_keys=True, indent=2) + "\n"`` without building it."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)
    while batch := list(islice(chunks, _JSON_CHUNKS_PER_WRITE)):
        handle.write("".join(batch))
    handle.write("\n")


#: Artifact name -> writer of its view of the ``report_to_dict`` document,
#: in write order: the JSON report and three tables, then the plot data.
_ARTIFACTS: dict[str, Callable[[dict, TextIO], None]] = {
    "report.json": _write_json,
    "volunteers.csv": lambda doc, handle: _write_table(doc["volunteers"], handle),
    "projects.csv": lambda doc, handle: _write_table(doc["projects"], handle),
    "platform.csv": _write_platform,
    "ecdf_recruitment.dat": lambda doc, handle: _write_ecdf(doc, "recruitment", handle),
    "ecdf_computing.dat": lambda doc, handle: _write_ecdf(doc, "computing", handle),
    "activity_ci.dat": _write_activity,
}

ARTIFACT_NAMES = tuple(_ARTIFACTS)
#: Machine-readable report plus the human tables, written by `metrics`.
TABLE_ARTIFACT_NAMES = ARTIFACT_NAMES[:4]
#: Plot-data files (x y per line), additionally written by `report`.
PLOT_ARTIFACT_NAMES = ARTIFACT_NAMES[4:]


def write_report(
    report: MetricsReport, out_dir: str | Path, plot_data: bool = True
) -> dict[str, Path]:
    """Write report artifacts into ``out_dir``; returns name -> path.

    Always writes the JSON report and the three CSV tables; ``plot_data``
    adds the ECDF and CI data files. Every artifact is a view of one
    ``report_to_dict`` document, so the same report gives the same bytes.
    Each is streamed to a temporary file in ``out_dir``, and all are renamed
    into place only once every one is written; if a writer raises, the
    temporary files are removed and the previous set stays as it was. If a
    rename fails, the artifacts renamed before it are this run's and the
    rest keep their previous bytes; no temporary file is left. Once all are
    in place, artifacts this run did not write (the plot data, without
    ``plot_data``) are removed, so a run that returns leaves only its own.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = report_to_dict(report)
    names = ARTIFACT_NAMES if plot_data else TABLE_ARTIFACT_NAMES
    temps = {name: out / f".{name}.{os.getpid()}.tmp" for name in names}
    try:
        for name, temp in temps.items():
            with temp.open("w", encoding="utf-8", newline="\n") as handle:
                _ARTIFACTS[name](doc, handle)
        for name, temp in temps.items():
            os.replace(temp, out / name)
    except BaseException:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        raise
    for name in ARTIFACT_NAMES:
        if name not in temps:
            (out / name).unlink(missing_ok=True)
    return {name: out / name for name in names}


def render_summary(report: MetricsReport) -> str:
    """Short human-readable run summary for stdout.

    Reads the report, not ``report_to_dict``'s document: it rounds the exact
    class fractions to whole percents, which the document's 4-decimal
    percents could round the other way at .5.
    """
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
