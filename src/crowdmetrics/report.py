"""Metric report assembly and deterministic artifact writers.

A report is a pure function of the snapshot and the analysis options. Two
runs over the same snapshot with the same options produce byte-identical
artifacts, and nothing about where the events came from (file path, wire
format, API URL) leaks into any output. That makes report bytes a fair way
to compare ingestion routes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from datetime import datetime
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TextIO

import numpy as np

from ._version import __version__
from .events import PlatformSnapshot, derive_profiles
from .ingest import _cell, _replacing, format_timestamp
from .projects import BalanceValue, ProjectBalances, Unbounded, compute_project_balances
from .stats import (
    BootstrapCI,
    ClassDistribution,
    Ecdf,
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
    VolunteerRows,
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
    volunteers: VolunteerRows
    projects: tuple[ProjectBalances, ...]
    distribution: ClassDistribution
    gini_recruitment: float
    gini_computing: float
    ecdf_recruitment: Ecdf | None
    ecdf_computing: Ecdf | None
    activity_groups: tuple[ActivityGroup, ...]
    source_stats: Mapping[str, int] | None = None


def config_fingerprint(snapshot: PlatformSnapshot, options: ReportOptions) -> str:
    """Hash of everything that can change the numbers in a report.

    Deliberately excludes the event source (path, format, URL): the same
    records must fingerprint the same however they arrived.
    """
    payload = asdict(options) | {
        "excluded_projects": sorted(snapshot.excluded_projects),
        "observation_end": format_timestamp(snapshot.observation_end),
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _maybe_ecdf(values: Iterable[BalanceValue]) -> Ecdf | None:
    """``ecdf`` of balances, or None when none is finite (no balance is a NaN or infinite float)."""
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
    ordered_balances = tuple(compute_project_balances(projects).values())
    distribution = class_distribution(metrics.classes())

    # the regulars' durations in volunteer id order, split by projects explored
    regulars = metrics.platform_regulars()
    single = metrics.explored == 1
    samples = (metrics.duration[regulars & single], metrics.duration[regulars & ~single])

    def activity_group(index: int) -> ActivityGroup:
        sample = samples[index]
        ci = None
        if len(sample):
            ci = bootstrap_mean_ci(
                sample,
                level=options.confidence_level,
                resamples=options.bootstrap_resamples,
                seed=options.seed + index,
            )
        return ActivityGroup(name=ACTIVITY_GROUPS[index], volunteer_count=len(sample), ci=ci)

    # The groups' bootstraps draw from separate streams, and numpy releases
    # the GIL while drawing and gathering, so they run side by side.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(ACTIVITY_GROUPS)) as pool:
        groups = tuple(pool.map(activity_group, range(len(ACTIVITY_GROUPS))))

    return MetricsReport(
        observation_end=snapshot.observation_end,
        options=options,
        fingerprint=config_fingerprint(snapshot, options),
        event_count=len(snapshot.events),
        duplicates_removed=snapshot.duplicates_removed,
        excluded_projects=tuple(sorted(snapshot.excluded_projects)),
        volunteers=metrics.values(),
        projects=ordered_balances,
        distribution=distribution,
        # defined: a snapshot's projects each have a task and its volunteers a first
        # project (a hand-built empty snapshot has failed in class_distribution)
        gini_recruitment=recruitment_inequality(projects),
        gini_computing=contribution_inequality(projects),
        ecdf_recruitment=_maybe_ecdf(b.recruitment for b in ordered_balances),
        ecdf_computing=_maybe_ecdf(b.computing for b in ordered_balances),
        activity_groups=groups,
        source_stats=dict(source_stats) if source_stats else None,
    )


def _balance_json(value: BalanceValue) -> float | str:
    if isinstance(value, Unbounded):
        return str(value)
    return value


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
    """Plain JSON-serializable view of a report: the document every artifact shows.

    ``report.json`` is this document with sorted keys. A volunteer row is
    its ``VolunteerMetrics._asdict()``: the class cells hold the enum
    members, ``str`` subclasses whose text, the one ``json`` writes, is their
    value. The writers read ``_document``'s form, whose volunteer rows stay
    columns.
    """
    doc = _document(report)
    doc["volunteers"] = [m._asdict() for m in report.volunteers]
    return doc


def _class_dimensions(dist: ClassDistribution) -> dict:
    """Class dimension -> (its classes in enum order, their counts, their exact percentages)."""
    return {
        "platform": (PlatformClass, dist.platform_counts, dist.platform_percentages()),
        "project": (ProjectClass, dist.project_counts, dist.project_percentages()),
    }


def _document(report: MetricsReport) -> dict:
    """``report_to_dict``'s document with ``report.volunteers`` in place of the volunteer list.

    The tables and plot files are written from this document in its
    insertion order, so the order of each row's keys here is the order of
    its table's columns.
    """
    dist = report.distribution
    classes = {
        dimension: {cls.value: {"count": counts[cls], "percent": float(round(pct[cls], 4))} for cls in members}
        for dimension, (members, counts, pct) in _class_dimensions(dist).items()
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
        "volunteers": report.volunteers,
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


def _write_table(rows: list[dict], handle: TextIO) -> None:
    """CSV of ``rows``' ``_cell``s under a header of their keys, "\n" line ends."""
    for cells in [rows[0], *(row.values() for row in rows)]:
        handle.write(",".join(map(_cell, cells)) + "\n")


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
        handle.write(" ".join("NA" if v is None else _cell(v) for v in row.values()) + "\n")


#: Volunteer rows formatted per write: about 1.5 MB of report.json text at a time.
_ROWS_PER_WRITE = 4096
_FIELDS = VolunteerMetrics._fields
#: Field positions in sorted key order, and one volunteer row of report.json.
_JSON_ORDER = sorted(range(len(_FIELDS)), key=_FIELDS.__getitem__)
_JSON_ROW = "    {\n" + ",\n".join(f"      {json.dumps(_FIELDS[i])}: %s" for i in _JSON_ORDER) + "\n    }"


def _distinct_cells(column: np.ndarray, cell: Callable[[object], str]) -> list[str]:
    """``cell`` of each number in ``column``, called once per distinct value.

    The counts and rates take few distinct values, and about a third of the
    activity durations in a batch are distinct, so most cells are looked up,
    not formatted.
    """
    distinct, inverse = np.unique(column, return_inverse=True)
    return np.array(list(map(cell, distinct.tolist())), dtype=object)[inverse].tolist()


def _volunteer_cells(rows: VolunteerRows, number: Callable, text: Callable) -> Iterator[list[Iterable]]:
    """The rows' cells in field order, ``_ROWS_PER_WRITE`` rows at a time: the
    counts and rates through ``number``, the ids and classes through ``text`` as they are read."""
    for start in range(0, len(rows), _ROWS_PER_WRITE):
        columns = rows.table.columns(slice(start, start + _ROWS_PER_WRITE))
        yield [_distinct_cells(c, number) if isinstance(c, np.ndarray) else map(text, c) for c in columns]


def _write_json(doc: dict, handle: TextIO) -> None:
    """Write ``json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"``.

    ``doc`` is ``_document(report)``. "volunteers" is its last key in sorted
    order, so ``json`` writes the rest of the document, whose closing "\n}"
    the volunteer list then replaces. Its cells are the text ``json``
    writes: a number's ``repr`` (every metric is finite), a string
    ASCII-escaped and quoted.
    """
    rest = {key: value for key, value in doc.items() if key != "volunteers"}
    handle.write(json.dumps(rest, sort_keys=True, indent=2)[: -len("\n}")] + ',\n  "volunteers": [')
    separator = "\n"
    for cells in _volunteer_cells(doc["volunteers"], repr, encode_basestring_ascii):
        rows = zip(*map(cells.__getitem__, _JSON_ORDER))
        handle.write(separator + ",\n".join(map(_JSON_ROW.__mod__, rows)))
        separator = ",\n"
    handle.write("]\n}\n" if separator == "\n" else "\n  ]\n}\n")


def _write_volunteers(doc: dict, handle: TextIO) -> None:
    """``_write_table`` of ``report_to_dict(report)["volunteers"]``, from the columns."""
    handle.write(",".join(_FIELDS) + "\n")
    for cells in _volunteer_cells(doc["volunteers"], _cell, _cell):
        handle.write("\n".join(map(",".join, zip(*cells))) + "\n")


#: Artifact name -> writer of its view of the ``_document`` document,
#: in write order: the JSON report and three tables, then the plot data.
_ARTIFACTS: dict[str, Callable[[dict, TextIO], None]] = {
    "report.json": _write_json,
    "volunteers.csv": _write_volunteers,
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
    ``_document``, so the same report gives the same bytes.
    All are written as one set through ``_replacing``: if a writer raises,
    the previous set stays as it was, and if a rename fails, the artifacts
    renamed before it are this run's and the rest keep their previous
    bytes; no temporary file is left. Once all are in place, artifacts this
    run did not write (the plot data, without ``plot_data``) are removed,
    so a run that returns leaves only its own.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = _document(report)
    names = ARTIFACT_NAMES if plot_data else TABLE_ARTIFACT_NAMES
    with _replacing(*(out / name for name in names)) as temps:
        for name, temp in zip(names, temps):
            with temp.open("w", encoding="utf-8", newline="\n") as handle:
                _ARTIFACTS[name](doc, handle)
    for name in ARTIFACT_NAMES:
        if name not in names:
            (out / name).unlink(missing_ok=True)
    return {name: out / name for name in names}


def render_summary(report: MetricsReport) -> str:
    """Short human-readable run summary for stdout.

    Reads the report, not ``report_to_dict``'s document: it rounds the exact
    class fractions to whole percents, which the document's 4-decimal
    percents could round the other way at .5.
    """
    dist = report.distribution
    lines = [
        f"events analyzed     {report.event_count}"
        + (f" ({report.duplicates_removed} duplicates removed)" if report.duplicates_removed else ""),
        f"volunteers          {dist.total}",
        f"projects            {len(report.projects)}",
        f"gini recruitment    {report.gini_recruitment:.2f}",
        f"gini computing      {report.gini_computing:.2f}",
        "classes",
    ]
    # integer percent style in the human view; exact values live in the tables
    for members, counts, pct in _class_dimensions(dist).values():
        lines.extend(f"  {cls.value:<26} {counts[cls]:>8}  {float(pct[cls]):4.0f}%" for cls in members)
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
