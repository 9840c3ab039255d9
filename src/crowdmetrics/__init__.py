"""Volunteer engagement metrics for multi-project task platforms.

Typical use: load events, build a snapshot, build a report.

    from crowdmetrics import IngestConfig, load_events, build_snapshot
    from crowdmetrics import ReportOptions, build_report, write_report

    result = load_events(IngestConfig(kind="csv-file", location="events.csv"))
    snapshot = build_snapshot(result.events)
    report = build_report(snapshot, ReportOptions(seed=42))
    write_report(report, "out/")
"""

from ._version import __version__
from .events import (
    EmptyDatasetError,
    EventAfterObservationEndError,
    EventTable,
    InvalidTimestampError,
    PlatformSnapshot,
    ProjectProfile,
    RegistrationAfterFirstEventError,
    TaskExecutionEvent,
    VolunteerProfile,
    VolunteerProfiles,
    build_snapshot,
    derive_profiles,
    parse_timestamp,
)
from .ingest import (
    IngestConfig,
    IngestResult,
    MalformedRowError,
    NetworkError,
    SchemaError,
    fetch_api,
    load_events,
    load_file,
    load_registration_dates,
    write_events_csv,
)
from .projects import (
    ProjectBalances,
    Unbounded,
    balance_in_computing,
    balance_in_recruitment,
    compute_project_balances,
    signed_balance,
)
from .report import (
    ActivityGroup,
    MetricsReport,
    ReportOptions,
    build_report,
    render_summary,
    report_to_dict,
    write_report,
)
from .stats import (
    BootstrapCI,
    ClassDistribution,
    Ecdf,
    UndefinedGiniError,
    bootstrap_mean_ci,
    class_distribution,
    contribution_inequality,
    ecdf,
    gini,
    recruitment_inequality,
)
from .synth import InfeasibleConfigError, SynthConfig, generate
from .volunteers import (
    PlatformClass,
    ProjectClass,
    VolunteerMetrics,
    availability_count,
    classify,
    compute_volunteer_metrics,
    engagement_rate,
    exploration_rate,
    relative_activity_duration,
)

__all__ = [
    "__version__",
    "ActivityGroup",
    "BootstrapCI",
    "ClassDistribution",
    "Ecdf",
    "EmptyDatasetError",
    "EventAfterObservationEndError",
    "EventTable",
    "InfeasibleConfigError",
    "IngestConfig",
    "IngestResult",
    "InvalidTimestampError",
    "MalformedRowError",
    "MetricsReport",
    "NetworkError",
    "PlatformClass",
    "PlatformSnapshot",
    "ProjectBalances",
    "ProjectClass",
    "ProjectProfile",
    "RegistrationAfterFirstEventError",
    "ReportOptions",
    "SchemaError",
    "SynthConfig",
    "TaskExecutionEvent",
    "Unbounded",
    "UndefinedGiniError",
    "VolunteerMetrics",
    "VolunteerProfile",
    "VolunteerProfiles",
    "availability_count",
    "balance_in_computing",
    "balance_in_recruitment",
    "bootstrap_mean_ci",
    "build_report",
    "build_snapshot",
    "class_distribution",
    "classify",
    "compute_project_balances",
    "compute_volunteer_metrics",
    "contribution_inequality",
    "derive_profiles",
    "ecdf",
    "engagement_rate",
    "exploration_rate",
    "fetch_api",
    "generate",
    "gini",
    "load_events",
    "load_file",
    "load_registration_dates",
    "parse_timestamp",
    "recruitment_inequality",
    "relative_activity_duration",
    "render_summary",
    "report_to_dict",
    "signed_balance",
    "write_events_csv",
    "write_report",
]
