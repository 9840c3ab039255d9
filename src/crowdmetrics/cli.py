"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors (bad flags or flag values),
2 when the data or an external system is at fault (malformed input in
strict mode, schema mismatch, unreachable API, empty dataset).
"""

from __future__ import annotations

import argparse
import sys
from datetime import date
from pathlib import Path

from ._version import __version__
from .events import (
    EmptyDatasetError,
    EventAfterObservationEndError,
    InvalidTimestampError,
    RegistrationAfterFirstEventError,
    build_snapshot,
    parse_timestamp,
)
from .ingest import (
    IngestConfig,
    MalformedRowError,
    NetworkError,
    SchemaError,
    load_events,
    load_registration_dates,
    write_events_csv,
)
from .report import ReportOptions, build_report, render_summary, write_report
from .synth import InfeasibleConfigError, SynthConfig, generate, write_labels_csv
from .volunteers import AVAILABILITY_MODES


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this CLI reserves 2 for data faults."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _timestamp_flag(raw: str):
    try:
        return parse_timestamp(raw)
    except InvalidTimestampError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _date_flag(raw: str) -> date:
    try:
        return date.fromisoformat(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _confidence_level(raw: str) -> float:
    value = float(raw)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("must be in (0, 1)")
    return value


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="PATH", help="read events from a log file")
    source.add_argument("--api-url", metavar="URL", help="read events from a task-run API")
    parser.add_argument(
        "--format",
        choices=("csv", "jsonl"),
        default="csv",
        help="file format for --input (default: csv; ignored with --api-url)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on the first malformed row instead of skipping it",
    )
    parser.add_argument(
        "--page-size", type=_positive_int, default=100, help="API page size (default: 100)"
    )
    parser.add_argument("--cache-dir", metavar="DIR", help="disk cache for fetched API pages")


def _add_analysis_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--exclude-project",
        action="append",
        default=[],
        metavar="ID",
        help="drop this project before analysis (repeatable)",
    )
    parser.add_argument(
        "--observation-end",
        type=_timestamp_flag,
        metavar="TIMESTAMP",
        help="end of the observation window (default: last event)",
    )
    parser.add_argument(
        "--registration-dates",
        metavar="FILE",
        help="volunteer_id,registered_at CSV overriding join instants"
        " (default: a volunteer joins at their first event)",
    )
    parser.add_argument(
        "--availability",
        choices=AVAILABILITY_MODES,
        default="overlap",
        help="which projects count as available to a volunteer (default: overlap)",
    )
    parser.add_argument(
        "--bootstrap-resamples",
        type=_positive_int,
        default=10_000,
        help="bootstrap resamples for activity CIs (default: 10000)",
    )
    parser.add_argument(
        "--confidence-level",
        type=_confidence_level,
        default=0.95,
        help="bootstrap CI level (default: 0.95)",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")


def _config_from_args(args: argparse.Namespace) -> IngestConfig:
    if args.api_url:
        return IngestConfig(
            kind="api",
            location=args.api_url,
            page_size=args.page_size,
            strict=args.strict,
            cache_dir=args.cache_dir,
        )
    kind = "csv-file" if args.format == "csv" else "jsonl-file"
    return IngestConfig(kind=kind, location=args.input, strict=args.strict)


def _build_report(args: argparse.Namespace):
    result = load_events(_config_from_args(args))
    snapshot = build_snapshot(
        result.events, observation_end=args.observation_end, exclusions=args.exclude_project
    )
    registrations = None
    if args.registration_dates:
        registrations = load_registration_dates(args.registration_dates)
    options = ReportOptions(
        availability=args.availability,
        bootstrap_resamples=args.bootstrap_resamples,
        confidence_level=args.confidence_level,
        seed=args.seed,
    )
    stats = {
        "total_records": result.total_records,
        "dropped_anonymous": result.dropped_anonymous,
        "skipped_malformed": result.skipped_malformed,
    }
    return build_report(
        snapshot, options, source_stats=stats, registration_dates=registrations
    )


def cmd_report(args: argparse.Namespace) -> int:
    """Run ``report`` (every artifact) or ``metrics`` (no plot data)."""
    report = _build_report(args)
    paths = write_report(report, args.out, plot_data=args.plot_data)
    sys.stdout.write(render_summary(report))
    sys.stdout.write(f"wrote {len(paths)} artifacts to {args.out}\n")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    result = load_events(_config_from_args(args))
    rows = write_events_csv(result.events, args.out)
    sys.stdout.write(
        f"loaded {result.loaded} of {result.total_records} records"
        f" (dropped {result.dropped_anonymous} anonymous,"
        f" skipped {result.skipped_malformed} malformed)\n"
        f"wrote {rows} rows to {args.out}\n"
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    args.strict = True
    result = load_events(_config_from_args(args))
    sys.stdout.write(
        f"ok: {result.loaded} events"
        f" ({result.dropped_anonymous} anonymous records ignored)\n"
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    weights = None
    if args.skew > 0:
        weights = [(i + 1) ** -args.skew for i in range(args.projects)]
    config = SynthConfig(
        seed=args.seed,
        project_count=args.projects,
        volunteer_count=args.volunteers,
        start=args.start,
        end=args.end,
        recruitment_weights=weights,
    )
    events, labels = generate(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = write_events_csv(events, out_dir / "events.csv")
    write_labels_csv(labels, out_dir / "labels.csv")
    sys.stdout.write(
        f"generated {rows} events for {len(labels)} volunteers"
        f" across {args.projects} projects in {args.out}\n"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crowdmetrics",
        description="Volunteer engagement metrics for multi-project task platforms.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, help_text, plot_data in (
        ("report", "compute metrics and write all artifacts, plot data included", True),
        ("metrics", "compute metrics, write the JSON report and CSV tables", False),
    ):
        command = commands.add_parser(name, help=help_text)
        _add_source_arguments(command)
        _add_analysis_arguments(command)
        command.add_argument("--out", required=True, metavar="DIR", help="artifact directory")
        command.set_defaults(func=cmd_report, plot_data=plot_data)

    ingest = commands.add_parser("ingest", help="normalize a source into canonical CSV")
    _add_source_arguments(ingest)
    ingest.add_argument("--out", required=True, metavar="FILE", help="output CSV path")
    ingest.set_defaults(func=cmd_ingest)

    validate = commands.add_parser("validate", help="strict-parse a source and report counts")
    _add_source_arguments(validate)
    validate.set_defaults(func=cmd_validate)

    synth = commands.add_parser("synth", help="generate a labeled synthetic event log")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--projects", type=_positive_int, default=10)
    synth.add_argument("--volunteers", type=_positive_int, default=100)
    synth.add_argument("--start", type=_date_flag, default=date(2013, 1, 1), metavar="YYYY-MM-DD")
    synth.add_argument("--end", type=_date_flag, default=date(2014, 12, 31), metavar="YYYY-MM-DD")
    synth.add_argument(
        "--skew",
        type=float,
        default=0.0,
        help="recruitment skew exponent; project i gets weight (i+1)^-skew (default: 0, uniform)",
    )
    synth.add_argument("--out", required=True, metavar="DIR", help="output directory")
    synth.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        EmptyDatasetError,
        EventAfterObservationEndError,
        InvalidTimestampError,
        MalformedRowError,
        RegistrationAfterFirstEventError,
        SchemaError,
        NetworkError,
        InfeasibleConfigError,
        OSError,
        UnicodeDecodeError,  # an input file that is not UTF-8
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
