"""Event-log ingestion from CSV files, JSON-lines files, and task-run APIs.

All three sources load into an ``EventTable``, and the same records give
equal tables, so a platform export and a live API crawl of them produce
identical snapshots. Field names are configurable; the defaults follow the
PyBossa task-run schema (user_id/task_id/project_id/finish_time), and the
loader falls back to the canonical names (volunteer_id/.../timestamp) when a
mapped column is absent, so files written by this package load with a
default config.

Records without a volunteer identifier are anonymous contributions: the
metrics need a stable identity to link events, so those records are dropped
and tallied rather than guessed at. Malformed records raise in strict mode
and are skipped-and-tallied in lenient mode (the default, because real
exports are messy).
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from .events import (
    EventTable,
    InvalidTimestampError,
    TaskExecutionEvent,
    parse_canonical_timestamps,
    parse_timestamp,
    to_micros,
)

logger = logging.getLogger(__name__)

CANONICAL_FIELDS = ("volunteer_id", "task_id", "project_id", "timestamp")

#: Default source field names, matching PyBossa task-run exports.
DEFAULT_FIELD_MAP: dict[str, str] = {
    "volunteer_id": "user_id",
    "task_id": "task_id",
    "project_id": "project_id",
    "timestamp": "finish_time",
}

CSV_HEADER = list(CANONICAL_FIELDS)

MAX_API_ATTEMPTS = 5
BACKOFF_BASE_SECONDS = 0.5


class MalformedRowError(ValueError):
    """A row/line could not be turned into an event (strict mode only)."""

    def __init__(self, source: str, line_number: int, reason: str):
        super().__init__(f"{source}:{line_number}: {reason}")
        self.source = source
        self.line_number = line_number
        self.reason = reason


class SchemaError(ValueError):
    """The source does not expose the mapped (or canonical) fields."""


class NetworkError(RuntimeError):
    """The API could not be reached after all retry attempts."""


@dataclass(frozen=True)
class IngestConfig:
    """Where and how to read events.

    kind:
        "csv-file", "jsonl-file", or "api".
    location:
        file path for file kinds, base URL for the API kind.

    Which projects to leave out is not an ingest decision: the loaders keep
    every project, and ``build_snapshot(exclusions=...)`` drops them.
    """

    kind: str
    location: str
    field_map: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_FIELD_MAP))
    page_size: int = 100
    strict: bool = False
    cache_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("csv-file", "jsonl-file", "api"):
            raise ValueError(f"unknown source kind: {self.kind!r}")
        if self.page_size < 1:
            raise ValueError("page size must be >= 1")
        missing = [f for f in CANONICAL_FIELDS if f not in self.field_map]
        if missing:
            raise ValueError(f"field map does not cover: {', '.join(missing)}")


@dataclass
class IngestResult:
    """Loaded events, in source order, plus the tallies lenient mode accounts for.

    Invariant: loaded + dropped_anonymous + skipped_malformed == total_records.
    """

    events: EventTable
    total_records: int = 0
    dropped_anonymous: int = 0
    skipped_malformed: int = 0

    @property
    def loaded(self) -> int:
        return len(self.events)


class _Anonymous(Exception):
    """Internal marker: record has no volunteer identity."""


def _event_from_mapping(obj: Mapping[str, Any], field_map: Mapping[str, str]) -> TaskExecutionEvent:
    """Normalize one JSON-ish record; mapped field names win over canonical."""

    def pick(canonical: str) -> Any:
        value = obj.get(field_map[canonical])
        if value is None:
            value = obj.get(canonical)
        return value

    volunteer = pick("volunteer_id")
    if volunteer is None or str(volunteer).strip() == "":
        raise _Anonymous()
    task = pick("task_id")
    project = pick("project_id")
    raw_timestamp = pick("timestamp")
    if task is None or str(task).strip() == "":
        raise ValueError("missing task_id")
    if project is None or str(project).strip() == "":
        raise ValueError("missing project_id")
    if not isinstance(raw_timestamp, str):
        raise ValueError(f"missing or non-string timestamp: {raw_timestamp!r}")
    return TaskExecutionEvent(
        volunteer_id=sys.intern(str(volunteer).strip()),
        task_id=str(task).strip(),
        project_id=sys.intern(str(project).strip()),
        timestamp=parse_timestamp(raw_timestamp),
    )


def load_file(config: IngestConfig) -> IngestResult:
    """Load events from a CSV or JSONL file per the config.

    Raises:
        FileNotFoundError: the path does not exist.
        SchemaError: a CSV header exposes none of the expected columns.
        MalformedRowError: a bad record, when ``config.strict`` is set.
    """
    if config.kind == "csv-file":
        return _load_csv(config)
    if config.kind == "jsonl-file":
        return _load_jsonl(config)
    raise ValueError(f"load_file cannot handle source kind {config.kind!r}")


def _resolve_csv_columns(header: list[str], field_map: Mapping[str, str], source: str) -> dict[str, int]:
    positions = {name.strip(): i for i, name in enumerate(header)}
    columns: dict[str, int] = {}
    for canonical in CANONICAL_FIELDS:
        mapped = field_map[canonical]
        if mapped in positions:
            columns[canonical] = positions[mapped]
        elif canonical in positions:
            columns[canonical] = positions[canonical]
        else:
            raise SchemaError(
                f"{source}: no column for {canonical!r} (looked for {mapped!r} and {canonical!r})"
            )
    return columns


def _load_csv(config: IngestConfig) -> IngestResult:
    """Read a CSV export into an ``EventTable``.

    The row loop only checks fields and codes ids; timestamps are parsed
    after it, canonical ``Z`` values in one vectorised pass and every other
    value by ``parse_timestamp``, so tallies and strict-mode errors match a
    row-by-row parse.
    """
    from array import array

    path = Path(config.location)
    source = str(path)
    volunteer_codes: dict[str, int] = {}
    task_codes: dict[str, int] = {}
    project_codes: dict[str, int] = {}
    volunteers, tasks, projects = array("i"), array("i"), array("i")
    line_numbers = array("q")  # of each kept row, in strict mode only
    stamps: list[str] = []
    # strict mode: a row error found in the loop is raised only after the
    # timestamps of the rows before it have been checked
    row_error: MalformedRowError | None = None
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected a header row") from None
        columns = _resolve_csv_columns(header, config.field_map, source)
        v_col = columns["volunteer_id"]
        t_col = columns["task_id"]
        p_col = columns["project_id"]
        ts_col = columns["timestamp"]
        width = max(columns.values()) + 1
        strict = config.strict
        add_volunteer, add_task, add_project = volunteers.append, tasks.append, projects.append
        add_stamp, add_line_number = stamps.append, line_numbers.append
        total = dropped = skipped = 0
        for row in reader:
            if not row:
                continue  # blank line, not a record
            total += 1
            if len(row) < width:
                skipped += 1
                if strict:
                    row_error = MalformedRowError(source, reader.line_num, f"expected >= {width} columns, got {len(row)}")
                    break
                continue
            volunteer = row[v_col].strip()
            if not volunteer:
                dropped += 1
                continue
            task = row[t_col].strip()
            project = row[p_col].strip()
            if not task or not project:
                skipped += 1
                if strict:
                    row_error = MalformedRowError(source, reader.line_num, "missing task_id or project_id")
                    break
                continue
            add_volunteer(volunteer_codes.setdefault(volunteer, len(volunteer_codes)))
            add_task(task_codes.setdefault(task, len(task_codes)))
            add_project(project_codes.setdefault(project, len(project_codes)))
            add_stamp(row[ts_col])
            if strict:
                add_line_number(reader.line_num)

    micros, parsed = parse_canonical_timestamps(stamps)
    for index in np.flatnonzero(~parsed).tolist():
        try:
            micros[index] = to_micros(parse_timestamp(stamps[index]))
        except InvalidTimestampError as exc:
            skipped += 1
            if strict:
                raise MalformedRowError(source, line_numbers[index], str(exc)) from exc
        else:
            parsed[index] = True
    if row_error is not None:
        raise row_error
    del stamps  # free the raw strings before the ids are re-coded
    codes = [np.frombuffer(column, dtype=np.int32)[parsed] for column in (volunteers, tasks, projects)]
    events = EventTable.from_codes(volunteer_codes, task_codes, project_codes, *codes, micros[parsed])
    return IngestResult(
        events=events, total_records=total, dropped_anonymous=dropped, skipped_malformed=skipped
    )


def _load_records(
    records: Iterable[tuple[str, int, Any]],
    config: IngestConfig,
    decode: Callable[[Any], Any] | None = None,
) -> IngestResult:
    """Normalize ``(source, position, record)`` triples into an ``EventTable``.

    The record loop of the JSON-lines and API loaders. ``decode`` turns a
    raw record into its JSON value first; a record that fails to decode is
    malformed. ``position`` locates a record in strict-mode errors.
    """
    events: list[TaskExecutionEvent] = []
    total = dropped = skipped = 0
    for source, position, record in records:
        total += 1
        try:
            obj = decode(record) if decode else record
            if not isinstance(obj, dict):
                raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
            events.append(_event_from_mapping(obj, config.field_map))
        except _Anonymous:
            dropped += 1
        except ValueError as exc:  # InvalidTimestampError and JSONDecodeError included
            skipped += 1
            if config.strict:
                raise MalformedRowError(source, position, str(exc)) from exc
    return IngestResult(
        events=EventTable.from_events(events),
        total_records=total,
        dropped_anonymous=dropped,
        skipped_malformed=skipped,
    )


def _load_jsonl(config: IngestConfig) -> IngestResult:
    path = Path(config.location)
    source = str(path)
    with path.open(encoding="utf-8") as handle:
        lines = enumerate(handle, start=1)
        records = ((source, number, line) for number, line in lines if line.strip())
        return _load_records(records, config, decode=json.loads)


def _cache_path(cache_dir: Path, url: str) -> Path:
    digest = hashlib.sha256(url.encode("utf-8")).hexdigest()[:32]
    return cache_dir / f"{digest}.json"


def _write_cache(path: Path, payload: Any) -> None:
    """Write a page through a temp file and a rename, so a reader never sees part of it.

    Not fsynced: a page that a power loss leaves empty or cut short no
    longer decodes, and ``_get_page`` then fetches it again.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _get_page(
    url: str,
    session: Any,
    sleep: Callable[[float], None],
    cache_dir: Path | None,
) -> Any:
    if cache_dir is not None:
        cached = _cache_path(cache_dir, url)
        try:
            return json.loads(cached.read_text(encoding="utf-8"))
        except FileNotFoundError:
            pass
        except ValueError as exc:  # undecodable, e.g. cut short by an interrupted run
            logger.warning(
                "ignoring unreadable cache file %s for %s (%s); fetching again", cached, url, exc
            )
    import requests  # here, not at module level: file sources never pay its import time

    last_error: Exception | None = None
    for attempt in range(MAX_API_ATTEMPTS):
        if attempt:
            delay = BACKOFF_BASE_SECONDS * 2 ** (attempt - 1)
            logger.warning("retrying %s (attempt %d/%d) after %.1fs", url, attempt + 1, MAX_API_ATTEMPTS, delay)
            sleep(delay)
        try:
            response = session.get(url, timeout=30)
            status = getattr(response, "status_code", 200)
            if status >= 500:
                last_error = NetworkError(f"server error {status} from {url}")
                continue
            if status >= 400:
                raise NetworkError(f"client error {status} from {url}")
            payload = response.json()
        except requests.RequestException as exc:
            last_error = exc
            continue
        if cache_dir is not None:
            _write_cache(_cache_path(cache_dir, url), payload)
        return payload
    raise NetworkError(f"giving up on {url} after {MAX_API_ATTEMPTS} attempts") from last_error


def fetch_api(
    config: IngestConfig,
    session: Any | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> IngestResult:
    """Fetch all task-run records from a paged API.

    Pages ``GET <base>/api/taskrun?limit=L&offset=O`` until a short page.
    Transient failures are retried with exponential backoff, at most
    MAX_API_ATTEMPTS attempts per page. With a ``cache_dir`` configured every
    page response is written to disk and reused on later runs, so an analysis
    stays reproducible after the platform goes away.

    Raises:
        NetworkError: a page kept failing.
        SchemaError: a page is not a JSON array of records.
        MalformedRowError: a bad record, when ``config.strict`` is set.
    """
    if config.kind != "api":
        raise ValueError(f"fetch_api cannot handle source kind {config.kind!r}")
    if session is None:
        import requests

        session = requests.Session()
    return _load_records(_api_records(config, session, sleep), config)


def _api_records(config: IngestConfig, session: Any, sleep: Callable[[float], None]):
    """Yield ``(page url, index in page, record)`` page by page until a short page."""
    base = config.location.rstrip("/")
    cache_dir = Path(config.cache_dir) if config.cache_dir is not None else None
    offset = 0
    while True:
        url = f"{base}/api/taskrun?limit={config.page_size}&offset={offset}"
        page = _get_page(url, session, sleep, cache_dir)
        if not isinstance(page, list):
            raise SchemaError(f"{url}: expected a JSON array, got {type(page).__name__}")
        for index, record in enumerate(page):
            yield url, index, record
        if len(page) < config.page_size:
            return
        offset += config.page_size


def load_events(config: IngestConfig, **api_kwargs: Any) -> IngestResult:
    """Dispatch to the right loader for the config's source kind."""
    if config.kind == "api":
        return fetch_api(config, **api_kwargs)
    return load_file(config)


def format_timestamp(timestamp) -> str:
    """Render a UTC instant in the canonical CSV form (trailing Z).

    Whole seconds give ``YYYY-MM-DDTHH:MM:SSZ``; any other instant keeps
    its microseconds (``.ffffff``), so re-reading the text gives it back.
    """
    return timestamp.replace(tzinfo=None).isoformat() + "Z"


def write_events_csv(events: Iterable[TaskExecutionEvent], path: str | Path) -> int:
    """Write events in the canonical CSV schema; returns the row count."""
    path = Path(path)
    count = 0
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for event in events:
            writer.writerow(
                (event.volunteer_id, event.task_id, event.project_id, format_timestamp(event.timestamp))
            )
            count += 1
    return count


def load_registration_dates(path: str | Path) -> dict[str, datetime]:
    """Read a ``volunteer_id,registered_at`` CSV sidecar.

    Task logs carry no account-creation date, so by default a volunteer's
    join instant is their first event. Platforms that do export registration
    dates can supply them through this sidecar; the mapping feeds the
    ``registration_dates`` override of profile derivation.

    Always strict: this is a small reference file and a silently skipped or
    duplicated row would misattribute tenure.

    Raises:
        SchemaError: missing header or missing required columns.
        MalformedRowError: short row, empty id, duplicate id, bad timestamp.
    """
    source = str(path)
    registrations: dict[str, datetime] = {}
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{source}: empty file, expected a header row") from None
        positions = {name.strip(): i for i, name in enumerate(header)}
        try:
            v_col = positions["volunteer_id"]
            ts_col = positions["registered_at"]
        except KeyError as exc:
            raise SchemaError(f"{source}: header must name volunteer_id and registered_at") from exc
        width = max(v_col, ts_col) + 1
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                raise MalformedRowError(source, reader.line_num, f"expected >= {width} columns, got {len(row)}")
            volunteer = row[v_col].strip()
            if not volunteer:
                raise MalformedRowError(source, reader.line_num, "missing volunteer_id")
            if volunteer in registrations:
                raise MalformedRowError(source, reader.line_num, f"duplicate volunteer_id {volunteer!r}")
            try:
                registrations[volunteer] = parse_timestamp(row[ts_col])
            except InvalidTimestampError as exc:
                raise MalformedRowError(source, reader.line_num, str(exc)) from exc
    return registrations
