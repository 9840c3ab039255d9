"""Event-log ingestion from CSV files, JSON-lines files, and task-run APIs.

All three sources load into an ``EventTable``, and the same records give
equal tables, so a platform export and a live API crawl of them produce
identical snapshots. Field names are configurable; the defaults follow the
PyBossa task-run schema (user_id/task_id/project_id/finish_time), and the
loader falls back to the canonical names (volunteer_id/.../timestamp) when a
mapped column is absent, so files written by this package load with a
default config.

Each loader only reads and checks records; one column builder codes the ids
of every source and parses its timestamps in bounded blocks.

Records without a volunteer identifier are anonymous contributions: the
metrics need a stable identity to link events, so those records are dropped
and tallied rather than guessed at. Malformed records raise in strict mode,
the first in record order, and are skipped-and-tallied in lenient mode (the
default, because real exports are messy). Text inputs are read as UTF-8,
ignoring a leading byte-order mark.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import datetime
from itertools import count
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

#: Rows per timestamp block; bounds the raw strings held and the parse's temporaries.
_PARSE_CHUNK = 1 << 16


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


def _fields_from_mapping(obj: Mapping[str, Any], field_map: Mapping[str, str]) -> tuple[str, str, str, str] | None:
    """Volunteer, task, project and raw timestamp of a JSON-ish record (mapped names win); None if anonymous."""

    def pick(canonical: str) -> Any:
        value = obj.get(field_map[canonical])
        if value is None:
            value = obj.get(canonical)
        return value

    volunteer = pick("volunteer_id")
    if volunteer is None or str(volunteer).strip() == "":
        return None
    task = pick("task_id")
    project = pick("project_id")
    raw_timestamp = pick("timestamp")
    if task is None or str(task).strip() == "":
        raise ValueError("missing task_id")
    if project is None or str(project).strip() == "":
        raise ValueError("missing project_id")
    if not isinstance(raw_timestamp, str):
        raise ValueError(f"missing or non-string timestamp: {raw_timestamp!r}")
    ids = str(volunteer).strip(), str(task).strip(), str(project).strip()
    limit = csv.field_size_limit()
    for value in ids:  # each id must be a field that ``ingest`` can write and load back
        value.encode("utf-8")  # a \uXXXX escape can decode to a lone surrogate: UnicodeEncodeError
        if len(value) > limit:
            raise ValueError(f"field larger than field limit ({limit})")
    return (*ids, raw_timestamp)


def _column_builder(strict: bool):
    """Every loader's columns, built a row at a time.

    Returns four closures (not methods: ``add`` runs once per row).
    ``add(volunteer, task, project, raw_timestamp, source, position)`` codes
    ids in arrival order and holds the raw timestamp, and in strict mode its
    location, until the block ends: after ``_PARSE_CHUNK`` rows or at
    ``end_block()``, which parses canonical values in one vectorised pass and
    the rest by ``parse_timestamp``. ``reject(source, position, reason)``
    tallies a malformed row or, in strict mode, raises it once the rows
    before it are parsed, so the first bad record is the one reported.
    ``finish(total, dropped)`` returns the ``IngestResult``.
    """
    # id -> code; a new id gets the next code, so codes follow arrival order
    volunteer_codes: dict[str, int] = defaultdict(count().__next__)
    task_codes: dict[str, int] = defaultdict(count().__next__)
    project_codes: dict[str, int] = defaultdict(count().__next__)
    volunteers, tasks, projects = array("i"), array("i"), array("i")
    micros_blocks = [np.zeros(0, dtype=np.int64)]
    kept_blocks = [np.zeros(0, dtype=bool)]
    stamps: list[str] = []
    locations: list[tuple[str, int]] = []  # (source, position) of each held row, in strict mode only
    skipped = 0
    block_rows = _PARSE_CHUNK
    add_volunteer, add_task, add_project = volunteers.append, tasks.append, projects.append
    add_stamp, add_location = stamps.append, locations.append

    def add(volunteer: str, task: str, project: str, raw_timestamp: str, source: str, position: int) -> None:
        add_volunteer(volunteer_codes[volunteer])
        add_task(task_codes[task])
        add_project(project_codes[project])
        add_stamp(raw_timestamp)
        if strict:
            add_location((source, position))
        if len(stamps) == block_rows:
            end_block()

    def end_block() -> None:
        nonlocal skipped
        micros, parsed = parse_canonical_timestamps(stamps)
        for index in np.flatnonzero(~parsed).tolist():
            try:
                micros[index] = to_micros(parse_timestamp(stamps[index]))
            except InvalidTimestampError as exc:
                if strict:
                    raise MalformedRowError(*locations[index], str(exc)) from exc
                skipped += 1
            else:
                parsed[index] = True
        micros_blocks.append(micros)
        kept_blocks.append(parsed)
        stamps.clear()
        locations.clear()

    def reject(source: str, position: int, reason: str) -> None:
        nonlocal skipped
        if strict:
            end_block()
            raise MalformedRowError(source, position, reason)
        skipped += 1

    def finish(total: int, dropped: int) -> IngestResult:
        end_block()
        kept = np.concatenate(kept_blocks)
        codes = [np.frombuffer(column, dtype=np.int32)[kept] for column in (volunteers, tasks, projects)]
        micros = np.concatenate(micros_blocks)[kept]
        events = EventTable.from_codes(volunteer_codes, task_codes, project_codes, *codes, micros)
        return IngestResult(events, total_records=total, dropped_anonymous=dropped, skipped_malformed=skipped)

    return add, end_block, reject, finish


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


def _read_header(reader, source: str) -> list[str]:
    try:
        return next(reader)
    except StopIteration:
        raise SchemaError(f"{source}: empty file, expected a header row") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise SchemaError(f"{source}: unreadable header row: {exc}") from exc


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
    """Read a CSV export into an ``EventTable``: row checks here, the rest in the column builder."""
    path = Path(config.location)
    source = str(path)
    add, _, reject, finish = _column_builder(config.strict)
    total = dropped = 0
    # utf-8-sig: a byte-order mark, as Excel's "CSV UTF-8" writes, is never data
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        columns = _resolve_csv_columns(_read_header(reader, source), config.field_map, source)
        v_col, t_col, p_col, ts_col = (columns[name] for name in CANONICAL_FIELDS)
        width = max(columns.values()) + 1
        while True:
            try:
                for row in reader:
                    if not row:
                        continue  # blank line, not a record
                    total += 1
                    if len(row) < width:
                        reject(source, reader.line_num, f"expected >= {width} columns, got {len(row)}")
                        continue
                    volunteer = row[v_col].strip()
                    if not volunteer:
                        dropped += 1
                        continue
                    task = row[t_col].strip()
                    project = row[p_col].strip()
                    if not task or not project:
                        reject(source, reader.line_num, "missing task_id or project_id")
                        continue
                    add(volunteer, task, project, row[ts_col], source, reader.line_num)
            except csv.Error as exc:  # e.g. a field over csv.field_size_limit(); the reader reads on
                total += 1
                reject(source, reader.line_num, str(exc))
            else:
                break
    return finish(total, dropped)


def _load_records(
    pages: Iterable[tuple[str, Iterable[tuple[int, Any]]]],
    config: IngestConfig,
    decode: Callable[[Any], Any] | None = None,
) -> IngestResult:
    """The record loop of the JSON-lines and API loaders, over ``(source, [(position, record)])`` pages.

    ``decode`` turns a raw record into its JSON value first; a record that
    fails to decode is malformed. Each page ends a timestamp block, so strict
    mode fails on a bad page before the next one is fetched.
    """
    add, end_block, reject, finish = _column_builder(config.strict)
    field_map = config.field_map
    total = dropped = 0
    for source, records in pages:
        for position, record in records:
            total += 1
            try:
                obj = decode(record) if decode else record
                if not isinstance(obj, dict):
                    raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
                fields = _fields_from_mapping(obj, field_map)
            # JSONDecodeError is a ValueError; json.loads raises RecursionError on deep nesting
            except (ValueError, RecursionError) as exc:
                reject(source, position, str(exc))
                continue
            if fields is None:
                dropped += 1
            else:
                add(*fields, source, position)
        end_block()
    return finish(total, dropped)


def _load_jsonl(config: IngestConfig) -> IngestResult:
    path = Path(config.location)
    # utf-8-sig: a byte-order mark is never data
    with path.open(encoding="utf-8-sig") as handle:
        records = ((number, line) for number, line in enumerate(handle, start=1) if line.strip())
        return _load_records([(str(path), records)], config, decode=json.loads)


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
        except (ValueError, RecursionError) as exc:  # undecodable, or nested too deep
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
            status = response.status_code
            if status >= 500:
                last_error = NetworkError(f"server error {status} from {url}")
                continue
            if status >= 400:
                raise NetworkError(f"client error {status} from {url}")
            payload = response.json()
        except (requests.RequestException, RecursionError) as exc:  # or a page nested too deep
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
    return _load_records(_api_pages(config, session, sleep), config)


def _api_pages(config: IngestConfig, session: Any, sleep: Callable[[float], None]):
    """Yield ``(page url, enumerate(records))`` page by page until a short page."""
    base = config.location.rstrip("/")
    cache_dir = Path(config.cache_dir) if config.cache_dir is not None else None
    offset = 0
    while True:
        url = f"{base}/api/taskrun?limit={config.page_size}&offset={offset}"
        page = _get_page(url, session, sleep, cache_dir)
        if not isinstance(page, list):
            raise SchemaError(f"{url}: expected a JSON array, got {type(page).__name__}")
        yield url, enumerate(page)
        if len(page) < config.page_size:
            return
        offset += config.page_size


def load_events(config: IngestConfig) -> IngestResult:
    """Dispatch to the right loader for the config's source kind."""
    if config.kind == "api":
        return fetch_api(config)
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
    with Path(path).open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        positions = {name.strip(): i for i, name in enumerate(_read_header(reader, source))}
        try:
            v_col = positions["volunteer_id"]
            ts_col = positions["registered_at"]
        except KeyError as exc:
            raise SchemaError(f"{source}: header must name volunteer_id and registered_at") from exc
        width = max(v_col, ts_col) + 1
        try:
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
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise MalformedRowError(source, reader.line_num, str(exc)) from exc
    return registrations
