"""Event-log ingestion from CSV files, JSON-lines files, and task-run APIs.

All three sources load into an ``EventTable``, and the same records give
equal tables, so a platform export and a live API crawl of them produce
identical snapshots. Field names are configurable; the defaults follow the
PyBossa task-run schema (user_id/task_id/project_id/finish_time), and the
loader falls back to the canonical names (volunteer_id/.../timestamp) when a
mapped column is absent, so files written by this package load with a
default config.

A CSV file in the common dialect (ASCII, records as wide as the header, the
header and the id and timestamp fields unquoted, other fields quoted or not)
is read by a byte path that masks the commas and newlines inside quoted
cells, indexes each block's remaining newlines and commas and slices its
fields in bulk. It reads blocks on up to 2 threads, with at most 4 blocks
held, and takes their results in file order. Any other CSV, and every JSONL
and API source, is read record by record: each source yields its records'
fields to one loop that codes ids and parses timestamps in bounded blocks.
Both CSV paths give equal results.

Records without a volunteer identifier are anonymous contributions: the
metrics need a stable identity to link events, so those records are dropped
and tallied rather than guessed at. Malformed records raise in strict mode,
the first in record order, and are skipped-and-tallied in lenient mode (the
default, because real exports are messy). Text inputs are read as UTF-8,
ignoring a leading byte-order mark.
"""

from __future__ import annotations

import base64
import codecs
import csv
import functools
import hashlib
import json
import logging
import os
import threading
import time
from array import array
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, count
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, Mapping
from urllib.parse import quote, unquote, urlsplit

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .events import (
    EventTable,
    IdKeys,
    InvalidTimestampError,
    TaskExecutionEvent,
    _canonical_micros,
    _decode_ids,
    _first_of_runs,
    _key_bytes,
    parse_canonical_timestamps,
    parse_timestamp,
    to_micros,
)

logger = logging.getLogger(__name__)

CANONICAL_FIELDS = TaskExecutionEvent._fields

#: Default source field names, matching PyBossa task-run exports.
DEFAULT_FIELD_MAP: dict[str, str] = {
    "volunteer_id": "user_id",
    "task_id": "task_id",
    "project_id": "project_id",
    "timestamp": "finish_time",
}

MAX_API_ATTEMPTS = 5
BACKOFF_BASE_SECONDS = 0.5
#: The longest wait before a retry that a 429's or 503's ``Retry-After`` may ask for; a longer one ends the crawl.
MAX_RETRY_AFTER_SECONDS = 15 * 60
#: API page requests in flight at once after the first page; the crawl makes at most
#: ``_API_WINDOW - 1`` requests past its last page.
_API_WINDOW = 4
#: What a page URL's path and query keep unescaped, as ``requests`` keeps it: existing escapes
#: stay, and a space or non-ASCII character is percent-encoded (as UTF-8).
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"

#: Rows per timestamp block of the record loop; bounds the raw strings held and the parse's
#: temporaries. A lenient crawl's blocks run across pages, so this alone bounds them: at
#: 65,536 the ``api_crawl`` benchmark's peak RSS read 71.8-72.3 MB, against 64.4-64.7 MB with
#: a block per page, and at 4,096 it reads 64.6-65.3 MB (2 vCPU Xeon).
_PARSE_CHUNK = 1 << 12

#: Bytes the CSV byte path reads at a time; each block is cut after its last newline.
_BLOCK_BYTES = 1 << 20
#: Widest id the CSV byte path codes; a block's id matrix stays within a few times the block.
_MAX_ID_BYTES = 32
#: The ASCII bytes an id the byte path codes may not start or end with, by byte value:
#: those ``str.strip()`` removes, and the quote of a quoted field.
_ID_EDGE_BANNED = np.array([chr(byte).isspace() or chr(byte) == '"' for byte in range(128)])


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


class _Decline(Exception):
    """The CSV byte path cannot promise ``csv.reader``'s result for a file; the message says why.

    Raised, for instance, for a quote that does not open or close a whole
    field, or a quoted header, id or timestamp.
    """


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
        if self.kind == "api":
            _api_url(self.location)
        missing = [f for f in CANONICAL_FIELDS if f not in self.field_map]
        if missing:
            raise ValueError(f"field map does not cover: {', '.join(missing)}")


def _api_url(url: str) -> str:
    """Return ``url`` if it is an http(s) URL with a host; no retry could fetch any other."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"API URL must be http:// or https:// with a host, got {_shown(url)!r}")
    try:
        parts.port  # raises for a port out of range or not a number
    except ValueError:
        raise ValueError(f"API URL port must be a number in 0..65535, got {_shown(url)!r}") from None
    return url


def _shown(url: str) -> str:
    """``url`` as logs and messages show it: any user info, which may hold a password, is ``***``."""
    parts = urlsplit(url)
    if "@" not in parts.netloc:
        return url
    return parts._replace(netloc="***@" + parts.netloc.rpartition("@")[2]).geturl()


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


def _field_keys(field_map: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    """The ``(mapped, canonical)`` name pairs of ``CANONICAL_FIELDS``, resolved once per load."""
    return tuple((field_map[canonical], canonical) for canonical in CANONICAL_FIELDS)


def _fields_from_mapping(
    obj: Mapping[str, Any], keys: tuple[tuple[str, str], ...], limit: int
) -> tuple[str, str, str, str] | None:
    """Volunteer, task, project and raw timestamp of a JSON-ish record (mapped names win); None if anonymous.

    ``keys`` comes from ``_field_keys``; ``limit`` is ``csv.field_size_limit()``.
    """
    get = obj.get
    values = []
    for mapped, canonical in keys:
        value = get(mapped)
        values.append(get(canonical) if value is None else value)
    raw_timestamp = values.pop()
    volunteer, task, project = ids = ["" if value is None else str(value).strip() for value in values]
    if not volunteer:
        return None
    if not task:
        raise ValueError("missing task_id")
    if not project:
        raise ValueError("missing project_id")
    if not isinstance(raw_timestamp, str):
        raise ValueError(f"missing or non-string timestamp: {raw_timestamp!r}")
    for value in ids:  # each id must be a field that ``ingest`` can write and load back
        if not value.isascii():  # a \uXXXX escape can decode to a lone surrogate: UnicodeEncodeError
            value.encode("utf-8")
        if len(value) > limit:
            raise ValueError(f"field larger than field limit ({limit})")
    return volunteer, task, project, raw_timestamp


def _parse_rest(
    micros: np.ndarray, parsed: np.ndarray, raw: Callable[[int], str]
) -> Iterator[tuple[int, InvalidTimestampError]]:
    """Parse the values a vectorised pass left out, one at a time, into ``micros`` and ``parsed``.

    ``raw(index)`` gives the value at ``index``; yields the index and error
    of each value ``parse_timestamp`` rejects, in order. Yielded, not
    listed: a held error's traceback holds this frame, and the frame a list
    of the errors, a cycle only the garbage collector would free.
    """
    for index in np.flatnonzero(~parsed).tolist():
        try:
            micros[index] = to_micros(parse_timestamp(raw(index)))
        except InvalidTimestampError as exc:
            yield index, exc
        else:
            parsed[index] = True


def _load_records(pages: Iterable[tuple[str, Iterable[tuple[int, Any]]]], strict: bool) -> IngestResult:
    """The one loop of the record-by-record loaders, over ``(source, [(position, fields)])`` pages.

    ``fields`` is a record's ``(volunteer, task, project, raw_timestamp)``,
    None for an anonymous record, or the error that makes it malformed. Ids
    are coded in arrival order. Raw timestamps, and in strict mode their
    locations, are held until a block ends, after ``_PARSE_CHUNK`` records,
    at the end of the load and, in strict mode, at each page end; the
    block's fixed-width ISO-8601 values are parsed in one vectorised pass
    and the rest by ``parse_timestamp``. A malformed record is tallied or,
    in strict mode, raised once the records before it are parsed, so the
    first bad record is the one reported, and a bad API page fails before
    any page more than ``_API_WINDOW - 1`` past it is requested. A lenient
    load raises no record's error, so its blocks run across pages.
    """
    # id -> code; a new id gets the next code, so codes follow arrival order
    volunteer_codes: dict[str, int] = defaultdict(count().__next__)
    task_codes: dict[str, int] = defaultdict(count().__next__)
    project_codes: dict[str, int] = defaultdict(count().__next__)
    volunteers, tasks, projects = array("i"), array("i"), array("i")
    micros_blocks = [np.zeros(0, dtype=np.int64)]
    kept_blocks = [np.zeros(0, dtype=bool)]
    stamps: list[str] = []
    locations: list[tuple[str, int]] = []  # (source, position) of each held record, in strict mode only
    total = dropped = skipped = 0
    add_volunteer, add_task, add_project = volunteers.append, tasks.append, projects.append
    add_stamp, add_location = stamps.append, locations.append

    def end_block() -> None:
        nonlocal skipped
        if not stamps:
            return
        micros, parsed = parse_canonical_timestamps(stamps)
        for index, exc in _parse_rest(micros, parsed, stamps.__getitem__):
            if strict:
                raise MalformedRowError(*locations[index], str(exc)) from exc
            skipped += 1
        micros_blocks.append(micros)
        kept_blocks.append(parsed)
        stamps.clear()
        locations.clear()

    for source, records in pages:
        for position, fields in records:
            total += 1
            if isinstance(fields, tuple):
                volunteer, task, project, raw_timestamp = fields
                add_volunteer(volunteer_codes[volunteer])
                add_task(task_codes[task])
                add_project(project_codes[project])
                add_stamp(raw_timestamp)
                if strict:
                    add_location((source, position))
                if len(stamps) == _PARSE_CHUNK:
                    end_block()
            elif fields is None:
                dropped += 1
            elif strict:
                end_block()
                raise MalformedRowError(source, position, str(fields))
            else:
                skipped += 1
        if strict:
            end_block()
    end_block()
    kept = np.concatenate(kept_blocks)
    codes = [np.frombuffer(column, dtype=np.int32)[kept] for column in (volunteers, tasks, projects)]
    micros = np.concatenate(micros_blocks)[kept]
    events = EventTable.from_codes(volunteer_codes, task_codes, project_codes, *codes, micros)
    return IngestResult(events, total_records=total, dropped_anonymous=dropped, skipped_malformed=skipped)


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
    """Read a CSV export into an ``EventTable``.

    A file in the common dialect takes the byte path; any other file is read
    by ``csv.reader``, from its start. Both give the same result, tallies
    and errors, and the module logger says at DEBUG level which one ran.
    """
    path = Path(config.location)
    try:
        with path.open("rb") as handle:
            result = _load_csv_bytes(handle, config, str(path))
    except _Decline as decline:
        logger.debug("%s: read by csv.reader: %s", path, decline)
    else:
        logger.debug("%s: read by the byte path", path)
        return result
    # out of the handler, so the traceback no longer holds the byte path's buffers
    return _load_csv_rows(config)


def _csv_blocks(handle) -> Iterator[bytes]:
    """A CSV file's bytes after any byte-order mark, in blocks of whole records.

    A block is cut after its last newline outside quotes, so each block
    starts outside quotes and no state passes between blocks. Raises
    ``_Decline`` for a record over ``_BLOCK_BYTES``, a NUL byte and a
    non-ASCII byte; ``_records`` checks the rest.
    """
    pending = handle.read(len(codecs.BOM_UTF8))
    if pending == codecs.BOM_UTF8:
        pending = b""
    while True:
        chunk = handle.read(_BLOCK_BYTES)
        pending += chunk
        data = pending[: pending.rfind(b"\n") + 1 if chunk else len(pending)]  # the end of the file ends a record
        if chunk and data.count(b'"') % 2:  # its last newline is quoted: cut at the last one outside
            chars = np.frombuffer(data, dtype=np.uint8)
            newlines = np.flatnonzero(chars == ord("\n"))
            outside = newlines[np.searchsorted(np.flatnonzero(chars == ord('"')), newlines) % 2 == 0]
            data = data[: outside[-1] + 1 if len(outside) else 0]
        if not data:
            if not chunk:
                return
            if len(pending) > _BLOCK_BYTES:
                raise _Decline(f"a record over {_BLOCK_BYTES} bytes")
            continue
        pending = pending[len(data) :]
        if b"\0" in data:
            raise _Decline("a NUL byte")
        if not data.isascii():
            raise _Decline("a non-ASCII byte")
        yield data


def _records(block: bytes, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block as uint8 with its quoted commas and newlines masked, and each line's start and end offsets.

    A final record that lacks a newline gets one, and the bytes are
    followed by ``_MAX_ID_BYTES`` NULs, so a fixed-width gather may read
    past the last field. A block that holds a ``"`` is a masked copy (see
    ``_mask_quoted``); any other block is a read-only view. Raises
    ``_Decline`` for a quote or CR that ``csv.reader`` reads in its own
    way, and for a record over ``limit``, the field size limit.
    """
    padded = block + (b"" if block.endswith(b"\n") else b"\n") + bytes(_MAX_ID_BYTES)
    buf = _mask_quoted(padded) if b'"' in block else np.frombuffer(padded, dtype=np.uint8)
    if b"\r" in block:  # each CR outside quotes must start a CRLF
        after = np.flatnonzero(buf[: len(block)] == ord("\r")) + 1
        if block.endswith(b"\r") or (buf[after] != ord("\n")).any():
            raise _Decline("a CR not followed by LF")
    newlines = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], newlines[:-1] + 1))
    # a CRLF record ends before its CR; every unmasked CR precedes a newline,
    # and a record starting the block reads the padding NUL at buf[-1]
    ends = newlines - (buf[newlines - 1] == ord("\r"))
    if (ends - starts).max() > limit:  # it may hold a field over the limit
        raise _Decline("a record over the field size limit")
    return buf, starts, ends


def _mask_quoted(padded: bytes) -> np.ndarray:
    """A writable copy of a block in which each comma, LF and CR inside a quoted cell is a space.

    A byte lies inside quotes when an odd number of quotes precede it
    (Langdale & Lemire's in-string mask, as the parity of a
    ``searchsorted`` rank); the two quotes of an escaped ``""`` flip that
    parity twice. Raises ``_Decline`` for a quote that ``csv.reader`` reads
    another way: an unclosed one, an opening quote that neither starts a
    field nor follows a closing quote (``ab"c`` keeps its quote), and a
    closing quote followed by anything but a comma, LF, CRLF or a quote
    (``"a"b`` reads on, quotes literal).
    """
    buf = np.frombuffer(padded, dtype=np.uint8).copy()
    quotes = np.flatnonzero(buf == ord('"'))
    if len(quotes) % 2:
        raise _Decline("an unclosed quote")
    opening, closing = quotes[::2], quotes[1::2]
    before = buf[opening - 1]  # a quote that starts the block reads the padding NUL at buf[-1]
    opens_field = (opening == 0) | (before == ord(",")) | (before == ord("\n"))
    opens_field[1:] |= opening[1:] == closing[:-1] + 1  # the second quote of a "" escape
    if not opens_field.all():
        raise _Decline("a quote inside an unquoted field")
    after = buf[closing + 1]
    crlf = (after == ord("\r")) & (buf[closing + 2] == ord("\n"))
    if not ((after == ord(",")) | (after == ord("\n")) | (after == ord('"')) | crlf).all():
        raise _Decline("text after a closing quote")
    separators = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")) | (buf == ord("\r")))
    buf[separators[np.searchsorted(quotes, separators) % 2 == 1]] = ord(" ")
    return buf


def _load_csv_bytes(handle, config: IngestConfig, source: str) -> IngestResult:
    """The byte path of ``_load_csv``: index each block's newlines and commas, then slice fields in bulk.

    The header is read from the first block; then ``_read_block`` reads
    blocks on up to 2 threads, with at most 4 blocks read and not yet taken,
    and takes their results in file order, so the first ``_Decline`` in file
    order is the one raised. Every thread it starts is joined before it
    returns or raises.

    A field that starts with a quote is a quoted cell: its commas and
    newlines are masked, so it counts as one field, and only the fields the
    events do not use may be quoted. Raises ``_Decline`` wherever its result
    could differ from the ``csv.reader`` loop's: a special byte or misplaced
    quote (see ``_csv_blocks`` and ``_records``), a quote in the header, a
    record over the field size limit, a record whose comma count differs
    from the header's, a kept record's id that is empty, quoted, padded with
    whitespace or over ``_MAX_ID_BYTES``, a kept record's quoted timestamp,
    or, in strict mode, a timestamp that does not parse. So it reads only
    files with no malformed record but for, in lenient mode, unparseable
    timestamps. An empty volunteer id is an anonymous record, whatever its
    other fields hold.
    """
    from concurrent.futures import ThreadPoolExecutor

    layout, blocks = _csv_layout(_csv_blocks(handle), config.field_map, source)
    # the CPUs this process may run on; macOS and Windows have no os.sched_getaffinity
    workers = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    pool = ThreadPoolExecutor(workers)
    queued: deque[Any] = deque()  # the futures of the blocks submitted and not yet taken, in file order
    results = []
    try:
        while True:
            if len(queued) == 2 * workers:
                results.append(_taken(queued.popleft().result()))
            try:
                block = next(blocks, None)
            except _Decline:  # a block before the one that declined may decline first
                while queued:
                    queued.popleft().result()
                raise
            if block is None:
                break
            queued.append(pool.submit(_read_block, block, layout, config.strict))
        while queued:
            results.append(_taken(queued.popleft().result()))
    finally:
        queued.clear()  # so a held decline's traceback holds no later block's arrays
        pool.shutdown(cancel_futures=True)
    total, dropped, skipped, micros, ids = zip(*results)
    timestamp = np.concatenate(micros)
    columns = list(zip(*ids))
    del results, micros, ids  # the blocks' timestamps go now, each id column's blocks once it is merged
    merged = [_merge_id_blocks(columns.pop(0)) for _ in range(len(columns))]
    (volunteer_keys, task_keys, project_keys), codes = zip(*merged)
    # reports read every volunteer and project id, but a task id only as a dedupe key
    tables = _decode_ids(volunteer_keys), IdKeys(task_keys), _decode_ids(project_keys)
    events = EventTable(*tables, *codes, timestamp)
    return IngestResult(
        events, total_records=sum(total), dropped_anonymous=sum(dropped), skipped_malformed=sum(skipped)
    )


def _taken(result: tuple) -> tuple:
    """A ``_read_block`` result with its arrays copied by the calling thread.

    glibc serves each thread from a malloc arena of its own, and seldom
    returns a worker's arena to the system or lets the main thread reuse
    it. Results held there until the load ends would grow each worker's
    arena by its share of them (some 20 MB on the 1.25M-event fixture);
    copied, the arena holds only the temporaries of the block it reads.
    """
    records, anonymous, skipped, micros, ids = result
    return records, anonymous, skipped, micros.copy(), [(table.copy(), inverse.copy()) for table, inverse in ids]


def _csv_layout(
    blocks: Iterator[bytes], field_map: Mapping[str, str], source: str
) -> tuple[tuple[dict[str, int], int, int], Iterator[bytes]]:
    """The layout (column positions, comma count, field size limit) from the header, and the blocks after it.

    The whole first block passes ``_records``' checks before its header is
    read, so a fault they find anywhere in it declines before the header's.
    """
    limit = csv.field_size_limit()
    first = next(blocks, None)
    if first is None:
        _read_header(csv.reader([]), source)  # raises: an empty file has no header
    buf, starts, ends = _records(first, limit)
    header = buf[: ends[0]].tobytes().decode("ascii")
    if '"' in header:  # its masked names are not the names csv.reader reads
        raise _Decline("a quote in the header")
    columns = _resolve_csv_columns(_read_header(csv.reader([header]), source), field_map, source)
    # the rest of the first block is a block too, if only of padding, so every file has one
    return (columns, header.count(","), limit), chain([first[starts[1] :] if len(starts) > 1 else b""], blocks)


def _read_block(
    block: bytes, layout: tuple[dict[str, int], int, int], strict: bool
) -> tuple[int, int, int, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """One block's ``(records, anonymous, skipped, micros, ids)``, or ``_Decline``; it shares no state.

    ``micros`` holds the kept records' instants, and ``ids`` each id
    column's ``np.unique`` keys (see ``_id_keys``) and int32 inverse.
    """
    columns, separators, limit = layout
    buf, starts, ends = _records(block, limit)
    records = ends > starts  # a blank line is not a record
    starts, ends = starts[records], ends[records]
    commas = np.flatnonzero(buf == ord(","))
    before = np.searchsorted(commas, starts)
    if (np.searchsorted(commas, ends) - before != separators).any():
        raise _Decline("a row whose comma count differs from the header's")

    def field(name: str, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        column = columns[name]
        first = starts[rows] if column == 0 else commas[before[rows] + column - 1] + 1
        last = ends[rows] if column == separators else commas[before[rows] + column]
        return first, last

    first, last = field("volunteer_id", slice(None))
    named = np.flatnonzero(last > first)
    ids = [field(name, named) for name in CANONICAL_FIELDS[:3]]
    for first, last in ids:
        if (last == first).any():
            raise _Decline("an empty id")
        if (_ID_EDGE_BANNED[buf[first]] | _ID_EDGE_BANNED[buf[last - 1]]).any():
            if (buf[first] == ord('"')).any():
                raise _Decline("a quoted id or timestamp")
            raise _Decline("an id with leading or trailing whitespace")
        if (last - first).max(initial=0) > _MAX_ID_BYTES:
            raise _Decline(f"an id over {_MAX_ID_BYTES} bytes")

    stamp_first, stamp_last = field("timestamp", named)
    micros, parsed = _canonical_micros(buf, stamp_first, stamp_last - stamp_first)

    def stamp(index: int) -> str:
        return buf[stamp_first[index] : stamp_last[index]].tobytes().decode("ascii")

    skipped = 0
    for index, _ in _parse_rest(micros, parsed, stamp):
        if buf[stamp_first[index]] == ord('"'):  # no quoted value parses, but unquoted it may
            raise _Decline("a quoted id or timestamp")
        if strict:
            raise _Decline("a timestamp that strict mode raises for")
        skipped += 1
    keys = [np.unique(_id_keys(buf, first[parsed], last[parsed]), return_inverse=True) for first, last in ids]
    codes = [(table, inverse.astype(np.int32)) for table, inverse in keys]
    return len(starts), len(starts) - len(named), skipped, micros[parsed], codes


def _id_keys(buf: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Keys that sort as the ids ``buf[first:last]`` do.

    Ids of at most 8 bytes give big-endian ``uint64`` keys of their
    NUL-padded bytes, wider ones ``S`` strings as wide as the widest. UTF-8
    byte order is ``str`` order, and a NUL sorts before any id byte.
    """
    lengths = last - first
    width = max(8, int(lengths.max(initial=0)))
    matrix = sliding_window_view(buf, width)[first]
    if width == 8:  # shift out the bytes past each id's end
        padding = (8 * (8 - lengths)).astype(np.uint64)
        return matrix.view(">u8").ravel().astype(np.uint64) >> padding << padding
    matrix[np.arange(width) >= lengths[:, None]] = 0
    return matrix.view(f"S{width}").ravel()


def _merge_id_blocks(blocks: tuple[tuple[np.ndarray, np.ndarray], ...]) -> tuple[np.ndarray, np.ndarray]:
    """One id column's sorted keys and int32 codes from its blocks' ``np.unique`` tables and inverses.

    Each block's table is a sorted run, so one stable argsort of their
    concatenation merges them (timsort finds the runs). A boolean mask marks
    the first of each run of equal sorted keys, and its ``cumsum`` less one
    is each sorted key's int32 rank among the distinct keys; no index array
    of the distinct keys is made. The ranks are scattered back to the keys'
    concatenated positions, and the argsort, mask and sorted keys are freed
    before the blocks' inverses gather their codes from those ranks.
    """
    tables = [table for table, _ in blocks]
    if any(table.dtype.kind == "S" for table in tables):
        tables = list(map(_key_bytes, tables))
    offsets = np.cumsum([0] + [len(table) for table in tables[:-1]])
    keys = np.concatenate(tables)
    del tables
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = _first_of_runs(keys)
    merged = keys[first]
    del keys
    rank = np.cumsum(first, dtype=np.int32)
    del first
    rank -= 1
    remap = np.empty_like(rank)
    remap[order] = rank
    del order, rank
    return merged, np.concatenate([remap[offset + inverse] for offset, (_, inverse) in zip(offsets, blocks)])


def _load_csv_rows(config: IngestConfig) -> IngestResult:
    """Read any CSV export with ``csv.reader``, a row at a time through ``_load_records``."""
    path = Path(config.location)
    source = str(path)
    # utf-8-sig: a byte-order mark, as Excel's "CSV UTF-8" writes, is never data
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        columns = _resolve_csv_columns(_read_header(reader, source), config.field_map, source)
        return _load_records([(source, _csv_fields(reader, columns))], config.strict)


def _csv_fields(reader, columns: dict[str, int]) -> Iterator[tuple[int, Any]]:
    """``(line number, fields)`` of each record ``reader`` reads after the header (see ``_load_records``)."""
    v_col, t_col, p_col, ts_col = (columns[name] for name in CANONICAL_FIELDS)
    width = max(columns.values()) + 1
    while True:
        try:
            for row in reader:
                if not row:
                    continue  # blank line, not a record
                if len(row) < width:
                    yield reader.line_num, ValueError(f"expected >= {width} columns, got {len(row)}")
                    continue
                volunteer, task, project = row[v_col].strip(), row[t_col].strip(), row[p_col].strip()
                if not volunteer:
                    yield reader.line_num, None
                elif not task or not project:
                    yield reader.line_num, ValueError("missing task_id or project_id")
                else:
                    yield reader.line_num, (volunteer, task, project, row[ts_col])
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit(); the reader reads on
            yield reader.line_num, exc
        else:
            return


def _json_fields(
    records: Iterable[tuple[int, Any]], keys: tuple[tuple[str, str], ...], decode: Callable[[Any], Any] | None = None
) -> Iterator[tuple[int, Any]]:
    """``(position, fields)`` of each ``(position, record)`` (see ``_load_records``), after any ``decode``."""
    limit = csv.field_size_limit()
    for position, record in records:
        try:
            obj = decode(record) if decode else record
            if not isinstance(obj, dict):
                raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
            fields = _fields_from_mapping(obj, keys, limit)
        # JSONDecodeError is a ValueError; json.loads raises RecursionError on deep nesting
        except (ValueError, RecursionError) as exc:
            yield position, exc
        else:
            yield position, fields


def _load_jsonl(config: IngestConfig) -> IngestResult:
    path = Path(config.location)
    # utf-8-sig: a byte-order mark is never data
    with path.open(encoding="utf-8-sig") as handle:
        lines = ((number, line) for number, line in enumerate(handle, start=1) if line.strip())
        fields = _json_fields(lines, _field_keys(config.field_map), json.loads)
        return _load_records([(str(path), fields)], config.strict)


def _cache_path(cache_dir: Path, url: str) -> Path:
    digest = hashlib.sha256(url.encode("utf-8")).hexdigest()[:32]
    return cache_dir / f"{digest}.json"


@contextmanager
def _replacing(*paths: Path) -> Iterator[list[Path]]:
    """Yield a temporary path beside each target, to be renamed over it once the block returns.

    Every file this package writes goes through here. The temporaries are
    renamed in order; on any raise, from the block or from a rename, every
    temporary is removed and the error re-raised, so the targets not yet
    renamed keep their previous bytes.
    """
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    try:
        yield temps
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


def _write_cache(path: Path, body: bytes) -> None:
    """Write a page's response bytes, as served, through ``_replacing``, so a reader never sees part of them.

    The directory must exist: ``_api_pages`` makes it once per crawl. Not
    fsynced: a page that a power loss leaves empty or cut short no longer
    decodes, and the crawl then fetches it again.
    """
    with _replacing(path) as (temp,):
        temp.write_bytes(body)


def _cached_page(cache_dir: Path | None, url: str) -> list | None:
    """The records in ``url``'s cache file; None with no cache, no file, or a file that is not a JSON array."""
    if cache_dir is None:
        return None
    cached = _cache_path(cache_dir, url)
    try:
        page = json.loads(cached.read_bytes())
        if isinstance(page, list):
            return page
        raise SchemaError(f"expected a JSON array, got {type(page).__name__}")
    except FileNotFoundError:
        pass
    except (ValueError, RecursionError) as exc:  # undecodable, nested too deep, or not an array
        logger.warning("ignoring unreadable cache file %s for %s (%s); fetching again", cached, _shown(url), exc)
    return None


def _attempt(url: str, get: Callable[..., Any]) -> tuple[list, bytes] | Exception:
    """One request for a page: its records and body, or the error another attempt may clear.

    A connection error, a body that does not decode, a 5xx and a 429 (rate
    limited) are returned, a 429's or 503's with the seconds its
    ``Retry-After`` asks for as ``retry_after``; any other 4xx raises
    ``NetworkError``, and a body that decodes to anything but an array
    raises ``SchemaError``.
    """
    try:
        response = get(url, timeout=30)
        status = response.status_code
        if status >= 500 or status == 429:
            error = NetworkError(f"HTTP {status} from {_shown(url)}")
            if status in (429, 503):
                error.retry_after = _retry_after(response.headers.get("Retry-After"))
            return error
        if status >= 400:
            raise NetworkError(f"client error {status} from {_shown(url)}")
        page = json.loads(response.content)
    except (OSError, ValueError, RecursionError) as exc:  # _urlopen's errors are OSErrors
        return exc
    if not isinstance(page, list):
        raise SchemaError(f"{_shown(url)}: expected a JSON array, got {type(page).__name__}")
    return page, response.content


def _retried(url: str, attempt: Callable[..., Any], sleep: Callable[[float], None], outcome: Any) -> tuple[list, bytes]:
    """``outcome``, a page's first ``_attempt``, or else the first retry after backoff to succeed.

    A retry waits the backoff, or longer if the answer's ``Retry-After``
    asks for it; a wait asked for over ``MAX_RETRY_AFTER_SECONDS`` raises
    ``NetworkError``. The retry is then ``attempt(url)``, as a first attempt is.
    """
    attempts = 1
    while isinstance(outcome, Exception):
        if attempts == MAX_API_ATTEMPTS:
            raise NetworkError(f"giving up on {_shown(url)} after {MAX_API_ATTEMPTS} attempts") from outcome
        asked = getattr(outcome, "retry_after", 0.0)
        if asked > MAX_RETRY_AFTER_SECONDS:
            limit = f"over the {MAX_RETRY_AFTER_SECONDS}s limit"
            raise NetworkError(f"{_shown(url)} asks for a wait of {asked:.0f}s before a retry, {limit}") from outcome
        delay = max(BACKOFF_BASE_SECONDS * 2 ** (attempts - 1), asked)
        attempts += 1
        logger.warning("retrying %s (attempt %d/%d) after %.1fs", _shown(url), attempts, MAX_API_ATTEMPTS, delay)
        sleep(delay)
        outcome = attempt(url).result()
    return outcome


def _retry_after(value: str | None) -> float:
    """The seconds a ``Retry-After`` value asks to wait (RFC 9110 §10.2.3: delay-seconds or an HTTP-date).

    0 for no value, and for one that does not parse or lies in the past.
    """
    import email.utils

    value = (value or "").strip()
    if value.isascii() and value.isdigit():
        return float(value)
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return 0.0
    if when.tzinfo is None:  # a "-0000" zone: UTC, from a source that does not say so
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


def fetch_api(
    config: IngestConfig,
    session: Any | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> IngestResult:
    """Fetch all task-run records from a paged API.

    Pages ``GET <base>/api/taskrun?limit=L&offset=O`` until a short page,
    up to ``_API_WINDOW`` (4) requests at a time, and reads the pages in
    offset order (see ``_api_pages``). A lenient crawl queues the next
    pages as soon as a page arrives, so that page's cache write and record
    pass overlap the next requests; a strict one once its records are
    read. Transient failures are retried with exponential backoff, at most
    MAX_API_ATTEMPTS attempts per page. With a
    ``cache_dir`` configured every page's response bytes are written to disk
    as served and reused on later runs, so an analysis stays reproducible
    after the platform goes away. ``session.get(url, timeout=...)``, called
    from up to 4 threads at once, returns ``.status_code``, ``.content``
    (the body's bytes) and ``.headers``. Without a session every attempt,
    retries too, calls ``_urlopen``, looked up when it is called, on a
    worker thread that keeps one connection to the host open for the
    crawl, unless a proxy serves the URL. Every thread this starts is
    joined, and every connection it opens is closed, before it returns.

    Raises:
        NetworkError: a page kept failing, or asked for too long a wait.
        SchemaError: a page is not a JSON array of records.
        MalformedRowError: a bad record, when ``config.strict`` is set.
    """
    if config.kind != "api":
        raise ValueError(f"fetch_api cannot handle source kind {config.kind!r}")
    from concurrent.futures import ThreadPoolExecutor

    kept: dict[tuple, Any] = {}  # {(thread, scheme, host): connection} of the worker threads
    if session is not None:
        get = session.get
    else:
        import urllib.request

        parts = urlsplit(config.location)  # every page shares its scheme and host
        proxies = urllib.request.getproxies()  # read once a crawl, for its opener and its choice of route
        # only an HTTPS crawl reads the CA store (1.7 MB and some 20 ms)
        tls = [urllib.request.HTTPSHandler(context=_tls_context())] if parts.scheme == "https" else []
        opener = urllib.request.build_opener(urllib.request.ProxyHandler(proxies), *tls)
        proxied = parts.scheme in proxies and not urllib.request.proxy_bypass(parts.netloc.rpartition("@")[2])
        get = lambda url, timeout: _urlopen(url, timeout, opener, None if proxied else kept)  # noqa: E731
    pool = ThreadPoolExecutor(_API_WINDOW)
    try:
        attempt = lambda url: pool.submit(_attempt, url, get)  # noqa: E731
        return _load_records(_api_pages(config, attempt, sleep), config.strict)
    finally:
        pool.shutdown(cancel_futures=True)  # after the attempts in flight return
        for connection in kept.values():
            connection.close()


def _urlopen(url: str, timeout: float, opener: Any, kept: dict[tuple, Any] | None) -> SimpleNamespace:
    """One ``GET``: status, headers and body, a 4xx's or 5xx's too; ``ConnectionError`` if unreadable.

    With ``kept``, a crawl's ``{(thread, scheme, host): connection}``, the
    request goes over the calling thread's connection to the host (see
    ``_kept_get``). Without it (a proxy serves the crawl), and for an
    answer that is a 3xx, it goes through ``opener``, a
    ``urllib.request`` opener, on a connection of its own: the opener sends
    it to the proxy, follows redirects and sends no redirect's target the
    credentials. As ``requests`` did, the path and query are
    percent-encoded, user info in the URL is sent as Basic auth, and the
    body may come gzipped.
    """
    import http.client  # these import email, ssl and zlib, so only a crawl pays for them
    import urllib.request
    import zlib

    parts = urlsplit(url)
    userinfo, _, host = parts.netloc.rpartition("@")
    target = parts._replace(netloc=host, path=quote(parts.path, _URL_SAFE), query=quote(parts.query, _URL_SAFE))
    request = urllib.request.Request(target.geturl(), headers={"Accept-Encoding": "gzip"})
    if userinfo:  # unredirected: a redirect's target is not sent the credentials
        pair = f"{unquote(parts.username or '')}:{unquote(parts.password or '')}".encode("utf-8")
        request.add_unredirected_header("Authorization", "Basic " + base64.b64encode(pair).decode("ascii"))
    try:
        answer = None if kept is None else _kept_get(kept, target, dict(request.header_items()), timeout)
        if answer is None or 300 <= answer.status_code < 400:
            try:
                response = opener.open(request, timeout=timeout)
            except urllib.request.HTTPError as error:  # a 4xx or 5xx, read like any other answer
                response = error
            with response:
                answer = _answer(response)
        return answer
    except (http.client.HTTPException, EOFError, zlib.error) as exc:  # cut short, bad status line, bad gzip
        raise ConnectionError(f"{_shown(url)}: {exc!r}") from exc


def _answer(response: Any) -> SimpleNamespace:
    """A response's status, headers and body, the body gunzipped if it came gzipped."""
    import gzip

    body = response.read()
    if response.headers.get("Content-Encoding") == "gzip":
        body = gzip.decompress(body)
    return SimpleNamespace(status_code=response.status, content=body, headers=response.headers)


def _kept_get(kept: dict[tuple, Any], target: Any, headers: dict, timeout: float) -> SimpleNamespace:
    """A ``GET`` of ``target`` over the calling thread's kept connection to its host, opened if need be.

    The connection is put back for the next request once its answer is
    read, unless the answer says ``Connection: close`` (RFC 9112 §9.3); on
    any raise it is closed. A kept connection that the server has closed
    since fails before any answer arrives: the request is then sent once
    more on a new connection, which no retry counts.
    """
    import http.client

    key = (threading.get_ident(), target.scheme, target.netloc)
    while True:
        connection = kept.pop(key, None)
        reused = connection is not None
        if not reused:
            connection = (
                http.client.HTTPSConnection(target.netloc, timeout=timeout, context=_tls_context())
                if target.scheme == "https"
                else http.client.HTTPConnection(target.netloc, timeout=timeout)
            )
        response = None
        try:
            connection.request("GET", target._replace(scheme="", netloc="").geturl(), headers=headers)
            response = connection.getresponse()
            answer = _answer(response)
        except BaseException as exc:
            connection.close()
            # RemoteDisconnected, an empty answer, is a ConnectionResetError
            if reused and response is None and isinstance(exc, (BrokenPipeError, ConnectionResetError)):
                continue
            raise
        if not response.will_close:  # http.client has closed a connection that will close
            kept[key] = connection
        return answer


@functools.cache
def _tls_context() -> Any:
    """The one TLS context of every HTTPS connection: the CA store is read once, not per connection."""
    import ssl

    return ssl.create_default_context()


def _api_pages(
    config: IngestConfig, attempt: Callable[[str], Any], sleep: Callable[[float], None]
) -> Iterator[tuple[str, Iterator[tuple[int, Any]]]]:
    """Yield ``(page url, fields of its records)`` in offset order until a short page.

    The first page is requested alone, so a one-page crawl or a bad URL
    makes one request; after it, ``_API_WINDOW`` pages are queued, each as
    its cached records or as ``attempt(url)``, the future of its first
    attempt. A cached short page ends the queueing, so a warm cache makes
    no request. The page at the head is retried, if need be, by waiting
    here and calling ``attempt(url)`` again, and cached here, so ``sleep``
    is called from this thread alone, and a page past the end, whose answer
    is discarded, is requested at most once and never cached. A lenient
    crawl tops the queue up as soon as the head page's records are known,
    so its cache write and the reading of its records overlap the next
    requests; a strict one tops it up only once the records are read, so a
    bad record fails before any page more than ``_API_WINDOW - 1`` past it
    is requested. The cache directory is made before the first page is
    written, so a crawl that caches no page makes none.
    """
    base = config.location.rstrip("/")
    cache_dir = Path(config.cache_dir) if config.cache_dir is not None else None
    keys = _field_keys(config.field_map)
    offsets = count(0, config.page_size)
    queued: deque[tuple[str, Any]] = deque()  # (url, records or future) of the pages ahead
    short_page_queued = cache_made = False

    def queue(width: int) -> None:
        nonlocal short_page_queued
        while len(queued) < width and not short_page_queued:
            url = f"{base}/api/taskrun?limit={config.page_size}&offset={next(offsets)}"
            page = _cached_page(cache_dir, url)
            short_page_queued = page is not None and len(page) < config.page_size
            queued.append((url, attempt(url) if page is None else page))

    queue(1)
    while True:
        url, page = queued.popleft()
        body = None
        if not isinstance(page, list):
            page, body = _retried(url, attempt, sleep, page.result())
        last = len(page) < config.page_size
        if not (last or config.strict):
            queue(_API_WINDOW)
        if body is not None and cache_dir is not None:
            if not cache_made:
                cache_dir.mkdir(parents=True, exist_ok=True)
                cache_made = True
            _write_cache(_cache_path(cache_dir, url), body)
        yield url, _json_fields(enumerate(page), keys)
        if last:
            return
        queue(_API_WINDOW)


def load_events(config: IngestConfig) -> IngestResult:
    """Dispatch to the right loader for the config's source kind."""
    if config.kind == "api":
        return fetch_api(config)
    return load_file(config)


def format_timestamp(timestamp) -> str:
    """Render an instant in the canonical CSV form: its UTC time and a trailing Z.

    A naive instant is UTC, as ``parse_timestamp`` reads it. Whole seconds
    give ``YYYY-MM-DDTHH:MM:SSZ``; any other instant keeps its microseconds
    (``.ffffff``), so re-reading the text gives it back.
    """
    if timestamp.tzinfo not in (None, timezone.utc):
        timestamp = timestamp.astimezone(timezone.utc)
    return timestamp.replace(tzinfo=None).isoformat() + "Z"


def write_events_csv(events: Iterable[TaskExecutionEvent], path: str | Path) -> int:
    """Write events in the canonical CSV schema, CRLF line ends; returns the row count.

    Written through ``_replacing``: if writing raises, a previous file at
    ``path`` stays as it was.

    Raises:
        ValueError: an event carries an empty id, as ``EventTable.from_events``
            rejects it; a loader would read such a row as anonymous or malformed.
    """
    count = 0
    with _replacing(Path(path)) as (temp,), temp.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CANONICAL_FIELDS)
        for event in events:
            ids = (event.volunteer_id, event.task_id, event.project_id)
            if not all(ids):
                raise ValueError(f"event with empty id field: {event!r}")
            writer.writerow((*ids, format_timestamp(event.timestamp)))
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
