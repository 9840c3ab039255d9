"""Metamorphic relations over the whole ``report``: input changes that the paper's definitions say cannot matter.

A relation needs no oracle: it runs ``report`` on a small random dirty log
(``tests/test_cli_contract.py``'s ids and timestamps) and on a transform of
it, through each loader route, and the seven artifacts must come out
byte-identical (or both runs fail with the same exit code). The routes are
the CSV file as ``load_file`` reads it (the byte path wherever it can),
the same file through the ``csv.reader`` loop (the byte path made to
decline), JSONL, and paged API records.

Row order: shuffled records give the same artifacts.

Offsets: each instant written in another form of the timestamp grammar
(``Z``, ``z``, a UTC offset, naive, a ``t`` or space separator, a fraction
trimmed of trailing zeros or zeros added) names the same instant. Values
that are not instants in the grammar are left as they are.

Padding: every id and timestamp padded on each side with up to 3 of the
whitespace characters ``str.strip()`` removes is the same value, and the
CSV byte path reads the padded file wherever it reads the original.

The relations below change the artifacts, and only where the definitions
say: each run's ``report.json`` is read as JSON and its tables as CSV rows,
and the original's, so edited, must equal the transform's.

Re-submission: copies of events (same ids and project, at an instant from
the original's to the latest event's) add only to ``metadata.events``' record
and duplicate tallies, and to ``platform.csv``'s duplicate count.

Exclusion: events of a new project, from new and existing volunteers, then
``--exclude-project`` of it, change only ``metadata.excluded_projects``, the
record tally and the fingerprint.

Renaming: a common prefix on every id keeps their order and changes only
the id cells; it takes every id past 8 bytes, so the byte path reads it
wherever it reads the original and the prefixed ids fit its 32 bytes.

Whole-day shift: every instant and an explicit ``--observation-end`` moved
by the same whole number of days change only the printed observation end
and the fingerprint.
"""

import csv
import io
import json
import tempfile
from contextlib import nullcontext
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

from hypothesis import assume, example, given, settings, strategies as st

from crowdmetrics import ingest
from crowdmetrics.ingest import IngestConfig, _Decline
from crowdmetrics.report import ARTIFACT_NAMES
from test_cli_contract import ids, run, timestamps
from testkit import timestamp_oracle

ROUTES = ("byte-path", "csv-reader", "jsonl", "api")
BASE = "http://platform.test"
FIELDS = ("user_id", "task_id", "project_id", "finish_time")
PAGE_SIZE = 4

#: The contract's ids without the ones at the CSV field size limit, which only slow a run.
short_ids = ids.filter(lambda value: len(value) < 64)
MAX_ROWS = 10
logs = st.lists(st.tuples(short_ids, short_ids, short_ids, timestamps), max_size=MAX_ROWS)
#: For each side of each value of a log: 0 to 3 ASCII characters that ``str.strip()`` removes, written unquoted.
paddings = st.lists(
    st.text(st.sampled_from(" \t\x0b\x0c\x1c\x1d\x1e\x1f"), max_size=3), min_size=8 * MAX_ROWS, max_size=8 * MAX_ROWS
)
#: A log the CSV byte path reads.
PLAIN_LOG = [("u1", "t1", "p1", "2014-01-01T10:00:00Z"), ("u2", "t1", "p1", "2014-01-02 10:00:00")]
#: A project id no drawn log holds.
EXCLUDED = "excluded-project"
#: Takes every id past 8 bytes, where the byte path keys ids as ``S`` strings, not ``uint64``.
PREFIX = "renamed-"
FIRST_INSTANT = datetime(1, 1, 1, tzinfo=timezone.utc)
LAST_INSTANT = datetime.max.replace(tzinfo=timezone.utc)
MICROSECOND = timedelta(microseconds=1)


@st.composite
def written(draw, instant):
    """``instant`` (an aware UTC datetime) in a form of the grammar drawn at random."""
    separator = draw(st.sampled_from("T t"))
    zone = draw(st.sampled_from(["Z", "z", "offset", "naive"]))
    minutes = draw(st.integers(-(23 * 60 + 59), 23 * 60 + 59)) if zone == "offset" else 0
    try:
        local = instant + timedelta(minutes=minutes)
    except OverflowError:  # the offset would take the local time out of years 1 to 9999
        local, minutes, zone = instant, 0, "Z"
    digits = f"{local.microsecond:06d}"
    if local.microsecond:
        fraction = "." + draw(st.sampled_from([digits, digits.rstrip("0")]))
    else:
        fraction = draw(st.sampled_from(["", ".0", ".000000"]))
    if zone == "offset":
        sign = "-" if minutes < 0 else "+"
        suffix = f"{sign}{abs(minutes) // 60:02d}:{abs(minutes) % 60:02d}"
    else:
        suffix = {"Z": "Z", "z": "z", "naive": ""}[zone]
    return (
        f"{local.year:04d}-{local.month:02d}-{local.day:02d}{separator}"
        f"{local.hour:02d}:{local.minute:02d}:{local.second:02d}{fraction}{suffix}"
    )


def rewritten(draw, log):
    """The log with each instant written in a drawn form; other values stay as they are."""
    rows = []
    for volunteer, task, project, stamp in log:
        instant = timestamp_oracle(stamp)
        rows.append((volunteer, task, project, stamp if instant is None else draw(written(instant))))
    return rows


def padded(log, pads):
    """The log with each id and timestamp between the next two of ``pads``."""
    pads = iter(pads)
    return [tuple(next(pads) + value + next(pads) for value in row) for row in log]


def csv_file(rows, workdir):
    """``rows`` written by ``csv.writer`` under a ``FIELDS`` header, as the CSV routes read them."""
    text = io.StringIO(newline="")
    csv.writer(text, lineterminator="\n").writerows([FIELDS, *rows])
    path = workdir / "events.csv"
    path.write_bytes(text.getvalue().encode("utf-8", "replace"))  # a lone surrogate becomes "?"
    return path


def byte_path_reads(rows, workdir):
    """Whether the CSV byte path reads ``rows`` rather than declining."""
    path = csv_file(rows, workdir)
    with path.open("rb") as handle:
        try:
            ingest._load_csv_bytes(handle, IngestConfig(kind="csv-file", location=str(path)), str(path))
        except _Decline:
            return False
    return True


def report(route, rows, workdir, *flags):
    """Exit code and artifacts of ``report`` on ``rows`` read through ``route``, with any further ``flags``."""
    records = [dict(zip(FIELDS, row)) for row in rows]
    patch = nullcontext()
    if route in ("byte-path", "csv-reader"):
        source = ["--input", str(csv_file(rows, workdir))]
        if route == "csv-reader":
            patch = mock.patch.object(ingest, "_load_csv_bytes", side_effect=_Decline("made to decline"))
    elif route == "jsonl":
        path = workdir / "events.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
        source = ["--input", str(path), "--format", "jsonl"]
    else:
        pages = {
            f"{BASE}/api/taskrun?limit={PAGE_SIZE}&offset={offset}": json.dumps(records[offset : offset + PAGE_SIZE])
            for offset in range(0, len(records) + 1, PAGE_SIZE)
        }

        def urlopen(url, timeout, opener, kept):
            return SimpleNamespace(status_code=200, content=pages[url].encode(), headers={})

        patch = mock.patch.object(ingest, "_urlopen", urlopen)
        source = ["--api-url", BASE, "--page-size", str(PAGE_SIZE)]
    out = workdir / "out"
    with patch:
        code, _ = run("report", *source, "--bootstrap-resamples", "20", "--seed", "3", "--out", str(out), *flags)
    artifacts = {name: (out / name).read_bytes() for name in ARTIFACT_NAMES} if code == 0 else None
    return code, artifacts


def assert_same_artifacts(log, transformed):
    for route in ROUTES:
        with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
            original = report(route, log, Path(first))
            assert report(route, transformed, Path(second)) == original, route


def kept_whole(row):
    """Whether ``csv_file`` keeps ``row`` one record: its ``csv.writer`` with "\\n" line ends
    leaves a CR unquoted, and ``csv.reader`` ends a record there."""
    return not any("\r" in value for value in row)


def is_event(row):
    """Whether every route loads ``row`` as an event: one CSV record, ids not blank once stripped
    and written to CSV as they are (no lone surrogate), and an instant in the grammar."""
    *names, stamp = row
    return kept_whole(row) and timestamp_oracle(stamp) is not None and all(
        name.strip() and name.encode("utf-8", "replace").decode("utf-8") == name for name in names
    )


def read(result):
    """A ``report`` result with ``report.json`` read as JSON, the tables as CSV rows and the rest as text."""
    code, artifacts = result
    if artifacts is None:
        return code, None
    parsed = {}
    for name, data in artifacts.items():
        text = data.decode("utf-8")
        if name.endswith(".json"):
            parsed[name] = json.loads(text)
        elif name.endswith(".csv"):
            parsed[name] = list(csv.reader(io.StringIO(text, newline="")))
        else:
            parsed[name] = text
    return code, parsed


def assert_changes_only(log, transformed, change, flags=(), transformed_flags=()):
    """On each route, ``log``'s artifacts as ``change`` edits them are ``transformed``'s (or both exit alike)."""
    for route in ROUTES:
        with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
            code, expected = read(report(route, log, Path(first), *flags))
            if expected is not None:
                change(expected)
            assert read(report(route, transformed, Path(second), *transformed_flags)) == (code, expected), route


def inserted(draw, log, rows):
    """``log`` with each of ``rows`` at a drawn position."""
    log = list(log)
    for row in rows:
        log.insert(draw(st.integers(0, len(log))), row)
    return log


@settings(max_examples=50)
@given(data=st.data(), log=logs)
def test_instants_in_other_forms_give_the_same_artifacts(data, log):
    assert_same_artifacts(log, rewritten(data.draw, log))


@settings(max_examples=50)
@given(data=st.data(), log=logs)
def test_shuffled_records_give_the_same_artifacts(data, log):
    assert_same_artifacts(log, data.draw(st.permutations(log)))


@settings(max_examples=50)
@given(log=logs, pads=paddings)
@example(log=PLAIN_LOG, pads=[" \t"] * 8 * MAX_ROWS)
def test_padded_ids_and_timestamps_give_the_same_artifacts(log, pads):
    transformed = padded(log, pads)
    assert_same_artifacts(log, transformed)
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        if byte_path_reads(log, Path(first)):
            assert byte_path_reads(transformed, Path(second))


@settings(max_examples=30)
@given(data=st.data(), log=logs)
def test_resubmitted_events_change_only_the_tallies(data, log):
    events = [(row, timestamp_oracle(row[3])) for row in log if is_event(row)]
    chosen = data.draw(st.lists(st.sampled_from(events), min_size=1, max_size=4)) if events else []
    latest = max((instant for _, instant in events), default=None)
    copies = []
    for (volunteer, task, project, _), instant in chosen:
        span = (latest - instant) // MICROSECOND
        # at the latest instant, a copy kept in place of its original would move that volunteer's last event
        later = instant + data.draw(st.just(span) | st.integers(0, span)) * MICROSECOND
        copies.append((volunteer, task, project, data.draw(written(later))))

    def change(artifacts):
        tallies = artifacts["report.json"]["metadata"]["events"]
        tallies["total_records"] += len(copies)
        tallies["duplicates_removed"] += len(copies)
        for row in artifacts["platform.csv"]:
            if row[0] == "duplicates_removed":
                row[1] = str(tallies["duplicates_removed"])

    assert_changes_only(log, inserted(data.draw, log, copies), change)


@settings(max_examples=30)
@given(data=st.data(), log=logs)
def test_an_excluded_project_changes_only_its_metadata(data, log):
    volunteers = [row[0] for row in log if is_event(row)] + ["new-volunteer-1", "new-volunteer-2"]
    instants = st.datetimes(timezones=st.just(timezone.utc)).flatmap(written)
    rows = st.tuples(
        st.sampled_from(volunteers), st.sampled_from(["t1", "t2", "new-task"]), st.just(EXCLUDED), instants
    )
    added = data.draw(st.lists(rows, min_size=1, max_size=4))

    def change(artifacts):
        metadata = artifacts["report.json"]["metadata"]
        metadata["excluded_projects"] = [EXCLUDED]
        metadata["events"]["total_records"] += len(added)
        metadata["fingerprint"] = mock.ANY

    assert_changes_only(log, inserted(data.draw, log, added), change, (), ("--exclude-project", EXCLUDED))


@settings(max_examples=30)
@given(log=logs)
@example(log=PLAIN_LOG)
def test_a_common_id_prefix_changes_only_the_id_cells(log):
    assume(all(map(kept_whole, log)))  # else the CSV routes read fragments of ids, which the prefix misses

    def renamed(value):
        return PREFIX + value.strip() if value.strip() else value  # a blank id stays blank

    transformed = [(*map(renamed, row[:3]), row[3]) for row in log]

    def change(artifacts):
        document = artifacts["report.json"]
        for key, rows in [("volunteer_id", document["volunteers"]), ("project_id", document["projects"])]:
            for row in rows:
                row[key] = PREFIX + row[key]
        for table in ("volunteers.csv", "projects.csv"):
            for row in artifacts[table][1:]:
                row[0] = PREFIX + row[0]

    assert_changes_only(log, transformed, change)
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        if byte_path_reads(log, Path(first)) and all(len(value) <= 32 for row in transformed for value in row[:3]):
            assert byte_path_reads(transformed, Path(second))


@settings(max_examples=30)
@given(data=st.data(), log=logs)
def test_a_whole_day_shift_changes_only_the_printed_instants(data, log):
    instants = [timestamp_oracle(row[3]) for row in log]
    valid = [instant for instant in instants if instant is not None]
    end = max(valid, default=datetime(2014, 1, 10, tzinfo=timezone.utc))
    end += data.draw(st.integers(0, min(timedelta(days=3), LAST_INSTANT - end) // MICROSECOND)) * MICROSECOND
    earliest = min(valid, default=end)
    bounds = -(earliest - FIRST_INSTANT).days, (LAST_INSTANT - end).days
    # some instant onto the eve of the Unix epoch, where a day number that truncates negative microseconds is a day off
    eves = [min(max((date(1969, 12, 31) - instant.date()).days, bounds[0]), bounds[1]) for instant in valid]
    shift = timedelta(days=data.draw(st.sampled_from(eves or [0]) | st.integers(*bounds)))
    transformed = [
        (*row[:3], row[3] if instant is None else data.draw(written(instant + shift)))
        for row, instant in zip(log, instants)
    ]

    def change(artifacts):
        metadata = artifacts["report.json"]["metadata"]
        metadata["observation_end"] = (end + shift).replace(tzinfo=None).isoformat() + "Z"
        metadata["fingerprint"] = mock.ANY

    flags = [("--observation-end", instant.isoformat()) for instant in (end, end + shift)]
    assert_changes_only(log, transformed, change, *flags)
