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
"""

import csv
import io
import json
import tempfile
from contextlib import nullcontext
from datetime import timedelta
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from crowdmetrics import ingest
from crowdmetrics.ingest import IngestConfig, _Decline
from crowdmetrics.report import ARTIFACT_NAMES
from test_cli_contract import ids, run, timestamps
from testkit import timestamp_oracle

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


def report(route, rows, workdir):
    """Exit code and artifacts of ``report`` on ``rows`` read through ``route``."""
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
        code, _ = run("report", *source, "--bootstrap-resamples", "20", "--seed", "3", "--out", str(out))
    artifacts = {name: (out / name).read_bytes() for name in ARTIFACT_NAMES} if code == 0 else None
    return code, artifacts


def assert_same_artifacts(log, transformed):
    for route in ("byte-path", "csv-reader", "jsonl", "api"):
        with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
            original = report(route, log, Path(first))
            assert report(route, transformed, Path(second)) == original, route


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
