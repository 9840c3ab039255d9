"""Metamorphic relations over the whole ``report``: input changes that the paper's definitions say cannot matter.

A relation needs no oracle: it runs ``report`` on a small random dirty log
(``tests/test_cli_contract.py``'s ids and timestamps) and on a transform of
it, through each loader route, and the seven artifacts must come out
byte-identical (or both runs fail with the same exit code). The routes are
the CSV file as ``load_file`` reads it (the byte path wherever it can),
the same file through the ``csv.reader`` loop (the byte path made to
decline), JSONL, and paged API records.

Offsets: each instant written in another form of the timestamp grammar
(``Z``, ``z``, a UTC offset, naive, a ``t`` or space separator, a fraction
trimmed of trailing zeros or zeros added) names the same instant. Values
that are not instants in the grammar are left as they are.
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

from hypothesis import given, settings, strategies as st

from crowdmetrics import ingest
from crowdmetrics.ingest import _Decline
from crowdmetrics.report import ARTIFACT_NAMES
from test_cli_contract import ids, run, timestamps
from testkit import timestamp_oracle

BASE = "http://platform.test"
FIELDS = ("user_id", "task_id", "project_id", "finish_time")
PAGE_SIZE = 4

#: The contract's ids without the ones at the CSV field size limit, which only slow a run.
short_ids = ids.filter(lambda value: len(value) < 64)
logs = st.lists(st.tuples(short_ids, short_ids, short_ids, timestamps), max_size=10)


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


def report(route, rows, workdir):
    """Exit code and artifacts of ``report`` on ``rows`` read through ``route``."""
    records = [dict(zip(FIELDS, row)) for row in rows]
    patch = nullcontext()
    if route in ("byte-path", "csv-reader"):
        text = io.StringIO(newline="")
        csv.writer(text, lineterminator="\n").writerows([FIELDS, *rows])
        path = workdir / "events.csv"
        path.write_bytes(text.getvalue().encode("utf-8", "replace"))  # a lone surrogate becomes "?"
        source = ["--input", str(path)]
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


@settings(max_examples=50)
@given(data=st.data(), log=logs)
def test_instants_in_other_forms_give_the_same_artifacts(data, log):
    transformed = rewritten(data.draw, log)
    for route in ("byte-path", "csv-reader", "jsonl", "api"):
        with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
            original = report(route, log, Path(first))
            assert report(route, transformed, Path(second)) == original, route
