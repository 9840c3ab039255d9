"""The README's exit-code contract, fuzzed through ``cli.main`` in process.

Generated CSV and JSONL files lean toward what real exports get wrong:
quotes, CRLF, blank lines, short rows, NUL, a byte-order mark, padded and
non-ASCII ids, lone-surrogate ``\\uXXXX`` escapes, fields at the CSV size
limit, deep JSON, out-of-range and offset timestamps, and re-submissions.
Whatever the bytes, ``validate``, ``ingest`` and ``report`` end in exit 0 or
2 (never a traceback), lenient tallies account for every record, ``ingest``
writes a CSV that loads back to the source's snapshot, and a ``report`` that
succeeds wrote every artifact.
"""

import csv
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crowdmetrics.cli import main
from crowdmetrics.events import EmptyDatasetError, build_snapshot
from crowdmetrics.ingest import IngestConfig, load_events
from crowdmetrics.report import ARTIFACT_NAMES

FIELDS = ("user_id", "task_id", "project_id", "finish_time")
CANONICAL = ("volunteer_id", "task_id", "project_id", "timestamp")
FIELD_LIMIT = csv.field_size_limit()

def mostly(clean, *edges):
    """A strategy drawing from ``clean`` three times in four, else from the edge cases."""
    return st.integers(0, 3).flatmap(lambda k: clean if k else st.one_of(*edges))


#: Small pools, so (volunteer, task) pairs recur as re-submissions.
ids = mostly(
    st.sampled_from(["u1", "u2", "t1", "t2", "p1", "p2"]),
    st.sampled_from([
        " u1 ", "u1\t", "", "  ", "\u00a0", "ü", "用户", "\x00", "a\x00b", '"q"', 'a"b', "a,b",
        "line\nbreak", "cr\rid", "\ufeffu1", "\ud800", "x\udfffy", "\U0001f600",
    ]),
    st.sampled_from([FIELD_LIMIT - 1, FIELD_LIMIT, FIELD_LIMIT + 1]).map(lambda n: "h" * n),
    st.text(max_size=4),
)
timestamps = mostly(
    st.builds(
        "2014-01-{:02d}T{:02d}:00:00{}".format,
        st.integers(1, 9), st.integers(0, 23), st.sampled_from(["Z", "", "+02:00", "-11:00"]),
    ),
    st.sampled_from([
        "2014-01-02 03:04:05", "2014-01-01T10:00:00+05:30", "2014-01-03T00:00:00.5Z",
        "2014-03-01T00:00:00-23:59", "2014-01-01T00:00:00z", " 2014-01-05T00:00:00Z ",
        "0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-05:00", "0999-06-01T00:00:00Z",
        "2014-02-30T00:00:00Z", "2014-01-01T24:00:00Z", "yesterday", "",
        "\uff12\uff10\uff11\uff14-01-01T00:00:00Z", "2014-01-01T00:00:00\ud800",
    ]),
)
NESTED = [[]]
for _ in range(200):
    NESTED = [NESTED]
json_values = st.one_of(
    ids, timestamps, st.none(), st.booleans(), st.integers(-10, 10),
    st.sampled_from([1.5, float("nan"), float("inf"), 10**40, {"k": "v"}, NESTED]),
)
#: Lines no record can come from; the deep ones overflow the JSON decoder's stack.
DEEP = "[" * 100_000 + "]" * 100_000
BAD_LINES = ["{bad", "[1]", '"text"', "null", "  ", DEEP, '{"user_id": ' + DEEP + "}"]


def with_blank_lines(draw, lines):
    spaced = []
    for line in lines:
        spaced += [line] + [""] * draw(st.integers(0, 1))
    return spaced


@st.composite
def csv_bytes(draw):
    header = list(draw(st.permutations(draw(st.sampled_from([FIELDS, CANONICAL])))))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "extra")
    if draw(st.integers(0, 9)) == 0:
        header.pop(draw(st.integers(0, len(header) - 1)))  # a schema error
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        row = [draw(timestamps if name in ("finish_time", "timestamp") else ids) for name in header]
        if draw(st.integers(0, 7)) == 0:
            row = row[: draw(st.integers(0, len(row)))]  # a short row
        rows.append(row)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    if draw(st.integers(0, 4)):
        text = io.StringIO(newline="")
        csv.writer(text, lineterminator=newline).writerows([header, *rows])
        lines = text.getvalue().split(newline)
    else:  # unquoted, so quotes, commas and line breaks in values break the rows
        lines = [",".join(row) for row in [header, *rows]]
    # a lone surrogate becomes bytes that are not UTF-8, or else a "?"
    errors = draw(st.sampled_from(["surrogatepass", "replace", "replace", "replace"]))
    return newline.join(with_blank_lines(draw, lines)).encode("utf-8", errors)


@st.composite
def jsonl_bytes(draw):
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(BAD_LINES)))
            continue
        record = {}
        for name in draw(st.sampled_from([FIELDS, CANONICAL])):
            if draw(st.integers(0, 11)):  # else the field is missing
                stamp = name in ("finish_time", "timestamp")
                record[name] = draw(json_values if kind == 1 else timestamps if stamp else ids)
        # ensure_ascii writes a lone surrogate as a \uXXXX escape, else as bytes that are not UTF-8
        lines.append(json.dumps(record, ensure_ascii=draw(st.booleans())))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(with_blank_lines(draw, lines) + [""]).encode("utf-8", "surrogatepass")


def run(*argv):
    """Exit code and stdout of ``main``, with streams that encode as a terminal's do."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(list(argv))
    stdout.seek(0)
    return code, stdout.read()


def snapshot_or_empty(config):
    try:
        return build_snapshot(load_events(config).events)
    except EmptyDatasetError:
        return None


TALLY = re.compile(r"loaded (\d+) of (\d+) records \(dropped (\d+) anonymous, skipped (\d+) malformed\)")


@pytest.mark.parametrize("fmt, files", [("csv", csv_bytes()), ("jsonl", jsonl_bytes())])
@settings(max_examples=25)
@given(data=st.data(), bom=st.booleans(), exclude=st.sampled_from([(), ("--exclude-project", "p1")]))
def test_any_input_exits_zero_or_two(fmt, files, data, bom, exclude):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / f"events.{fmt}"
        path.write_bytes(b"\xef\xbb\xbf" * bom + data.draw(files))
        read = ("--input", str(path), "--format", fmt)

        validated, _ = run("validate", *read)
        assert validated in (0, 2)

        out_csv = Path(workdir) / "ingested.csv"
        ingested, stdout = run("ingest", *read, "--out", str(out_csv))
        assert ingested in (0, 2)
        if ingested == 0:
            loaded, total, dropped, skipped = map(int, TALLY.search(stdout).groups())
            assert loaded + dropped + skipped == total
            if validated == 0:
                assert skipped == 0
            kind = "csv-file" if fmt == "csv" else "jsonl-file"
            source_snapshot = snapshot_or_empty(IngestConfig(kind=kind, location=str(path)))
            assert snapshot_or_empty(IngestConfig(kind="csv-file", location=str(out_csv))) == source_snapshot

        out_dir = Path(workdir) / "out"
        reported, _ = run("report", *read, *exclude, "--bootstrap-resamples", "20", "--out", str(out_dir))
        assert reported in (0, 2)
        if reported == 0:
            assert sorted(p.name for p in out_dir.iterdir()) == sorted(ARTIFACT_NAMES)
            json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
