"""The CSV loader's two paths agree: the byte path and the ``csv.reader`` loop.

A file in the common dialect (ASCII, LF or CRLF line ends, records as wide
as the header, ids not empty once stripped of whitespace, the header, ids
and timestamps unquoted, and any other field either unquoted and quote-free
or quoted whole: opened at the field's start and closed just before a
comma, a line end or the quote of a ``""`` escape) is read by the byte
path; any other file declines to ``csv.reader``. Both paths strip ids and
timestamps of the whitespace ``str.strip()`` removes. Generated files lean
toward that dialect, put quoted cells holding commas, escapes and line ends
into the unused columns, and lean toward each decline trigger and padded
values. Wherever the byte path answers, it must give what the
``csv.reader`` loop gives: equal ``EventTable``s and tallies, or the same
exception, line and message. Every reason the byte path declines with is
met by a test below.
"""

import ast
import csv
import inspect
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from crowdmetrics import ingest
from crowdmetrics.ingest import (
    IngestConfig,
    MalformedRowError,
    SchemaError,
    _Decline,
    _load_csv_bytes,
    _load_csv_rows,
    load_file,
    write_events_csv,
)
from testkit import ev

FIELDS = ("user_id", "task_id", "project_id", "finish_time")
CANONICAL = ("volunteer_id", "task_id", "project_id", "timestamp")
VOLUNTEER_NAMES = ("user_id", "volunteer_id")
STAMP_NAMES = ("finish_time", "timestamp")


def mostly(clean, edges):
    """A strategy drawing from ``clean`` three times in four, else from ``edges``."""
    return st.integers(0, 3).flatmap(lambda k: clean if k else edges)


#: Ids of up to 8 bytes (uint64 keys) and of 9 to 32 (``S`` keys).
ids = st.sampled_from(["u1", "u2", "t1", "p1", "p2", "12345678", "v-000000001", "x" * 32])
volunteers = mostly(ids, st.just(""))  # an anonymous record
stamps = mostly(
    st.builds("2014-01-{:02d}T{:02d}:00:00Z".format, st.integers(1, 9), st.integers(0, 23)),
    st.sampled_from([
        # each zone, with and without a fraction, a space, "t" or "T" between date and time
        "2014-01-02 03:04:05", "2014-01-02T03:04:05", "2014-01-02 03:04:05Z", "2014-01-01T10:00:00+05:30",
        "2014-01-04 05:06:07.000008", "2014-01-04T05:06:07.123456Z", "2014-01-06T23:59:59.999999-00:30",
        "2014-01-03T00:00:00.5Z", "2014-01-07T08:00:00.000000z", "2014-01-08t09:10:11.25+01:00",
        # padded values, which both paths strip, and near misses
        " 2014-01-05T00:00:00Z ", "2014-01-05T00:00:00Z\t", "0999-06-01T00:00:00Z", "2014-02-30T00:00:00Z",
        "2014-01-01T24:00:00Z", "0001-01-01T00:00:00+01:00", "9999-12-31T23:30:00.000000-01:00",
        "2014-01-01T10:00:00+24:00", "2014-01-01T10:00:00+01:60", "2014-01-01T10:00:00.1234567Z",
        "2014-01-01T10:00:00+0100", "2014-01-01", "yesterday", " yesterday", "",
    ]),
)
#: Cells of the unused columns: quoted ones that ``csv.reader`` unquotes, and near misses it reads otherwise.
extras = mostly(ids, st.sampled_from([
    '"a,b"', '"a""b"', '"a\nb"', '"a\r\nb"', '"a\rb"', '""', '"{""answer"": ""1""}"',
    'a"b', '"a"b', '"a" ', '"a',
]))
#: One cell that makes the byte path decline (the empty id only when its row is not anonymous), or a
#: padded or blank one that both paths strip.
triggers = st.sampled_from([
    '"u1"', "a,b", "a\x00b", "ü", "u1\r", "", "w" * 33, " u1", "u1 ", "u1\x1c", "\tu1", " \x0b",
])


@st.composite
def csv_files(draw):
    header = list(draw(st.permutations(draw(st.sampled_from([FIELDS, CANONICAL])))))
    for _ in range(draw(st.integers(0, 2))):
        header.insert(draw(st.integers(0, len(header))), "extra")
    cells = [
        stamps if name in STAMP_NAMES else volunteers if name in VOLUNTEER_NAMES else extras if name == "extra" else ids
        for name in header
    ]
    rows = [[draw(cell) for cell in cells] for _ in range(draw(st.integers(0, 8)))]
    if rows and draw(st.booleans()):  # one decline trigger
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.integers(0, 3)):
            row[draw(st.integers(0, len(row) - 1))] = draw(triggers)
        elif draw(st.booleans()):
            row.pop()  # a short row
        else:
            row.append("more")  # a long row
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for line in [",".join(header)] + [",".join(row) for row in rows]:
        lines += [line] + [""] * draw(st.integers(0, 1))
    text = newline.join(lines) + newline * draw(st.booleans())
    return "\ufeff" * draw(st.booleans()) + text


def byte_path(config):
    with open(config.location, "rb") as handle:
        return _load_csv_bytes(handle, config, config.location)


def outcome(load, path, strict):
    """What a loader gives: the events, their column types and the tallies, or the error."""
    config = IngestConfig(kind="csv-file", location=str(path), strict=strict)
    try:
        result = load(config)
    except (MalformedRowError, SchemaError) as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    events = result.events
    types = [column.dtype for column in (events.volunteer, events.task, events.project, events.timestamp)]
    return events, types, result.total_records, result.dropped_anonymous, result.skipped_malformed


def assert_paths_agree(path, strict):
    """Compare the paths on one file; returns whether the byte path answered."""
    try:
        fast = outcome(byte_path, path, strict)
    except _Decline:
        return False
    assert fast == outcome(_load_csv_rows, path, strict)
    return True


@settings(max_examples=200, deadline=None)
@given(text=csv_files(), block=st.sampled_from([64, 256, 1 << 20]), strict=st.booleans())
def test_byte_path_agrees_with_csv_reader(tmp_path_factory, text, block, strict):
    path = tmp_path_factory.mktemp("paths") / "events.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(ingest, "_BLOCK_BYTES", block):  # small blocks: several per file
        event("byte path" if assert_paths_agree(path, strict) else "declined")


HEADER = "volunteer_id,task_id,project_id,timestamp"
ROWS = ["u1,t1,p1,2014-01-01T10:00:00Z", ",t2,p1,2014-01-01T10:00:00Z", "u2,t3,p2,2014-01-02 11:30:00"]


@pytest.mark.parametrize(
    "text",
    [
        HEADER,
        HEADER + "\r\n",
        "\r\n".join([HEADER, *ROWS]),
        "\ufeff" + "\n".join([HEADER, *ROWS, ""]),
        "timestamp,task_id,project_id,volunteer_id\r\n2014-01-01T10:00:00Z,t1,p1,u1\r\n",
    ],
    ids=["header-only", "header-only-crlf", "crlf-no-final-newline", "byte-order-mark", "crlf-id-last"],
)
@pytest.mark.parametrize("strict", [False, True])
def test_fast_dialect_files_take_the_byte_path(tmp_path, text, strict):
    path = tmp_path / "events.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert assert_paths_agree(path, strict)


def test_ids_of_both_key_widths_across_blocks(tmp_path):
    path = tmp_path / "events.csv"
    rows = [f"{v},{t},p,2014-01-0{day}T00:00:00Z" for day, v, t in [
        (1, "u1", "t" * 20), (2, "u" * 9, "t1"), (3, "u1", "t1"), (4, "a" * 32, "t" * 8),
    ]]
    path.write_text("\n".join([HEADER, *rows]), encoding="utf-8")
    with mock.patch.object(ingest, "_BLOCK_BYTES", 64):
        assert assert_paths_agree(path, strict=True)
        events = byte_path(IngestConfig(kind="csv-file", location=str(path))).events
    assert events.volunteer_ids == ("a" * 32, "u1", "u" * 9)
    assert events.task_ids == ("t1", "t" * 8, "t" * 20)


def test_quoted_cells_never_cut_inside_quotes(tmp_path):
    """A quoted cell across a block cut is read whole; one over a block declines, as a long line does."""
    path = tmp_path / "events.csv"
    config = IngestConfig(kind="csv-file", location=str(path))
    for cell, fits in [('"' + "a,\r\n" * 5 + '"', True), ('"' + "a,\n" * 30 + '"', False)]:
        rows = [f"u{day},t1,p1,2014-01-0{day}T00:00:00Z,{cell}" for day in range(1, 4)]
        path.write_text("\n".join([HEADER + ",info", *rows]), encoding="utf-8", newline="")
        with mock.patch.object(ingest, "_BLOCK_BYTES", 64):
            if fits:
                assert assert_paths_agree(path, strict=True)
            else:
                with pytest.raises(_Decline, match="^a record over 64 bytes$"):
                    byte_path(config)


def test_one_worker_reads_what_two_do_and_no_thread_is_left(tmp_path, monkeypatch):
    """Blocks are read on a pool of ``min(2, CPUs)`` threads; the result does not depend on how many."""
    path = tmp_path / "events.csv"
    rows = [f"u{i % 5},t{i},p{i % 3},2014-01-{i % 28 + 1:02d}T10:00:00Z" for i in range(60)]
    path.write_text("\n".join([HEADER, *rows, ",t0,p0,2014-01-01T10:00:00Z", "u1,t1,p1,yesterday"]), encoding="utf-8")
    declining = tmp_path / "dirty.csv"
    declining.write_text("\n".join([HEADER, *rows, "u1,,p1,2014-01-01T10:00:00Z"]), encoding="utf-8")
    results = {}
    for cpus in ({0}, {0, 1}):
        threads = threading.active_count()
        affinity = mock.patch.object(os, "sched_getaffinity", return_value=cpus)
        with mock.patch.object(ingest, "_BLOCK_BYTES", 64), affinity, \
                mock.patch("concurrent.futures.ThreadPoolExecutor", wraps=ThreadPoolExecutor) as pool:
            results[len(cpus)] = outcome(byte_path, path, strict=False)
            assert threading.active_count() == threads
            assert load_file(IngestConfig(kind="csv-file", location=str(declining))).total_records == 61
            assert threading.active_count() == threads
        assert [call.args for call in pool.call_args_list] == [(len(cpus),)] * 2
    assert results[1] == results[2]
    assert results[1][2:] == (62, 1, 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # as on macOS: the CPU count stands in
    with mock.patch.object(ingest, "_BLOCK_BYTES", 64), mock.patch.object(os, "cpu_count", return_value=3), \
            mock.patch("concurrent.futures.ThreadPoolExecutor", wraps=ThreadPoolExecutor) as pool:
        assert outcome(byte_path, path, strict=False) == results[2]
    assert pool.call_args.args == (2,)


def test_written_microseconds_load_back_in_bulk(tmp_path):
    """``write_events_csv``'s ``.ffffffZ`` instants are read by the kernel, never one at a time."""
    path = tmp_path / "events.csv"
    events = [ev("u1", "t1", "p1", "2014-01-01T10:00:00.000001"), ev("u2", "t2", "p1", "1969-12-31T23:59:59.999999")]
    write_events_csv(events, path)
    assert b".999999Z\r\n" in path.read_bytes()

    kernel = ingest._canonical_micros

    def every_value_read(buf, starts, widths):
        micros, parsed = kernel(buf, starts, widths)
        assert parsed.all(), "the kernel rejected a written value"
        return micros, parsed

    with mock.patch.object(ingest, "_canonical_micros", every_value_read):
        assert byte_path(IngestConfig(kind="csv-file", location=str(path), strict=True)).events == events


#: A data row, written after ``ROWS[0]``, that the byte path declines, and the reason it logs.
DECLINING_ROWS = {
    "quote": ('"u,1",t1,p1,2014-01-01T10:00:00Z', "a quoted id or timestamp"),
    "quoted-stamp": ('u1,t1,p1,"2014-01-01T10:00:00Z"', "a quoted id or timestamp"),
    "inner-quote": ('u1,t"1",p1,2014-01-01T10:00:00Z', "a quote inside an unquoted field"),
    "after-quote": ('u1,"t1"x,p1,2014-01-01T10:00:00Z', "text after a closing quote"),
    "unclosed": ('u1,t1,"p1,2014-01-01T10:00:00Z', "an unclosed quote"),
    "nul": ("u\x001,t1,p1,2014-01-01T10:00:00Z", "a NUL byte"),
    "non-ascii": ("ü1,t1,p1,2014-01-01T10:00:00Z", "a non-ASCII byte"),
    "lone-cr": ("u1,t1\r,p1,2014-01-01T10:00:00Z", "a CR not followed by LF"),
    "empty": ("u1,,p1,2014-01-01T10:00:00Z", "an empty id"),
    "blank": ("u1, \t,p1,2014-01-01T10:00:00Z", "an empty id"),
    "short": ("u1,t1,p1", "a row whose comma count differs from the header's"),
    "long": ("u1,t1,p1,2014-01-01T10:00:00Z,extra", "a row whose comma count differs from the header's"),
    "wide": ("u1,t1," + "p" * 33 + ",2014-01-01T10:00:00Z", "an id over 32 bytes"),
    "over-limit": ("u1,t1," + "p" * 140_000 + ",2014-01-01T10:00:00Z", "a record over the field size limit"),
    # the first block ends inside the record, and the second holds a megabyte more of it and no newline
    "over-block": ("u1,t1," + "p" * (2 << 20) + ",2014-01-01T10:00:00Z", "a record over 1048576 bytes"),
}
#: The reasons of the declines that other tests meet: a header's, and a strict load's.
QUOTED_HEADER = "a quote in the header"
STRICT_STAMP = "a timestamp that strict mode raises for"


def test_every_decline_reason_is_met_by_a_test():
    """Each ``_Decline`` message in ``ingest.py``, f-strings formatted with the module's constants, is expected here.

    So a reason that goes stays in no test, and a new reason cannot go untested.
    """
    messages = set()
    for node in ast.walk(ast.parse(inspect.getsource(ingest))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Decline":
            (message,) = node.args
            messages.add(eval(compile(ast.Expression(message), ingest.__file__, "eval"), vars(ingest)))
    assert messages == {reason for _, reason in DECLINING_ROWS.values()} | {QUOTED_HEADER, STRICT_STAMP}


class TestWhichPathRan:
    """``_load_csv`` logs which path read a file, and why the byte path declined."""

    def path_taken(self, caplog, path):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="crowdmetrics.ingest"):
            load_file(IngestConfig(kind="csv-file", location=str(path)))
        (message,) = [r.getMessage() for r in caplog.records if r.name == "crowdmetrics.ingest"]
        return message.removeprefix(f"{path}: ")

    def test_clean_files_take_the_byte_path(self, tmp_path, caplog):
        lf = tmp_path / "lf.csv"
        lf.write_text("\n".join([HEADER, *ROWS, ""]), encoding="utf-8")
        crlf = tmp_path / "crlf.csv"
        write_events_csv([ev("u1", "t1", "p1", "2014-01-01T10:00:00"), ev("u2", "t2", "p1", "2014-01-02")], crlf)
        assert b"\r\n" in crlf.read_bytes()
        pybossa = tmp_path / "pybossa.csv"
        pybossa.write_text(
            "id,project_id,task_id,user_id,finish_time,info\n"
            '1,p1,t1,u1,2014-01-01T10:00:00Z,"{""answer"": ""1"", ""tags"": [""a"", ""b""]}"\n'
            '2,p1,t2,,2014-01-01T11:00:00Z,"{""answer"": """"}"\n',
            encoding="utf-8",
        )
        assert self.path_taken(caplog, lf) == "read by the byte path"
        assert self.path_taken(caplog, crlf) == "read by the byte path"
        assert self.path_taken(caplog, pybossa) == "read by the byte path"

    @pytest.mark.parametrize("row, reason", DECLINING_ROWS.values(), ids=DECLINING_ROWS.keys())
    def test_other_files_decline_with_their_reason(self, tmp_path, caplog, row, reason):
        path = tmp_path / "dirty.csv"
        path.write_text("\n".join([HEADER, ROWS[0], row, ""]), encoding="utf-8", newline="")
        assert self.path_taken(caplog, path) == f"read by csv.reader: {reason}"

    @pytest.mark.parametrize(
        "row",
        [
            "u1, t1,p1,2014-01-01T10:00:00Z",
            "u1,t1,p1,2014-01-01T10:00:00Z ",
            " \t,t2,p1,2014-01-01T10:00:00Z",
            "\x0bu2\x1f,\x1ct3 ,\tp2\x0c,  2014-01-02 11:30:00\x1d\x1e",
            "u1,t1,p1, yesterday ",
        ],
        ids=["padded", "padded-stamp", "blank-user", "every-value", "padded-bad-stamp"],
    )
    def test_padded_ids_and_timestamps_take_the_byte_path(self, tmp_path, caplog, row):
        """Both paths strip ids and timestamps of the whitespace ``str.strip()`` removes, so padding never declines."""
        path, unpadded = tmp_path / "padded.csv", tmp_path / "unpadded.csv"
        for file, line in [(path, row), (unpadded, ",".join(cell.strip() for cell in row.split(",")))]:
            file.write_text("\n".join([HEADER, ROWS[0], line, ""]), encoding="utf-8", newline="")
        assert self.path_taken(caplog, path) == "read by the byte path"
        read = outcome(byte_path, path, strict=False)
        assert read == outcome(_load_csv_rows, path, strict=False) == outcome(byte_path, unpadded, strict=False)

    def test_a_bad_timestamp_declines_in_strict_mode(self, tmp_path, caplog):
        """Only the ``csv.reader`` loop knows the line of the record a strict load raises for."""
        path = tmp_path / "dirty.csv"
        path.write_text("\n".join([HEADER, ROWS[0], "u1,t1,p1,yesterday", ""]), encoding="utf-8")
        config = IngestConfig(kind="csv-file", location=str(path), strict=True)
        with caplog.at_level(logging.DEBUG, logger="crowdmetrics.ingest"), \
                pytest.raises(MalformedRowError, match=r":3: unparseable timestamp: 'yesterday'$"):
            load_file(config)
        assert caplog.messages == [f"{path}: read by csv.reader: {STRICT_STAMP}"]

    @pytest.mark.parametrize(
        "second, fourth, reason",
        [("u1,,p1", "u\x001,t1,p1", "an empty id"), ("u\x001,t1,p1", "u1,,p1", "a NUL byte")],
        ids=["empty-id-first", "nul-first"],
    )
    def test_the_first_decline_in_file_order_is_logged(self, tmp_path, caplog, second, fourth, reason):
        """A decline in a block's body (an empty id) and one met while cutting blocks (a NUL) keep file order."""
        path = tmp_path / "dirty.csv"

        def line(ids):  # 31 bytes and a newline: two records to each 64-byte block
            return f"{ids},2014-01-01T10:00:00Z,".ljust(31, "x")

        header = (HEADER + ",info").ljust(63, "o")  # the first block holds the header alone
        rows = [line("u1,t1,p1")] * 8
        with mock.patch.object(ingest, "_BLOCK_BYTES", 64):
            path.write_text("\n".join([header, *rows, ""]), encoding="utf-8", newline="")
            with path.open("rb") as handle:
                assert [len(block) for block in ingest._csv_blocks(handle)] == [64] * 5
            rows[0], rows[4] = line(second), line(fourth)  # into blocks 2 and 4
            path.write_text("\n".join([header, *rows, ""]), encoding="utf-8", newline="")
            assert self.path_taken(caplog, path) == f"read by csv.reader: {reason}"

    def test_a_record_over_a_block_is_read_under_a_raised_field_size_limit(self, tmp_path, caplog):
        """A block is cut only once more than ``_BLOCK_BYTES`` follow the last line end read, so a 1.5 MB record
        that starts in the first read ends in the second, and only the field size limit stands in its way."""
        path = tmp_path / "wide.csv"
        rows = [ROWS[0] + ",x", ROWS[2] + "," + "i" * 1_500_000, ROWS[1] + ",y"]
        path.write_text("\n".join([HEADER + ",info", *rows, ""]), encoding="utf-8")
        limit = csv.field_size_limit(4 << 20)
        try:
            assert self.path_taken(caplog, path) == "read by the byte path"
            assert assert_paths_agree(path, strict=False) and assert_paths_agree(path, strict=True)
        finally:
            csv.field_size_limit(limit)
        assert self.path_taken(caplog, path) == "read by csv.reader: a record over the field size limit"

    def test_a_header_over_the_field_size_limit_declines(self, tmp_path, caplog):
        """The first block's records are measured before its header is read, so ``csv.reader`` reports the header."""
        path = tmp_path / "dirty.csv"
        path.write_text("\n".join([HEADER + "," + "h" * 140_000, ROWS[0] + ",x", ""]), encoding="utf-8")
        with caplog.at_level(logging.DEBUG, logger="crowdmetrics.ingest"), pytest.raises(SchemaError, match="header"):
            load_file(IngestConfig(kind="csv-file", location=str(path)))
        assert caplog.messages == [f"{path}: read by csv.reader: a record over the field size limit"]

    def test_a_quote_in_the_header_declines(self, tmp_path, caplog):
        path = tmp_path / "dirty.csv"
        path.write_text("\n".join(['"volunteer_id",task_id,project_id,timestamp', ROWS[0], ""]), encoding="utf-8")
        assert self.path_taken(caplog, path) == f"read by csv.reader: {QUOTED_HEADER}"
