"""CSV and JSON-lines ingestion: field mapping, tallies, strict mode."""

import csv
import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, strategies as st

from crowdmetrics.cli import build_parser
from crowdmetrics.events import (
    EventTable,
    InvalidTimestampError,
    _ISO_WIDTHS,
    build_snapshot,
    derive_profiles,
    from_micros,
    parse_canonical_timestamps,
    parse_timestamp,
    to_micros,
)
from crowdmetrics.ingest import (
    DEFAULT_FIELD_MAP,
    IngestConfig,
    MalformedRowError,
    SchemaError,
    load_events,
    load_file,
    load_registration_dates,
    write_events_csv,
)
from testkit import dedupe_oracle, ev, ts, volunteer_oracle


@pytest.fixture
def sample_events():
    return [
        ev("u1", "t1", "p1", "2014-01-01T10:00:00"),
        ev("u2", "t2", "p1", "2014-01-02T11:30:00"),
        ev("u1", "t3", "p2", "2014-01-03T09:15:00"),
    ]


#: A row whose timestamp field is over the limit, so ``csv.reader`` raises ``csv.Error`` for it.
OVER_LIMIT_ROW = "u2,t2,p1," + "x" * (csv.field_size_limit() + 1)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestCsv:
    def test_round_trip_through_canonical_csv(self, tmp_path, sample_events):
        path = tmp_path / "events.csv"
        assert write_events_csv(sample_events, path) == 3
        result = load_file(IngestConfig(kind="csv-file", location=str(path)))
        assert result.events == sample_events
        assert result.total_records == 3
        assert result.dropped_anonymous == result.skipped_malformed == 0

    def test_platform_export_header(self, tmp_path):
        path = tmp_path / "taskruns.csv"
        write_lines(
            path,
            [
                "user_id,task_id,project_id,finish_time",
                "88,900,12,2014-07-17T10:00:00Z",
            ],
        )
        result = load_file(IngestConfig(kind="csv-file", location=str(path)))
        event = result.events[0]
        assert event.volunteer_id == "88"
        assert event.project_id == "12"
        assert event.timestamp.hour == 10

    def test_extra_columns_and_any_order(self, tmp_path):
        path = tmp_path / "wide.csv"
        write_lines(
            path,
            [
                "finish_time,score,project_id,task_id,user_id",
                "2014-01-01T00:00:00,17,p1,t1,u1",
            ],
        )
        result = load_file(IngestConfig(kind="csv-file", location=str(path)))
        assert result.events[0].task_id == "t1"

    def test_custom_field_map(self, tmp_path):
        path = tmp_path / "custom.csv"
        write_lines(path, ["who,what,where,when", "u1,t1,p1,2014-01-01T00:00:00"])
        config = IngestConfig(
            kind="csv-file",
            location=str(path),
            field_map={
                "volunteer_id": "who",
                "task_id": "what",
                "project_id": "where",
                "timestamp": "when",
            },
        )
        assert load_file(config).events[0].volunteer_id == "u1"

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["user_id,task_id,when", "u1,t1,2014-01-01T00:00:00"])
        with pytest.raises(SchemaError):
            load_file(IngestConfig(kind="csv-file", location=str(path)))

    def test_empty_file_is_schema_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_file(IngestConfig(kind="csv-file", location=str(path)))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_file(IngestConfig(kind="csv-file", location=str(tmp_path / "nope.csv")))

    def test_lenient_tallies_account_for_every_record(self, tmp_path):
        path = tmp_path / "messy.csv"
        write_lines(
            path,
            [
                "volunteer_id,task_id,project_id,timestamp",
                "u1,t1,p1,2014-01-01T00:00:00",    # good
                ",t2,p1,2014-01-01T00:00:00",      # anonymous
                "u3,t3,p1,yesterday",              # bad timestamp
                "u4,t4",                           # short row
                "",                                # blank: not a record
                "u5,,p1,2014-01-01T00:00:00",      # missing task id
                "u6,t6,p2,2014-01-02T00:00:00",    # good
            ],
        )
        result = load_file(IngestConfig(kind="csv-file", location=str(path)))
        assert result.loaded == 2
        assert result.dropped_anonymous == 1
        assert result.skipped_malformed == 3
        assert result.total_records == 6
        assert result.loaded + result.dropped_anonymous + result.skipped_malformed == result.total_records

    def test_strict_raises_with_line_number(self, tmp_path):
        path = tmp_path / "messy.csv"
        write_lines(
            path,
            [
                "volunteer_id,task_id,project_id,timestamp",
                "u1,t1,p1,2014-01-01T00:00:00",
                "u3,t3,p1,yesterday",
            ],
        )
        with pytest.raises(MalformedRowError) as err:
            load_file(IngestConfig(kind="csv-file", location=str(path), strict=True))
        assert err.value.line_number == 3
        assert "yesterday" in str(err.value)

    def test_strict_still_drops_anonymous_silently(self, tmp_path):
        # anonymity is a data property, not a format error
        path = tmp_path / "anon.csv"
        write_lines(
            path,
            [
                "volunteer_id,task_id,project_id,timestamp",
                ",t1,p1,2014-01-01T00:00:00",
                "u2,t2,p1,2014-01-01T00:00:00",
            ],
        )
        result = load_file(IngestConfig(kind="csv-file", location=str(path), strict=True))
        assert result.loaded == 1
        assert result.dropped_anonymous == 1

    def test_whitespace_trimmed(self, tmp_path):
        path = tmp_path / "pad.csv"
        write_lines(
            path,
            [
                "volunteer_id,task_id,project_id,timestamp",
                " u1 , t1 , p1 ,2014-01-01T00:00:00",
            ],
        )
        event = load_file(IngestConfig(kind="csv-file", location=str(path))).events[0]
        assert (event.volunteer_id, event.task_id, event.project_id) == ("u1", "t1", "p1")

    def test_field_over_the_csv_limit_is_a_malformed_row(self, tmp_path):
        huge = "x" * 140_000  # csv's default field_size_limit is 131,072
        path = tmp_path / "huge.csv"
        write_lines(
            path,
            [
                "volunteer_id,task_id,project_id,timestamp",
                "u1,t1,p1,2014-01-01T00:00:00Z",
                f"u2,{huge},p1,2014-01-01T00:00:00Z",
                "u3,t3,p1,2014-01-02T00:00:00Z",
            ],
        )
        lenient = load_file(IngestConfig(kind="csv-file", location=str(path)))
        assert (lenient.loaded, lenient.skipped_malformed, lenient.total_records) == (2, 1, 3)
        assert [e.volunteer_id for e in lenient.events] == ["u1", "u3"]
        with pytest.raises(MalformedRowError, match="field larger than field limit") as err:
            load_file(IngestConfig(kind="csv-file", location=str(path), strict=True))
        assert err.value.line_number == 3

    def test_header_over_the_csv_limit_is_schema_error(self, tmp_path):
        path = tmp_path / "huge.csv"
        write_lines(path, ["volunteer_id,task_id,project_id," + "x" * 140_000])
        with pytest.raises(SchemaError, match="field larger than field limit"):
            load_file(IngestConfig(kind="csv-file", location=str(path)))


@pytest.mark.parametrize(
    "kind, lines",
    [
        ("csv-file", ["user_id,task_id,project_id,finish_time", "u1,t1,p1,2014-01-01T00:00:00Z"]),
        ("jsonl-file", ['{"user_id": "u1", "task_id": "t1", "project_id": "p1", "finish_time": "2014-01-01T00:00:00Z"}']),
    ],
    ids=["csv", "jsonl"],
)
def test_byte_order_mark_is_not_data(tmp_path, kind, lines):
    # Excel's "CSV UTF-8" export starts the file with U+FEFF
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    write_lines(plain, lines)
    marked.write_text("\ufeff" + plain.read_text(encoding="utf-8"), encoding="utf-8")
    results = [load_file(IngestConfig(kind=kind, location=str(path), strict=True)) for path in (plain, marked)]
    assert results[1].events == results[0].events
    assert results[1].total_records == results[0].total_records == 1


class TestCanonicalTimestamps:
    """The vectorised parse agrees with parse_timestamp wherever it answers."""

    @given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)))
    def test_canonical_values_take_the_fast_path(self, instant):
        raw = instant.replace(microsecond=0).isoformat() + "Z"
        micros, parsed = parse_canonical_timestamps([raw])
        assert parsed[0]
        assert from_micros(int(micros[0])) == parse_timestamp(raw)

    @given(st.tuples(*[st.integers(0, 9999)] + [st.integers(0, 99)] * 5))
    @example((2014, 2, 30, 0, 0, 0))
    @example((2014, 13, 1, 0, 0, 0))
    @example((2014, 7, 17, 23, 59, 60))
    @example((2014, 7, 17, 24, 0, 0))
    @example((1900, 2, 29, 0, 0, 0))
    @example((2000, 2, 29, 0, 0, 0))
    @example((0, 1, 1, 0, 0, 0))
    def test_canonical_shape_agrees_with_parse_timestamp(self, parts):
        raw = "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}Z".format(*parts)
        micros, parsed = parse_canonical_timestamps([raw])
        try:
            expected = parse_timestamp(raw)
        except InvalidTimestampError:
            assert not parsed[0]
        else:
            assert parsed[0]
            assert from_micros(int(micros[0])) == expected

    @pytest.mark.parametrize(
        "raw",
        [
            "2014-07-17T10:00:00Z ",
            " 2014-07-17T10:00:00Z",
            "2014-07-17T10:00:00z",
            "2014-07-17T10:00:00.5Z",
            "\uff12014-07-17T10:00:00Z",  # a fullwidth digit
            "2014-07-17T10:00:0\x00Z",
            "",
        ],
    )
    def test_other_forms_are_left_to_parse_timestamp(self, raw):
        _, parsed = parse_canonical_timestamps(["2014-07-17T10:00:00Z", raw])
        assert parsed.tolist() == [True, False]

    @pytest.mark.parametrize("raw", ["2014-07-17T12:00:00+02:00", "2014-07-17 10:00:00Z"])
    def test_offset_and_space_forms_take_the_fast_path(self, raw):
        micros, parsed = parse_canonical_timestamps(["2014-07-17T10:00:00Z", raw])
        assert parsed.tolist() == [True, True]
        assert from_micros(int(micros[1])) == parse_timestamp(raw) == ts("2014-07-17T10:00:00")

    @pytest.mark.parametrize("width", _ISO_WIDTHS)
    @given(
        st.tuples(
            st.builds(
                "{:04d}-{:02d}-{:02d}{}{:02d}:{:02d}:{:02d}".format,
                st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32), st.sampled_from("T t"),
                st.integers(0, 24), st.integers(0, 60), st.integers(0, 60),
            ),
            st.builds("{}{:06d}".format, st.sampled_from(".,"), st.integers(0, 999_999)),
            st.sampled_from("Zz"),
            st.builds("{}{:02d}:{:02d}".format, st.sampled_from("+-"), st.integers(0, 25), st.integers(0, 61)),
        )
    )
    @example(("2016-02-29T12:00:00", ".999999", "Z", "+23:59"))  # a leap day
    @example(("1900-02-29T00:00:00", ".000000", "Z", "-00:00"))  # not a leap day
    @example(("2000-02-29T23:59:59", ".000001", "Z", "-23:59"))
    @example(("0001-01-01T00:30:00", ".000000", "Z", "+01:00"))  # the offset moves it before year 1
    @example(("9999-12-31T23:30:00", ".999999", "Z", "-01:00"))  # ... or past year 9999
    @example(("2014-07-17T10:00:00", ".000000", "Z", "+24:00"))
    @example(("2014-07-17T10:00:00", ",500000", "Z", "+01:60"))  # Python reads +01:60 as +02:00; a decimal comma
    @example(("2014-07-17 10:00:00", ".123456", "z", "-00:00"))  # a space separator, a lowercase z
    def test_each_width_agrees_with_parse_timestamp(self, width, parts):
        """The kernel reads a value only as ``parse_timestamp`` does, and reads every in-scope value."""
        date_time, fraction, letter, offset = parts
        raw = {
            19: date_time,
            20: date_time + letter,
            25: date_time + offset,
            26: date_time + fraction,
            27: date_time + fraction + letter,
            32: date_time + fraction + offset,
        }[width]
        assert len(raw) == width
        micros, parsed = parse_canonical_timestamps([raw])
        try:
            expected = to_micros(parse_timestamp(raw))
        except InvalidTimestampError:
            assert not parsed[0]
            return
        in_scope = date_time[10] in "T " and not raw.endswith("z") and (width < 26 or fraction[0] == ".")
        if width in (25, 32):
            in_scope &= int(offset[1:3]) <= 23 and int(offset[4:]) <= 59
        assert parsed[0] == in_scope
        if parsed[0]:
            assert micros[0] == expected


class TestCsvColumnarEdges:
    """CSV loads equal a row-by-row parse, whichever path a timestamp takes."""

    def test_mixed_forms_match_parse_timestamp(self, tmp_path):
        stamps = [
            "2014-07-17T10:00:00Z",
            "2014-07-17T12:00:00+02:00",
            "2014-07-17 10:00:00",
            "2014-07-17T10:00:00.000001Z",
            "1969-12-31T23:59:59Z",
            "1969-12-31T23:59:59.999999",
            "0001-01-01T00:00:00Z",
            " 2014-07-17T10:00:00Z ",
            "2014-07-17T10:00:00",
            "2014-07-17 10:00:00Z",
            "2014-07-17 04:29:59-05:30",
            "2014-07-17 10:00:00.250000",
            "2014-07-17T10:00:00.999999+23:59",
            "2014-07-17 10:00:00.000000-00:00",
            "0001-01-01T23:00:00.000000+23:00",
            "9999-12-31T00:59:59.999999-23:00",
            "2014-07-17T10:00:00+01:60",
            "2014-07-17T10:00:00.123456z",
        ]
        path = tmp_path / "mixed.csv"
        write_lines(
            path,
            ["volunteer_id,task_id,project_id,timestamp"]
            + [f"u{i},t{i},p1,{stamp}" for i, stamp in enumerate(stamps)],
        )
        result = load_file(IngestConfig(kind="csv-file", location=str(path), strict=True))
        assert [e.timestamp for e in result.events] == [parse_timestamp(s) for s in stamps]

    @pytest.mark.parametrize(
        "bad", ["2014-02-30T00:00:00Z", "2014-13-01T00:00:00Z", "2014-07-17T23:59:60Z"]
    )
    def test_canonical_shaped_invalid_values(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        write_lines(
            path,
            [
                "volunteer_id,task_id,project_id,timestamp",
                'u1,t1,"p\n1",2014-01-01T00:00:00Z',  # one record on lines 2-3
                f"u2,t2,p1,{bad}",
                "u3,t3,p1,2014-01-02T00:00:00Z",
            ],
        )
        lenient = load_file(IngestConfig(kind="csv-file", location=str(path)))
        assert (lenient.loaded, lenient.skipped_malformed, lenient.total_records) == (2, 1, 3)
        with pytest.raises(MalformedRowError) as err:
            load_file(IngestConfig(kind="csv-file", location=str(path), strict=True))
        assert err.value.line_number == 4
        assert err.value.reason == f"unparseable timestamp: {bad!r}"

    @pytest.mark.parametrize(
        "rows, line, complaint",
        [
            (["u1,t1,p1,yesterday", "u2,t2"], 2, "unparseable"),
            (["u2,t2", "u1,t1,p1,yesterday"], 2, "columns"),
            (["u1,t1,p1,yesterday", OVER_LIMIT_ROW], 2, "unparseable"),
            ([OVER_LIMIT_ROW, "u1,t1,p1,yesterday"], 2, "field larger than field limit"),
        ],
    )
    def test_strict_reports_the_first_bad_row(self, tmp_path, rows, line, complaint):
        path = tmp_path / "bad.csv"
        write_lines(path, ["volunteer_id,task_id,project_id,timestamp"] + rows)
        with pytest.raises(MalformedRowError, match=complaint) as err:
            load_file(IngestConfig(kind="csv-file", location=str(path), strict=True))
        assert err.value.line_number == line

    def test_quoted_commas_and_trailing_nul_in_ids(self, tmp_path):
        path = tmp_path / "ids.csv"
        write_lines(
            path,
            [
                "volunteer_id,task_id,project_id,timestamp",
                '"a,b",t,"p,1",2014-01-02T00:00:00Z',
                "a,t,p,2014-01-01T00:00:00.000001Z",
                "a\x00,t\x00,p\x00,2014-01-01T00:00:00Z",
                "a,t\x00,p,2014-01-01T00:00:00Z",
                "a,t,p\x00,2014-01-01T00:00:00Z",
            ],
        )
        result = load_file(IngestConfig(kind="csv-file", location=str(path)))
        assert result.events == [
            ev("a,b", "t", "p,1", "2014-01-02T00:00:00"),
            ev("a", "t", "p", "2014-01-01T00:00:00.000001"),
            ev("a\x00", "t\x00", "p\x00", "2014-01-01T00:00:00"),
            ev("a", "t\x00", "p", "2014-01-01T00:00:00"),
            ev("a", "t", "p\x00", "2014-01-01T00:00:00"),
        ]
        snap = build_snapshot(result.events)
        assert snap.events.volunteer_ids == ("a", "a\x00", "a,b")
        assert list(snap.events) == dedupe_oracle(list(result.events))
        volunteers, _ = derive_profiles(snap)
        oracle = volunteer_oracle(snap.events)
        assert {v: p.first_project for v, p in volunteers.items()} == {
            v: fact["first_project"] for v, fact in oracle.items()
        }


class TestJsonl:
    def jsonl(self, tmp_path, records):
        path = tmp_path / "events.jsonl"
        write_lines(path, [json.dumps(r) for r in records])
        return str(path)

    def test_platform_field_names(self, tmp_path):
        location = self.jsonl(
            tmp_path,
            [{"user_id": 42, "task_id": 7, "project_id": 3, "finish_time": "2014-07-17T10:00:00Z"}],
        )
        result = load_file(IngestConfig(kind="jsonl-file", location=location))
        event = result.events[0]
        # numeric ids normalize to strings
        assert event.volunteer_id == "42"
        assert event.task_id == "7"
        assert event.project_id == "3"

    def test_canonical_fallback_names(self, tmp_path):
        location = self.jsonl(
            tmp_path,
            [{"volunteer_id": "u1", "task_id": "t1", "project_id": "p1", "timestamp": "2014-01-01T00:00:00"}],
        )
        result = load_file(IngestConfig(kind="jsonl-file", location=location))
        assert result.events[0].volunteer_id == "u1"

    def test_anonymous_variants_dropped(self, tmp_path):
        location = self.jsonl(
            tmp_path,
            [
                {"user_id": None, "task_id": "t1", "project_id": "p1", "finish_time": "2014-01-01T00:00:00"},
                {"task_id": "t2", "project_id": "p1", "finish_time": "2014-01-01T00:00:00"},
                {"user_id": "", "task_id": "t3", "project_id": "p1", "finish_time": "2014-01-01T00:00:00"},
                {"user_id": "u", "task_id": "t4", "project_id": "p1", "finish_time": "2014-01-01T00:00:00"},
            ],
        )
        result = load_file(IngestConfig(kind="jsonl-file", location=location))
        assert result.loaded == 1
        assert result.dropped_anonymous == 3

    def test_malformed_lines_tallied(self, tmp_path):
        path = tmp_path / "messy.jsonl"
        write_lines(
            path,
            [
                json.dumps({"user_id": "u1", "task_id": "t1", "project_id": "p1", "finish_time": "2014-01-01T00:00:00"}),
                "not json at all {{{",
                json.dumps([1, 2, 3]),
                json.dumps({"user_id": "u2", "task_id": "t2", "project_id": "p1", "finish_time": 1234}),
                "",
            ],
        )
        result = load_file(IngestConfig(kind="jsonl-file", location=str(path)))
        assert result.loaded == 1
        assert result.skipped_malformed == 3
        assert result.total_records == 4

    def test_strict_raises_with_line_number(self, tmp_path):
        path = tmp_path / "messy.jsonl"
        write_lines(
            path,
            [
                json.dumps({"user_id": "u1", "task_id": "t1", "project_id": "p1", "finish_time": "2014-01-01T00:00:00"}),
                "broken",
            ],
        )
        with pytest.raises(MalformedRowError) as err:
            load_file(IngestConfig(kind="jsonl-file", location=str(path), strict=True))
        assert err.value.line_number == 2

    def test_deeply_nested_line_is_malformed(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        good = {"user_id": "u1", "task_id": "t1", "project_id": "p1", "finish_time": "2014-01-01T00:00:00Z"}
        write_lines(path, ["[" * 100_000, json.dumps(good)])
        result = load_file(IngestConfig(kind="jsonl-file", location=str(path)))
        assert (result.loaded, result.skipped_malformed, result.total_records) == (1, 1, 2)
        with pytest.raises(MalformedRowError, match="recursion") as err:
            load_file(IngestConfig(kind="jsonl-file", location=str(path), strict=True))
        assert err.value.line_number == 1


class TestConfigAndDispatch:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            IngestConfig(kind="sqlite", location="x")

    def test_bad_page_size_rejected(self):
        with pytest.raises(ValueError):
            IngestConfig(kind="api", location="http://x", page_size=0)

    @pytest.mark.parametrize("url", ["notaurl", "ftp://x", "http://", "https:///api", "platform.test:8080"])
    def test_api_location_without_http_scheme_or_host_rejected(self, url):
        with pytest.raises(ValueError, match="must be http:// or https:// with a host"):
            IngestConfig(kind="api", location=url)

    @pytest.mark.parametrize("url", ["http://127.0.0.1:8765", "https://host/api", "HTTP://Platform.test/"])
    def test_api_location_with_http_scheme_and_host_accepted(self, url):
        assert IngestConfig(kind="api", location=url).location == url
        assert build_parser().parse_args(["validate", "--api-url", url]).api_url == url

    def test_incomplete_field_map_rejected(self):
        with pytest.raises(ValueError):
            IngestConfig(kind="csv-file", location="x", field_map={"task_id": "t"})

    def test_load_events_dispatches_by_kind(self, tmp_path, sample_events):
        path = tmp_path / "events.csv"
        write_events_csv(sample_events, path)
        result = load_events(IngestConfig(kind="csv-file", location=str(path)))
        assert result.events == sample_events

    def test_load_file_refuses_an_api_config(self):
        # the API is read by load_events; load_file raises before any request
        with pytest.raises(ValueError, match="load_file cannot handle source kind 'api'"):
            load_file(IngestConfig(kind="api", location="http://127.0.0.1:9"))

    def test_default_field_map_is_platform_schema(self):
        assert DEFAULT_FIELD_MAP["volunteer_id"] == "user_id"
        assert DEFAULT_FIELD_MAP["timestamp"] == "finish_time"


class TestWriteEventsCsv:
    def test_canonical_header_and_formatting(self, tmp_path, sample_events):
        path = tmp_path / "out.csv"
        write_events_csv(sample_events, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "volunteer_id,task_id,project_id,timestamp"
        assert lines[1] == "u1,t1,p1,2014-01-01T10:00:00Z"

    @given(st.lists(st.datetimes(timezones=st.just(timezone.utc)), min_size=1, max_size=5))
    @example([datetime(2014, 1, 1, 0, 0, 0, 300_000, tzinfo=timezone.utc)])
    @example([datetime(999, 12, 31, 23, 59, 59, tzinfo=timezone.utc)])
    def test_instants_survive_the_round_trip(self, tmp_path_factory, instants):
        events = [ev("u", f"t{i}", "p", instant) for i, instant in enumerate(instants)]
        path = tmp_path_factory.mktemp("round") / "out.csv"
        write_events_csv(events, path)
        assert load_file(IngestConfig(kind="csv-file", location=str(path), strict=True)).events == events

    @pytest.mark.parametrize(
        "tz, written",
        [
            (timezone(timedelta(hours=2)), "2014-02-01T10:00:00Z"),
            (timezone(timedelta(hours=-5)), "2014-02-01T17:00:00Z"),
            (None, "2014-02-01T12:00:00Z"),  # a naive instant is UTC
        ],
        ids=["+02:00", "-05:00", "naive"],
    )
    def test_instant_is_written_as_its_utc_form(self, tmp_path, tz, written):
        path = tmp_path / "out.csv"
        write_events_csv([ev("u", "t1", "p", datetime(2014, 2, 1, 12, tzinfo=tz))], path)
        assert path.read_text(encoding="utf-8").splitlines()[1] == f"u,t1,p,{written}"
        loaded = load_file(IngestConfig(kind="csv-file", location=str(path), strict=True)).events
        assert loaded[0].timestamp == datetime(2014, 2, 1, 12, tzinfo=tz or timezone.utc)

    def test_failed_write_leaves_the_previous_file(self, tmp_path, sample_events):
        path = tmp_path / "out.csv"
        write_events_csv(sample_events, path)
        before = path.read_bytes()

        def two_then_fail():
            yield from sample_events[:2]
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            write_events_csv(two_then_fail(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("empty", ["volunteer", "task"])
    def test_an_empty_id_is_refused_and_the_previous_file_kept(self, tmp_path, sample_events, empty):
        # such a row would reload as an anonymous or a malformed record, not as the event written
        path = tmp_path / "out.csv"
        write_events_csv(sample_events, path)
        before = path.read_bytes()
        bad = ev("" if empty == "volunteer" else "u9", "" if empty == "task" else "t9", "p1", "2014-01-05T10:00")
        with pytest.raises(ValueError, match="^event with empty id field: "):
            write_events_csv([*sample_events[:2], bad], path)
        with pytest.raises(ValueError, match="^event with empty id field: "):
            EventTable.from_events([bad])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_empty_collection_writes_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        assert write_events_csv([], path) == 0
        assert path.read_text(encoding="utf-8").strip() == "volunteer_id,task_id,project_id,timestamp"


class TestLoadRegistrationDates:
    def test_parses_ids_and_utc_instants(self, tmp_path):
        path = tmp_path / "reg.csv"
        write_lines(path, [
            "volunteer_id,registered_at",
            "u1,2013-06-01T08:00:00Z",
            "u2,2013-07-15 12:30:00+02:00",
        ])
        dates = load_registration_dates(path)
        assert dates == {"u1": ts("2013-06-01T08:00:00"), "u2": ts("2013-07-15T10:30:00")}

    def test_extra_columns_and_any_order(self, tmp_path):
        path = tmp_path / "reg.csv"
        write_lines(path, [
            "country,registered_at,volunteer_id",
            "pt,2013-06-01T08:00:00Z,u1",
        ])
        assert list(load_registration_dates(path)) == ["u1"]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text(
            "volunteer_id,registered_at\n\nu1,2013-06-01T08:00:00Z\n\n", encoding="utf-8"
        )
        assert list(load_registration_dates(path)) == ["u1"]

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "reg.csv"
        write_lines(path, ["volunteer_id,created", "u1,2013-06-01T08:00:00Z"])
        with pytest.raises(SchemaError, match="registered_at"):
            load_registration_dates(path)

    def test_empty_file_is_schema_error(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError, match="empty"):
            load_registration_dates(path)

    def test_byte_order_mark_is_not_data(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("\ufeffvolunteer_id,registered_at\nu1,2013-06-01T08:00:00Z\n", encoding="utf-8")
        assert load_registration_dates(path) == {"u1": ts("2013-06-01T08:00:00")}

    @pytest.mark.parametrize(
        "row, complaint",
        [
            ("u1", "columns"),
            (" ,2013-06-01T08:00:00Z", "missing volunteer_id"),
            ("u1,yesterday", "unparseable"),
            pytest.param("u1," + "x" * 140_000, "field larger than field limit", id="huge-field"),
            pytest.param("u1,0001-01-01T00:00:00+01:00", "out of range", id="out-of-range"),
        ],
    )
    def test_bad_rows_always_raise(self, tmp_path, row, complaint):
        path = tmp_path / "reg.csv"
        write_lines(path, ["volunteer_id,registered_at", row])
        with pytest.raises(MalformedRowError, match=complaint):
            load_registration_dates(path)

    def test_duplicate_id_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "reg.csv"
        write_lines(path, [
            "volunteer_id,registered_at",
            "u1,2013-06-01T08:00:00Z",
            "u1,2013-06-02T08:00:00Z",
        ])
        with pytest.raises(MalformedRowError, match="duplicate") as excinfo:
            load_registration_dates(path)
        assert excinfo.value.line_number == 3
