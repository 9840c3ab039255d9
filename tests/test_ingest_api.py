"""Paged API ingestion: paging, retries, backoff, caching.

Most tests drive fetch_api with a scripted stub session so failure modes are
exact and instant; one test runs a real HTTP server to prove the stub
assumptions hold for a live socket.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import pytest
import requests

from crowdmetrics import ingest
from crowdmetrics.events import EventTable
from crowdmetrics.ingest import (
    BACKOFF_BASE_SECONDS,
    MAX_API_ATTEMPTS,
    IngestConfig,
    MalformedRowError,
    NetworkError,
    SchemaError,
    fetch_api,
    load_events,
    write_events_csv,
)

BASE = "http://platform.test"


def record(i):
    return {
        "user_id": f"u{i % 7}",
        "task_id": f"t{i}",
        "project_id": f"p{i % 3}",
        "finish_time": f"2014-01-{(i % 27) + 1:02d}T06:00:00Z",
    }


class StubResponse:
    def __init__(self, payload, status=200):
        self._payload = payload
        self.status_code = status

    def json(self):
        return self._payload


class StubSession:
    """Replays a script: each url maps to a queue of responses/exceptions."""

    def __init__(self, script):
        self.script = {url: list(outcomes) for url, outcomes in script.items()}
        self.calls = []

    def get(self, url, timeout=30):
        self.calls.append(url)
        outcomes = self.script[url]
        outcome = outcomes.pop(0) if len(outcomes) > 1 else outcomes[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def page_url(offset, limit=100):
    return f"{BASE}/api/taskrun?limit={limit}&offset={offset}"


def config(**kwargs):
    return IngestConfig(kind="api", location=BASE, **kwargs)


class TestPaging:
    def test_stops_on_short_page(self):
        records = [record(i) for i in range(250)]
        session = StubSession(
            {
                page_url(0): [StubResponse(records[:100])],
                page_url(100): [StubResponse(records[100:200])],
                page_url(200): [StubResponse(records[200:])],
            }
        )
        result = fetch_api(config(), session=session, sleep=lambda s: None)
        assert result.loaded == 250
        assert session.calls == [page_url(0), page_url(100), page_url(200)]
        assert result.events[0].volunteer_id == "u0"
        assert result.events[249].task_id == "t249"

    def test_exact_multiple_fetches_one_empty_page(self):
        records = [record(i) for i in range(100)]
        session = StubSession(
            {
                page_url(0): [StubResponse(records)],
                page_url(100): [StubResponse([])],
            }
        )
        result = fetch_api(config(), session=session, sleep=lambda s: None)
        assert result.loaded == 100
        assert len(session.calls) == 2

    def test_page_size_in_url(self):
        session = StubSession({page_url(0, limit=10): [StubResponse([])]})
        fetch_api(config(page_size=10), session=session, sleep=lambda s: None)
        assert session.calls == [page_url(0, limit=10)]

    def test_trailing_slash_normalized(self):
        session = StubSession({page_url(0): [StubResponse([])]})
        cfg = IngestConfig(kind="api", location=BASE + "/")
        fetch_api(cfg, session=session, sleep=lambda s: None)
        assert session.calls == [page_url(0)]

    def test_non_list_page_is_schema_error(self):
        session = StubSession({page_url(0): [StubResponse({"error": "teapot"})]})
        with pytest.raises(SchemaError):
            fetch_api(config(), session=session, sleep=lambda s: None)

    def test_anonymous_and_malformed_tallied(self):
        page = [
            record(1),
            {"user_id": None, "task_id": "t", "project_id": "p", "finish_time": "2014-01-01T00:00:00"},
            {"user_id": "u", "task_id": "t", "project_id": "p", "finish_time": "not a date"},
            "not an object",
        ]
        session = StubSession({page_url(0): [StubResponse(page)]})
        result = fetch_api(config(), session=session, sleep=lambda s: None)
        assert (result.loaded, result.dropped_anonymous, result.skipped_malformed) == (1, 1, 2)
        assert result.total_records == 4

    def test_strict_mode_raises(self):
        bad = {"user_id": "u", "task_id": "t", "project_id": "p", "finish_time": "bad"}
        session = paged_session([record(1), bad, record(2), record(3)], 2)
        with pytest.raises(MalformedRowError) as err:
            fetch_api(config(page_size=2, strict=True), session=session, sleep=lambda s: None)
        assert (err.value.source, err.value.line_number) == (page_url(0, 2), 1)
        # the bad timestamp fails its page before the next page is requested
        assert session.calls == [page_url(0, 2)]

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            fetch_api(IngestConfig(kind="csv-file", location="x"))


def stamped(user, task, when):
    return {"user_id": user, "task_id": task, "project_id": "p", "finish_time": when}


#: Records every loader path must treat alike: 6 kept, 3 anonymous, 7 malformed.
DIRTY_RECORDS = [
    record(1),
    stamped(None, "t", "2014-01-01T00:00:00"),
    {"task_id": "t", "project_id": "p", "finish_time": "2014-01-01T00:00:00"},
    stamped("  ", "t", "2014-01-01T00:00:00"),
    [1, 2, 3],  # the first malformed record: JSONL line 5, API page 2 index 0
    "not an object",
    None,
    17,
    stamped("u", "t", "not a date"),
    stamped("u", "t", 1_400_000_000),
    stamped("u", "", "2014-01-01T00:00:00"),
    stamped(7, 8, "2014-01-01T00:00:00.300Z"),
    stamped("u", "t9", "2014-01-01T02:00:00.700+02:00"),
    stamped("u", "t9", "2014-01-01T00:00:00.000001"),
    record(2),
    record(3),
]


def paged_session(records, page_size):
    return StubSession(
        {
            page_url(offset, page_size): [StubResponse(records[offset:offset + page_size])]
            for offset in range(0, len(records) + 1, page_size)
        }
    )


class TestLoaderEquivalence:
    """The JSONL and API loaders share one record loop and return tables."""

    def load_both(self, tmp_path, strict=False):
        path = tmp_path / "events.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in DIRTY_RECORDS), encoding="utf-8")
        jsonl = load_events(IngestConfig(kind="jsonl-file", location=str(path), strict=strict))
        api = fetch_api(
            config(page_size=4, strict=strict), session=paged_session(DIRTY_RECORDS, 4), sleep=lambda s: None
        )
        return jsonl, api

    def test_dirty_records_give_equal_tables_and_tallies(self, tmp_path):
        jsonl, api = self.load_both(tmp_path)
        csv_path = tmp_path / "events.csv"
        write_events_csv(jsonl.events, csv_path)
        from_csv = load_events(IngestConfig(kind="csv-file", location=str(csv_path)))
        for result in (jsonl, api, from_csv):
            assert isinstance(result.events, EventTable)
        assert api.events == jsonl.events
        assert from_csv.events == jsonl.events
        assert [e.volunteer_id for e in jsonl.events] == ["u1", "7", "u", "u", "u2", "u3"]
        for result in (jsonl, api):
            assert (result.total_records, result.dropped_anonymous, result.skipped_malformed) == (16, 3, 7)

    def test_strict_errors_keep_their_locations(self, tmp_path):
        with pytest.raises(MalformedRowError) as from_jsonl:
            self.load_both(tmp_path, strict=True)
        assert from_jsonl.value.line_number == 5  # 1-based line
        session = paged_session(DIRTY_RECORDS, 4)
        with pytest.raises(MalformedRowError) as from_api:
            fetch_api(config(page_size=4, strict=True), session=session, sleep=lambda s: None)
        assert (from_api.value.source, from_api.value.line_number) == (page_url(4, 4), 0)
        assert from_jsonl.value.reason == from_api.value.reason == "expected a JSON object, got list"
        assert session.calls == [page_url(0, 4), page_url(4, 4)]


#: (user_id, task_id, project_id, finish_time) rows with every timestamp form
#: and the row faults all three loaders share. The first bad record is the
#: canonical-shaped invalid one, before the missing task id.
BLOCK_ROWS = [
    ("u1", "t1", "p1", "2014-01-01T00:00:00Z"),
    ("u2", "t2", "p1", "2014-01-02T03:04:05+02:00"),
    ("", "t3", "p1", "2014-01-01T00:00:00Z"),
    ("u3", "t3", "p2", "2014-02-30T00:00:00Z"),
    ("u1", "t4", "p2", "2014-01-03 10:00:00"),
    ("u4", "", "p1", "2014-01-01T00:00:00Z"),
    ("u2", "t5", "p3", "2014-01-04T00:00:00.250Z"),
    ("u5", "t6", "p3", "yesterday"),
    ("u5", "t7", "p1", "0001-01-01T00:00:00+01:00"),
    (" ", "t8", "p1", "2014-01-01T00:00:00Z"),
] + [(f"u{i % 4}", f"t{i}", f"p{i % 3}", f"2014-02-{i:02d}T12:00:00Z") for i in range(10, 28)] + [
    ("u9", "t9", "p9", " 2014-03-01T00:00:00Z"),
    ("u9", "t29", "p9", "2014-03-01T00:00:00.000001"),
]


class TestBlockSize:
    """Loads do not depend on how many timestamps are parsed at a time."""

    def load_all(self, tmp_path, strict):
        keys = ("user_id", "task_id", "project_id", "finish_time")
        records = [dict(zip(keys, row)) for row in BLOCK_ROWS]
        csv_path, jsonl_path = tmp_path / "events.csv", tmp_path / "events.jsonl"
        csv_path.write_text(
            "\n".join(",".join(row) for row in [keys, *BLOCK_ROWS]) + "\n", encoding="utf-8"
        )
        jsonl_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        loads = {
            "csv": lambda: load_events(IngestConfig(kind="csv-file", location=str(csv_path), strict=strict)),
            "jsonl": lambda: load_events(IngestConfig(kind="jsonl-file", location=str(jsonl_path), strict=strict)),
            "api": lambda: fetch_api(
                config(page_size=4, strict=strict), session=paged_session(records, 4), sleep=lambda s: None
            ),
        }
        outcomes = {}
        for name, load in loads.items():
            try:
                result = load()
            except MalformedRowError as exc:
                outcomes[name] = (exc.source, exc.line_number, exc.reason)
            else:
                tallies = (result.total_records, result.dropped_anonymous, result.skipped_malformed)
                outcomes[name] = (result.events, tallies)
        return outcomes

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_loads_do_not_depend_on_block_size(self, tmp_path, monkeypatch, strict):
        default = ingest._PARSE_CHUNK
        outcomes = {}
        for rows in (1, 7, default):
            monkeypatch.setattr("crowdmetrics.ingest._PARSE_CHUNK", rows)
            outcomes[rows] = self.load_all(tmp_path, strict)
        assert outcomes[1] == outcomes[7] == outcomes[default]
        loaded = outcomes[default]
        if strict:
            reason = "unparseable timestamp: '2014-02-30T00:00:00Z'"
            assert loaded == {
                "csv": (str(tmp_path / "events.csv"), 5, reason),
                "jsonl": (str(tmp_path / "events.jsonl"), 4, reason),
                "api": (page_url(0, 4), 3, reason),
            }
        else:
            assert loaded["csv"] == loaded["jsonl"] == loaded["api"]
            events, tallies = loaded["csv"]
            assert tallies == (30, 2, 4)
            assert len(events) == 24


class TestRetries:
    def test_connection_errors_retried_with_backoff(self):
        session = StubSession(
            {
                page_url(0): [
                    requests.ConnectionError("refused"),
                    requests.ConnectionError("refused"),
                    StubResponse([]),
                ]
            }
        )
        sleeps = []
        result = fetch_api(config(), session=session, sleep=sleeps.append)
        assert result.loaded == 0
        assert len(session.calls) == 3
        assert sleeps == [BACKOFF_BASE_SECONDS, BACKOFF_BASE_SECONDS * 2]

    def test_server_errors_retried(self):
        session = StubSession(
            {page_url(0): [StubResponse(None, status=503), StubResponse([record(1)])]}
        )
        result = fetch_api(config(), session=session, sleep=lambda s: None)
        assert result.loaded == 1
        assert len(session.calls) == 2

    def test_client_error_fails_immediately(self):
        session = StubSession({page_url(0): [StubResponse(None, status=404)]})
        with pytest.raises(NetworkError, match="404"):
            fetch_api(config(), session=session, sleep=lambda s: None)
        assert len(session.calls) == 1

    def test_gives_up_after_max_attempts(self):
        session = StubSession({page_url(0): [requests.ConnectionError("down")]})
        sleeps = []
        with pytest.raises(NetworkError, match="giving up"):
            fetch_api(config(), session=session, sleep=sleeps.append)
        assert len(session.calls) == MAX_API_ATTEMPTS
        assert sleeps == [
            BACKOFF_BASE_SECONDS * 2**i for i in range(MAX_API_ATTEMPTS - 1)
        ]

    def test_retry_logged(self, caplog):
        session = StubSession(
            {page_url(0): [requests.ConnectionError("refused"), StubResponse([])]}
        )
        with caplog.at_level("WARNING", logger="crowdmetrics.ingest"):
            fetch_api(config(), session=session, sleep=lambda s: None)
        assert any("retrying" in message for message in caplog.messages)


class TestCache:
    def test_pages_cached_and_replayed_without_network(self, tmp_path):
        records = [record(i) for i in range(30)]
        session = StubSession({page_url(0): [StubResponse(records)]})
        cfg = config(cache_dir=str(tmp_path))
        first = fetch_api(cfg, session=session, sleep=lambda s: None)
        assert len(session.calls) == 1
        assert any(tmp_path.iterdir())

        class ExplodingSession:
            def get(self, url, timeout=30):
                raise AssertionError("network must not be touched on a warm cache")

        second = fetch_api(cfg, session=ExplodingSession(), sleep=lambda s: None)
        assert second.events == first.events

    def test_truncated_cache_file_is_fetched_again(self, tmp_path, caplog):
        records = [record(i) for i in range(30)]
        cfg = config(cache_dir=str(tmp_path))
        fetch_api(cfg, session=StubSession({page_url(0): [StubResponse(records)]}), sleep=lambda s: None)
        (cached,) = tmp_path.iterdir()
        good = cached.read_text(encoding="utf-8")

        # a cut-off write, and a file nested past the recursion limit
        for damaged in (good[:50], "[" * 100_000):
            cached.write_text(damaged, encoding="utf-8")
            caplog.clear()
            session = StubSession({page_url(0): [StubResponse(records)]})
            with caplog.at_level("WARNING", logger="crowdmetrics.ingest"):
                result = fetch_api(cfg, session=session, sleep=lambda s: None)
            assert result.loaded == 30
            assert session.calls == [page_url(0)]
            assert any("unreadable cache file" in message for message in caplog.messages)
            assert json.loads(cached.read_text(encoding="utf-8")) == records
            assert list(tmp_path.iterdir()) == [cached]  # no temp file left behind

    def test_deeply_nested_response_is_a_failed_attempt(self, tmp_path):
        class TooDeepResponse(StubResponse):
            def json(self):
                raise RecursionError("maximum recursion depth exceeded while decoding a JSON array")

        session = StubSession({page_url(0): [TooDeepResponse(None)]})
        sleeps = []
        with pytest.raises(NetworkError, match="giving up"):
            fetch_api(config(cache_dir=str(tmp_path)), session=session, sleep=sleeps.append)
        assert len(session.calls) == MAX_API_ATTEMPTS
        assert len(sleeps) == MAX_API_ATTEMPTS - 1
        assert not any(tmp_path.iterdir())

    def test_cache_not_written_on_failure(self, tmp_path):
        session = StubSession({page_url(0): [StubResponse(None, status=404)]})
        with pytest.raises(NetworkError):
            fetch_api(config(cache_dir=str(tmp_path)), session=session, sleep=lambda s: None)
        assert not any(tmp_path.iterdir())


class PagedHandler(BaseHTTPRequestHandler):
    dataset = [record(i) for i in range(120)]

    def do_GET(self):
        parsed = urlparse(self.path)
        if parsed.path != "/api/taskrun":
            self.send_error(404)
            return
        query = parse_qs(parsed.query)
        limit = int(query["limit"][0])
        offset = int(query["offset"][0])
        body = json.dumps(self.dataset[offset : offset + limit]).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def live_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), PagedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join()
    server.server_close()


class TestLiveHttp:
    def test_real_roundtrip_over_sockets(self, live_server):
        cfg = IngestConfig(kind="api", location=live_server, page_size=50)
        result = load_events(cfg)
        assert result.loaded == 120
        assert result.events[0].volunteer_id == "u0"
        assert {e.project_id for e in result.events} == {"p0", "p1", "p2"}
