"""Paged PyBossa-style task-run API for the api_crawl workload.

    python fixture_server.py RECORDS_JSON PAGE_SIZE DELAY_MS

Serves ``GET /api/taskrun?limit=L&offset=O`` from the records file and
``GET /_stats`` with the task-run requests and body bytes served so far.
Prints ``port <n>`` once it listens on 127.0.0.1 and serves until it is
terminated.

It runs in a process of its own so that it does not share the crawler's
interpreter lock, and it is built to cost the crawler only the fixed
``DELAY_MS`` per response, which stands in for a network round trip: pages
of ``PAGE_SIZE`` records are serialised before the port is announced, the
connection is HTTP/1.1 keep-alive, and status line, headers and body leave
in one send with Nagle's algorithm off. Headers and body sent separately
stall each response on the client's delayed ACK (about 40 ms a page).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit


def _response(body: bytes, status: str = "200 OK") -> bytes:
    head = (
        f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


class FixtureServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, records: list, page_size: int, delay_s: float):
        super().__init__(("127.0.0.1", 0), Handler)
        self.records = records
        self.delay_s = delay_s
        self.pages = {}
        for offset in range(0, len(records) + 1, page_size):
            body = json.dumps(records[offset : offset + page_size]).encode("utf-8")
            self.pages[(page_size, offset)] = (_response(body), len(body))
        self.lock = threading.Lock()
        self.requests = 0
        self.body_bytes = 0

    def page(self, limit: int, offset: int) -> tuple[bytes, int]:
        cached = self.pages.get((limit, offset))
        if cached is not None:
            return cached
        body = json.dumps(self.records[offset : offset + limit]).encode("utf-8")
        return _response(body), len(body)


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_GET(self) -> None:
        server = self.server
        url = urlsplit(self.path)
        if url.path == "/_stats":
            with server.lock:
                stats = {"requests": server.requests, "body_bytes": server.body_bytes}
            self.wfile.write(_response(json.dumps(stats).encode("utf-8")))
            return
        if url.path != "/api/taskrun":
            self.wfile.write(_response(b'{"error": "not found"}', "404 Not Found"))
            return
        query = parse_qs(url.query)
        try:
            limit = int(query["limit"][0])
            offset = int(query.get("offset", ["0"])[0])
        except (KeyError, ValueError):
            self.wfile.write(_response(b'{"error": "bad query"}', "400 Bad Request"))
            return
        response, body_bytes = server.page(limit, offset)
        time.sleep(server.delay_s)
        self.wfile.write(response)
        with server.lock:
            server.requests += 1
            server.body_bytes += body_bytes

    def log_message(self, *args) -> None:
        pass


def main(argv: list[str]) -> None:
    records_path, page_size, delay_ms = argv
    with open(records_path, encoding="utf-8") as handle:
        records = json.load(handle)
    server = FixtureServer(records, int(page_size), float(delay_ms) / 1000.0)
    print(f"port {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main(sys.argv[1:])
