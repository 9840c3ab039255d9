#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs; takes a few seconds.

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that correct reports pass every
output check, that a corrupted artifact, a wrong label or a wrong count each
make the report count as failed (a non-zero ``error_rate``), that a traced
report yields every span and count, and that ``run.py`` exits non-zero
without a result when the checkout holds no sources. Exits 0 when all hold.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = {"volunteers": 400, "projects": 12, "skew": 1.0}
SEED = 20_000


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


CHECK_OUTPUTS = run.check_outputs


def tampered(edit):
    """A check_outputs that first applies ``edit`` to the artifact directory."""

    def check(out: Path, inputs):
        edit(out)
        return CHECK_OUTPUTS(out, inputs)

    return check


def flip_first_label(out: Path) -> None:
    path = out / "volunteers.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace("platform_regular", "platform_?").replace("platform_transient", "platform_?")
    path.write_text("".join(lines))


def check_longtail() -> None:
    bench = run.Bench("longtail_dirty_csv", SEED, TINY)
    try:
        bench.ledger.path.unlink(missing_ok=True)  # digests of an earlier selftest in this checkout
        bench.ledger.first = None
        for _ in range(2):
            report = bench.report("good")
            expect(not report.problems, f"a correct report failed: {report.problems}")
        expected = bench.inputs.expected
        expect(expected["dropped_anonymous"] > 0 and expected["duplicates_removed"] > 0, "no dirt generated")

        traced = bench.report("traced", traced=True)
        expect(not traced.problems, f"a traced report failed: {traced.problems}")
        expect(not traced.missing, f"missing spans: {traced.missing}")
        expect(traced.layers["ingest.skipped_malformed"] == expected["skipped_malformed"], "traced counts")
        for name in run.SPAN_SECONDS:
            if name != "ingest.api.http_wait_s":
                expect(traced.layers[name] > 0, f"no time in {name}")

        # (case, edit, whether the digest check may catch it too)
        cases = [
            ("corrupted artifact", lambda out: (out / "activity_ci.dat").write_text("corrupted\n"), True),
            ("wrong planted label", flip_first_label, False),
            ("missing artifact", lambda out: (out / "projects.csv").unlink(), False),
        ]
        good = bench.ledger.first
        for name, edit, by_digest in cases:
            bench.ledger.first = good if by_digest else None
            run.check_outputs = tampered(edit)
            try:
                report = bench.report("bad")
            finally:
                run.check_outputs = CHECK_OUTPUTS
            expect(bool(report.problems), f"a {name} passed the checks")
        bench.ledger.first = good
        bench.inputs.meta["expected"]["skipped_malformed"] += 1
        report = bench.report("bad")
        expect(bool(report.problems), "a wrong count passed the checks")
        bench.inputs.meta["expected"]["skipped_malformed"] -= 1
        expect(bench.failed == 4, f"{bench.failed} of {len(bench.reports)} reports failed, expected 4")
        print(f"longtail: error_rate {bench.failed / len(bench.reports):.3f} with 4 bad reports", flush=True)
    finally:
        bench.close()


def check_api() -> None:
    bench = run.Bench("api_crawl", SEED, dict(TINY, volunteers=60))
    try:
        report = bench.report("good", traced=True)
        expect(not report.problems, f"a correct crawl failed: {report.problems}")
        pages = bench.inputs.records // run.API_PAGE_SIZE + 1
        expect(report.layers["ingest.api.requests"] == pages, f"{report.layers['ingest.api.requests']} requests")
        expect(report.layers["ingest.api.cache_files"] == pages, "cache files")
        expect(report.layers["ingest.api.http_wait_s"] > 0, "no http span")
    finally:
        bench.close()
    expect(bench.server.proc.poll() is not None, "fixture server still running")


def check_without_sources() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "scale_csv", "--seed", "1", "--seconds", "1"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=120,
    )
    shutil.rmtree(bare)
    expect(done.returncode != 0, "run.py succeeded without sources")
    expect('"correct"' not in done.stdout, "run.py printed a result without sources")


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    check_longtail()
    check_api()
    check_without_sources()
    print("selftest ok")


if __name__ == "__main__":
    main()
