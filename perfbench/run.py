#!/usr/bin/env python3
"""Benchmark ``crowdmetrics report`` end to end, one fresh interpreter per run.

    python3 perfbench/run.py --workload scale_csv --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The program under test is that
checkout's ``src/``: every report is a new ``python -c`` process calling
``crowdmetrics.cli.main(["report", ...])`` with ``PYTHONPATH=src``, so no
installed console script is needed. Inputs, artifacts, traces and results go
under ``.crowdbench/`` in the checkout.

Users run ``report`` once per export or crawl and pay for a fresh process
each time, so the benchmark is a closed loop with one client: reports run
one after another until ``--seconds`` of reports have been measured, and
at least ``MIN_REPORTS`` of them. The first run of a workload in a checkout
makes one unmeasured warm-up report, so bytecode and page caches start alike
on every commit.

``--trace 0`` times whole report processes from outside and prints the
end-to-end metrics: ``wall_s`` (spawn to exit, all seven artifacts written),
``records_per_s`` (input records / ``wall_s``), ``peak_rss_mb`` (of that
child alone, from ``wait4``), each the median over the run's reports, and
``setup_s``, the median of ``SETUP_STARTS`` cold starts of a fresh
interpreter importing ``crowdmetrics.cli``.

``--trace 1`` alternates an untraced report with one run through
``traced_report.py`` and prints the per-layer metrics: time and peak RSS of
each layer's spans, the counts each layer reports, and ``trace.overhead_s``.

Every report is checked: exit code 0; the seven artifacts; the counts in
``report.json`` against those recorded when the input was generated; each
class table summing to the volunteer count; every planted label recovered on
the synthetic workloads; and the SHA-256 of each artifact equal to that of
the first report of the same workload and seed in this checkout. A report
failing any check counts as failed, and ``error_rate`` is failed /
attempted. Digests that differ from the reference digests of
``baseline.json`` are reported, not failed, because a change may alter the
artifact bytes on purpose.

The last stdout line is the JSON result; a summary of every metric by name,
with quartiles and sample counts, the machine, the commit and the digests
goes to stderr and to ``.crowdbench/results/``.

Not measured: the JSONL file loader, API retries (their real 0.5 s backoff
cannot be shortened through the CLI) and the ``metrics`` subcommand.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".crowdbench"
BASELINE = HERE / "baseline.json"

ARTIFACTS = (
    "report.json",
    "volunteers.csv",
    "projects.csv",
    "platform.csv",
    "ecdf_recruitment.dat",
    "ecdf_computing.dat",
    "activity_ci.dat",
)
CLI = "import sys; from crowdmetrics.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_STARTS = 6
MIN_REPORTS = 2  # untraced; a median of one report is too noisy even when it outlasts --seconds
CHILD_TIMEOUT_S = 150.0
API_PAGE_SIZE = 100
API_DELAY_MS = 5

#: name -> (input builder, its size parameters); the seeded builders also take the seed
WORKLOADS = {
    "scale_csv": (workloads.build_scale, {}),
    "longtail_dirty_csv": (workloads.build_longtail, {"volunteers": 100_000, "projects": 300, "skew": 1.0}),
    "api_crawl": (workloads.build_api, {"volunteers": 15_000, "projects": 300, "skew": 1.0}),
}

#: per-layer metric -> span whose summed duration (s) or final RSS peak (MB) it reports
SPAN_SECONDS = {
    "ingest.load_events_s": "ingest.load_events",
    "ingest.api.http_wait_s": "ingest.api.http",
    "events.build_snapshot_s": "events.build_snapshot",
    "events.derive_profiles_s": "events.derive_profiles",
    "volunteers.compute_volunteer_metrics_s": "volunteers.compute_volunteer_metrics",
    "projects.compute_project_balances_s": "projects.compute_project_balances",
    "stats.bootstrap_mean_ci_s": "stats.bootstrap_mean_ci",
    "stats.gini_s": "stats.gini",
    "stats.ecdf_s": "stats.ecdf",
    "stats.class_distribution_s": "stats.class_distribution",
    "report.write_report_s": "report.write_report",
}
SPAN_RSS = {
    "ingest.load_events.rss_peak_mb": "ingest.load_events",
    "events.build_snapshot.rss_peak_mb": "events.build_snapshot",
    "events.derive_profiles.rss_peak_mb": "events.derive_profiles",
    "stats.bootstrap_mean_ci.rss_peak_mb": "stats.bootstrap_mean_ci",
    "report.write_report.rss_peak_mb": "report.write_report",
}
#: counts read from the wrapped calls, and the input fact each must equal
TRACED_COUNTS = {
    "ingest.records_total": "total_records",
    "ingest.events_loaded": None,
    "ingest.dropped_anonymous": "dropped_anonymous",
    "ingest.skipped_malformed": "skipped_malformed",
    "events.duplicates_removed": "duplicates_removed",
    "events.snapshot_events": "analyzed",
    "events.volunteers": "volunteers",
    "events.projects": "projects",
    "stats.bootstrap.n": None,
    "stats.bootstrap.distinct_values": None,
    "stats.bootstrap.draws": None,
}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    # Children cache bytecode, as an installed package has it, whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], log_path: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, its own peak RSS in MB)."""
    with log_path.open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def cold_start_seconds(log_path: Path) -> float:
    code, wall, _ = spawn([sys.executable, "-c", "import crowdmetrics.cli"], log_path)
    if code != 0:
        raise RuntimeError(f"importing crowdmetrics.cli failed, see {log_path}")
    return wall


class ApiServer:
    """The fixture server process, with its request counters read over HTTP."""

    def __init__(self, records: Path, log_path: Path):
        self._log = log_path.open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "fixture_server.py"), str(records), str(API_PAGE_SIZE), str(API_DELAY_MS)],
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("port "):
            self.close()
            raise RuntimeError(f"fixture server did not start, see {log_path}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def stats(self) -> dict:
        with self._opener.open(f"{self.url}/_stats", timeout=30) as response:
            return json.load(response)

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


@dataclass
class Report:
    label: str
    wall_s: float
    rss_mb: float
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)
    spans: dict[str, list[float]] = field(default_factory=dict)  # name -> [total s, self s, RSS MB]
    missing: list[str] = field(default_factory=list)


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(out: Path, inputs: workloads.Inputs) -> list[str]:
    """Problems with one report's artifacts; empty when they are correct."""
    missing = [name for name in ARTIFACTS if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    problems = []
    expected = inputs.expected
    try:
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        shown = dict(doc["metadata"]["events"])
        shown["volunteers"] = doc["platform"]["volunteers"]
        shown["projects"] = doc["platform"]["projects"]
        for key, value in expected.items():
            if shown.get(key) != value:
                problems.append(f"report.json {key} = {shown.get(key)!r}, expected {value}")
        for dimension, table in doc["platform"]["classes"].items():
            total = sum(row["count"] for row in table.values())
            if total != expected["volunteers"]:
                problems.append(f"{dimension} classes sum to {total}, not {expected['volunteers']}")
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        problems.append(f"report.json unreadable: {type(exc).__name__}: {exc}")
    labels_path = inputs.path("labels")
    if labels_path is not None:
        problems += check_labels(out / "volunteers.csv", labels_path)
    return problems


def check_labels(volunteers_csv: Path, labels_csv: Path) -> list[str]:
    """Every planted (platform, project) class must be the one reported."""
    planted = {}
    with labels_csv.open(encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            volunteer, platform_class, project_class = line.rstrip("\n").split(",")
            planted[volunteer] = (platform_class, project_class)
    wrong = seen = 0
    with volunteers_csv.open(encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            seen += 1
            if planted.get(row.get("volunteer_id")) != (row.get("platform_class"), row.get("project_class")):
                wrong += 1
    if wrong or seen != len(planted):
        return [f"planted labels: {wrong} of {seen} rows wrong, {len(planted)} planted"]
    return []


class DigestLedger:
    """Artifact digests of the first report of one input in this checkout."""

    def __init__(self, key: str):
        self.path = WORK / "digests" / f"{key}.json"
        self.first = json.loads(self.path.read_text()) if self.path.is_file() else None
        self.reference = None
        if BASELINE.is_file():
            self.reference = json.loads(BASELINE.read_text())["reference_digests"].get(key)
        self.notes: list[str] = []

    def check(self, digests: dict[str, str]) -> list[str]:
        if self.first is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(digests, indent=1, sort_keys=True))
            self.first = digests
        changed = sorted(n for n in ARTIFACTS if digests.get(n) != self.first.get(n))
        if self.reference is not None:
            moved = sorted(n for n in ARTIFACTS if digests.get(n) != self.reference.get(n))
            note = f"differs from the reference digests of baseline.json: {', '.join(moved)}"
            if moved and note not in self.notes:
                self.notes.append(note)
        return [f"artifact bytes differ between runs of this checkout: {', '.join(changed)}"] if changed else []


class Bench:
    """One workload's prepared input, its server if any, and the reports run on it."""

    def __init__(self, workload: str, seed: int, sizes: dict | None = None):
        builder, params = WORKLOADS[workload]
        params = dict(params, **(sizes or {}))
        if builder is not workloads.build_scale:
            params["seed"] = seed
        self.workload = workload
        self.inputs = workloads.prepare(WORK / "inputs", workload, builder, params)
        self.run_dir = WORK / "runs" / self.inputs.directory.name
        if self.run_dir.exists():
            shutil.rmtree(self.run_dir)
        self.run_dir.mkdir(parents=True)
        self.ledger = DigestLedger(self.inputs.directory.name)
        self.server = None
        if workload == "api_crawl":
            self.server = ApiServer(self.inputs.path("input"), self.run_dir / "server.log")
        self.reports: list[Report] = []
        self.count = 0

    @property
    def failed(self) -> int:
        return sum(1 for r in self.reports if r.problems)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()

    def report(self, label: str, traced: bool = False) -> Report:
        self.count += 1
        name = f"{label}{self.count}"
        out = self.run_dir / name
        args = ["report", "--out", str(out)]
        cache = self.run_dir / f"{name}-cache"
        if self.server is not None:
            args += ["--api-url", self.server.url, "--page-size", str(API_PAGE_SIZE), "--cache-dir", str(cache)]
            before = self.server.stats()
        else:
            args += ["--input", str(self.inputs.path("input"))]
        spans_path = self.run_dir / f"{name}-spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_report.py"), str(spans_path), name] + args
        else:
            argv = [sys.executable, "-c", CLI] + args
        code, wall, rss = spawn(argv, self.run_dir / f"{name}.log")
        report = Report(name, wall, rss, [] if code == 0 else [f"exit code {code}, see {name}.log"])
        if code == 0:
            report.problems += check_outputs(out, self.inputs)
        if not report.problems:
            report.problems += self.ledger.check({n: file_sha256(out / n) for n in ARTIFACTS})
            report.layers["report.artifact_bytes"] = sum((out / n).stat().st_size for n in ARTIFACTS)
        if self.server is not None:
            after = self.server.stats()
            report.layers["ingest.api.requests"] = after["requests"] - before["requests"]
            report.layers["ingest.api.response_bytes"] = after["body_bytes"] - before["body_bytes"]
            report.layers["ingest.api.cache_files"] = sum(1 for _ in cache.glob("*")) if cache.is_dir() else 0
        if traced and code == 0:
            report.problems += self.read_trace(spans_path, report)
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(cache, ignore_errors=True)
        self.reports.append(report)
        return report

    def read_trace(self, spans_path: Path, report: Report) -> list[str]:
        trace = json.loads(spans_path.read_text())
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, list[float]] = {}
        for span, children in zip(spans, child_time):
            total, self_time, _ = totals.setdefault(span["name"], [0.0, 0.0, 0.0])
            duration = span["end"] - span["start"]
            totals[span["name"]] = [total + duration, self_time + duration - children, span["rss_peak_mb"]]
        report.spans = totals
        layers = report.layers
        missing = list(trace["missing"])
        for metric, span_name in SPAN_SECONDS.items():
            layers[metric] = totals.get(span_name, [0.0])[0]
        for metric, span_name in SPAN_RSS.items():
            layers[metric] = totals.get(span_name, [0, 0, 0.0])[2]
        layers["report.build_report_self_s"] = totals.get("report.build_report", [0.0, 0.0])[1]
        expected = self.inputs.expected
        problems = []
        for metric, fact in TRACED_COUNTS.items():
            if metric not in trace["counts"]:
                missing.append(metric)
            layers[metric] = trace["counts"].get(metric, 0)
            if fact is not None and metric in trace["counts"] and layers[metric] != expected[fact]:
                problems.append(f"traced {metric} = {layers[metric]}, expected {expected[fact]}")
        n = layers["stats.bootstrap.n"]
        layers["stats.bootstrap.distinct_share"] = layers["stats.bootstrap.distinct_values"] / n if n else 0.0
        layers["trace.missing_spans"] = len(missing)
        report.missing = missing
        return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "requests"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), **versions}


def commit() -> dict:
    """The git commit when the checkout is a repository, and a digest of src/ always."""
    head = None
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = git / name
            if loose.is_file():
                head = loose.read_text().strip()
            else:
                packed = (git / "packed-refs").read_text().splitlines()
                head = next((l.split()[0] for l in packed if l.endswith(" " + name)), None)
        else:
            head = ref
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git": head, "src_sha256": digest.hexdigest()}


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """Run the measured reports; return metric name -> list of samples.

    Half of the cold starts for ``setup_s`` run before the reports and half
    after, so that one burst of load on the machine does not shift them all.
    """
    samples: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    def cold_starts(count: int) -> None:
        for _ in range(0 if trace else count):
            add("setup_starts", cold_start_seconds(bench.run_dir / "setup.log"))

    warm_marker = WORK / "warm" / bench.workload
    if not warm_marker.exists():
        bench.report("warmup")
        warm_marker.parent.mkdir(parents=True, exist_ok=True)
        warm_marker.touch()
    cold_starts(SETUP_STARTS // 2)
    started = time.perf_counter()
    least = 1 if trace else MIN_REPORTS
    while len(samples.get("wall_s", ())) < least or time.perf_counter() - started < seconds:
        plain = bench.report("report")
        add("wall_s", plain.wall_s)
        add("records_per_s", bench.inputs.records / plain.wall_s)
        add("peak_rss_mb", plain.rss_mb)
        if trace:
            traced = bench.report("traced", traced=True)
            add("trace.wall_s", traced.wall_s)
            for name, value in traced.layers.items():
                add(name, value)
    cold_starts(SETUP_STARTS - SETUP_STARTS // 2)
    if not trace:
        add("setup_s", statistics.median(samples["setup_starts"]))
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crowdmetrics" / "cli.py").is_file():
        sys.stderr.write(f"error: no crowdmetrics sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))

    bench = Bench(args.workload, args.seed)
    try:
        samples = measure(bench, args.seconds, bool(args.trace))
    finally:
        bench.close()

    wanted = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        wall = statistics.median(samples["wall_s"])
        samples["trace.overhead_s"] = [t - wall for t in samples["trace.wall_s"]]
    metrics = {}
    summary = {}
    for spec in wanted[kind]:
        values = samples.get(spec["name"], [0.0])
        q1, median, q3 = quartiles(values)
        metrics[spec["name"]] = {"value": median, "unit": spec["unit"]}
        summary[spec["name"]] = {"median": median, "q1": q1, "q3": q3, "n": len(values), "unit": spec["unit"]}
    attempted = len(bench.reports)
    failed = bench.failed
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "commit": commit(),
        "input": {
            "key": bench.inputs.directory.name,
            "records": bench.inputs.records,
            "sha256": bench.inputs.meta["sha256"],
        },
        "error_rate": failed / attempted,
        "metrics": summary,
        "samples": samples,
        "reports": [
            {"label": r.label, "wall_s": r.wall_s, "rss_mb": r.rss_mb, "problems": r.problems}
            for r in bench.reports
        ],
        "digests": bench.ledger.first,
        "digest_notes": bench.ledger.notes,
        "spans": {r.label: r.spans for r in bench.reports if r.spans},
        "missing_spans": sorted({m for r in bench.reports for m in r.missing}),
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True)
    )
    write_summary(result)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def write_summary(result: dict) -> None:
    out = sys.stderr
    m = result["machine"]
    out.write(
        f"{result['workload']} seed {result['seed']} trace {result['trace']}:"
        f" {result['input']['records']} input records\n"
        f"machine: {m['nproc']} cpu {m['cpu']}, Python {m['python']}, numpy {m['numpy']},"
        f" requests {m['requests']}; commit {result['commit']['git']}"
        f" src {result['commit']['src_sha256'][:16]}\n"
    )
    for name, s in result["metrics"].items():
        out.write(f"  {name:<42} {s['median']:>14.6g} {s['unit']:<6} q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']}\n")
    out.write(f"  {'error_rate':<42} {result['error_rate']:>14.6g} ratio  ({len(result['reports'])} reports)\n")
    for label, spans in result["spans"].items():
        out.write(f"  spans of {label} (total s, self s, RSS peak MB after):\n")
        for name, (total, self_time, rss) in spans.items():
            out.write(f"    {name:<40} {total:9.3f} {self_time:9.3f} {rss:9.1f}\n")
    for name in result["missing_spans"]:
        out.write(f"  missing span: {name}\n")
    for report in result["reports"]:
        for problem in report["problems"]:
            out.write(f"  FAILED {report['label']}: {problem}\n")
    for note in result["digest_notes"]:
        out.write(f"  note: artifact bytes {note}\n")


if __name__ == "__main__":
    sys.exit(main())
