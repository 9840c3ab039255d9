"""Acceptance gate: every shipping criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v`; the per-criterion PASS/FAIL
lines appear in the terminal summary. Tolerances are pinned as constants
below; exact means exact.
"""

import json
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

import crowdmetrics
from crowdmetrics.cli import main as cli_main
from crowdmetrics.events import build_snapshot, derive_profiles
from crowdmetrics.ingest import IngestConfig, format_timestamp, load_events, write_events_csv
from crowdmetrics.projects import Unbounded, signed_balance
from crowdmetrics.report import ARTIFACT_NAMES, ReportOptions, build_report
from crowdmetrics.stats import bootstrap_mean_ci, class_distribution, gini
from crowdmetrics.synth import (
    MULTI_PROJECT_REGULAR,
    PLANTED_CLASSES,
    REGULAR_EXPLORER,
    REGULAR_ONE_PROJECT,
    TRANSIENT_EXPLORER,
    TRANSIENT_ONE_PROJECT,
    ActivityModel,
    SynthConfig,
    generate,
)
from crowdmetrics.volunteers import (
    PlatformClass,
    ProjectClass,
    compute_volunteer_metrics,
    engagement_rate,
    exploration_rate,
)
from test_volunteers import worked_example_events
from testkit import criterion, gini_pairwise

# pinned tolerances and workload sizes
GINI_ORACLE_TOL = 1e-12
SCALE_INVARIANCE_TOL = 1e-12
SKEW_GINI_TOL = 0.02
BOOTSTRAP_WIDTH_REL_TOL = 0.20
MICRO_RUNTIME_LIMIT_S = 1.0
SCALE_RUNTIME_LIMIT_S = 10.0
RANDOM_DATASET_COUNT = 1_000
GINI_INPUT_COUNT = 10_000
BALANCE_PAIR_COUNT = 20_000
SCALE_EVENT_COUNT = 1_252_502
SCALE_VOLUNTEER_COUNT = 26_133
SCALE_PROJECT_COUNT = 22


@criterion(1, "worked formula examples: exploration 10/40, engagement 4/40, < 1 s")
def test_criterion_01_worked_examples():
    started = time.perf_counter()
    snap = build_snapshot(worked_example_events())
    volunteers, projects = derive_profiles(snap)
    scholar = volunteers["scholar"]
    assert exploration_rate(scholar, projects) == 0.25
    assert engagement_rate(scholar, projects) == 0.1
    elapsed = time.perf_counter() - started
    assert elapsed < MICRO_RUNTIME_LIMIT_S, f"took {elapsed:.3f}s"
    return f"{elapsed * 1000:.0f} ms"


def _random_config(rng: random.Random, index: int) -> SynthConfig:
    projects = rng.randint(1, 6)
    days = rng.randint(1, 90)
    weights = {name: rng.random() for name in PLANTED_CLASSES}
    if projects < 2:
        weights[TRANSIENT_EXPLORER] = 0.0
        weights[REGULAR_EXPLORER] = 0.0
        weights[MULTI_PROJECT_REGULAR] = 0.0
    if days < 2:
        weights[REGULAR_ONE_PROJECT] = 0.0
        weights[REGULAR_EXPLORER] = 0.0
        weights[MULTI_PROJECT_REGULAR] = 0.0
    total = sum(weights.values())
    if total == 0:
        weights[TRANSIENT_ONE_PROJECT] = 1.0
        total = 1.0
    from datetime import date, timedelta

    start = date(2014, 1, 1)
    return SynthConfig(
        seed=index,
        project_count=projects,
        volunteer_count=rng.randint(3, 25),
        class_mix={name: w / total for name, w in weights.items()},
        start=start,
        end=start + timedelta(days=days - 1),
    )


@pytest.fixture(scope="module")
def random_dataset_sweep():
    """Shared 1,000-dataset sweep backing criteria 2 and 3."""
    rng = random.Random(20260814)
    ordering_violations = 0
    partition_violations = 0
    volunteers_checked = 0
    for index in range(RANDOM_DATASET_COUNT):
        events, _ = generate(_random_config(rng, index))
        snap = build_snapshot(events)
        volunteers, projects = derive_profiles(snap)
        metrics = compute_volunteer_metrics(volunteers, projects, snap.observation_end)

        for m in metrics.values():
            volunteers_checked += 1
            if not (m.engagement_rate <= m.exploration_rate):
                ordering_violations += 1
            if not (
                m.regular_projects <= m.explored_projects <= m.available_projects
            ):
                ordering_violations += 1

        dist = class_distribution(
            (m.platform_class, m.project_class) for m in metrics.values()
        )
        if sum(dist.platform_percentages().values()) != Fraction(100):
            partition_violations += 1
        if sum(dist.project_percentages().values()) != Fraction(100):
            partition_violations += 1
        for project in projects.values():
            if project.recruited | project.inherited != project.volunteers:
                partition_violations += 1
            if project.recruited & project.inherited:
                partition_violations += 1
        for m in metrics.values():
            if (
                m.project_class is ProjectClass.MULTI_PROJECT_REGULAR
                and m.platform_class is not PlatformClass.REGULAR
            ):
                partition_violations += 1
    return {
        "ordering_violations": ordering_violations,
        "partition_violations": partition_violations,
        "volunteers_checked": volunteers_checked,
    }


@criterion(2, "ordering invariants over 1,000 random datasets: eng <= exp, g <= p <= a")
def test_criterion_02_ordering_invariants(random_dataset_sweep):
    assert random_dataset_sweep["ordering_violations"] == 0
    return f"{random_dataset_sweep['volunteers_checked']} volunteers, 0 violations"


@criterion(3, "partition invariants: class tables sum to 100%, recruited/inherited partition, MPR => regular")
def test_criterion_03_partition_invariants(random_dataset_sweep):
    assert random_dataset_sweep["partition_violations"] == 0
    return f"{RANDOM_DATASET_COUNT} datasets, 0 violations"


@criterion(4, "fast Gini == pairwise O(n^2) oracle within 1e-12 on 10,000 inputs; frozen examples; scale invariance")
def test_criterion_04_gini_oracle():
    assert gini([0, 0, 0, 100]) == 0.75
    assert gini([1, 2, 3, 4]) == 0.25

    rng = random.Random(4)
    worst = 0.0
    for index in range(GINI_INPUT_COUNT):
        if index % 100 == 99:
            n = rng.randint(201, 1000)
        elif index % 10 == 9:
            n = rng.randint(41, 200)
        else:
            n = rng.randint(1, 40)
        values = [
            0.0 if rng.random() < 0.1 else rng.random() * 10 ** rng.uniform(-3, 6)
            for _ in range(n)
        ]
        if not any(values):
            values[0] = 1.0
        worst = max(worst, abs(gini(values) - gini_pairwise(values)))
        assert worst <= GINI_ORACLE_TOL, f"oracle deviation {worst:.3e} at input {index}"

    for index in range(500):
        n = rng.randint(2, 50)
        values = [rng.random() * 100 for _ in range(n)]
        base = gini(values)
        for c in (2.0, 1e6, 1e-6):
            assert abs(gini([c * v for v in values]) - base) <= SCALE_INVARIANCE_TOL
    return f"max oracle deviation {worst:.2e}"


@criterion(5, "balance antisymmetry, sign semantics, tagged unbounded values, never NaN")
def test_criterion_05_balance_properties():
    rng = random.Random(5)
    for _ in range(BALANCE_PAIR_COUNT):
        def side():
            kind = rng.random()
            if kind < 0.25:
                return 0.0
            if kind < 0.7:
                return float(rng.randint(1, 10_000))
            return 1.0 + rng.random() * 10 ** rng.uniform(0, 6)

        a, b = side(), side()
        forward = signed_balance(a, b)
        backward = signed_balance(b, a)
        if isinstance(forward, Unbounded):
            assert min(a, b) == 0.0 and a != b
            assert forward.sign == (1 if a > b else -1)
            assert isinstance(backward, Unbounded)
            assert backward.sign == -forward.sign
        else:
            assert forward == forward  # not NaN
            assert backward == -forward
            if a > b:
                assert forward > 0
            elif a < b:
                assert forward < 0
            else:
                assert forward == 0.0
    return f"{BALANCE_PAIR_COUNT} pairs"


def _recovery_matrix() -> list[SynthConfig]:
    from datetime import date

    two_days = dict(start=date(2014, 1, 1), end=date(2014, 1, 2))
    pure = lambda name: {name: 1.0}
    return [
        SynthConfig(seed=0, volunteer_count=100, project_count=10),
        SynthConfig(seed=99, volunteer_count=100, project_count=10),
        SynthConfig(seed=1, volunteer_count=500, project_count=40),
        SynthConfig(seed=2, volunteer_count=1, project_count=1,
                    class_mix=pure(TRANSIENT_ONE_PROJECT),
                    start=date(2014, 1, 1), end=date(2014, 1, 1)),
        SynthConfig(seed=3, volunteer_count=50, project_count=3,
                    class_mix=pure(TRANSIENT_ONE_PROJECT)),
        SynthConfig(seed=4, volunteer_count=50, project_count=2,
                    class_mix=pure(TRANSIENT_EXPLORER)),
        SynthConfig(seed=5, volunteer_count=50, project_count=1,
                    class_mix=pure(REGULAR_ONE_PROJECT)),
        SynthConfig(seed=6, volunteer_count=50, project_count=4,
                    class_mix=pure(REGULAR_EXPLORER)),
        SynthConfig(seed=7, volunteer_count=50, project_count=6,
                    class_mix=pure(MULTI_PROJECT_REGULAR)),
        SynthConfig(seed=8, volunteer_count=80, project_count=5,
                    class_mix={MULTI_PROJECT_REGULAR: 0.5, TRANSIENT_EXPLORER: 0.5}),
        SynthConfig(seed=9, volunteer_count=60, project_count=8, **two_days),
        SynthConfig(seed=10, volunteer_count=30, project_count=2,
                    class_mix=pure(MULTI_PROJECT_REGULAR), **two_days),
        SynthConfig(seed=11, volunteer_count=200, project_count=12,
                    start=date(2013, 1, 1), end=date(2014, 12, 31)),
        SynthConfig(seed=12, volunteer_count=300, project_count=20,
                    recruitment_weights=[(i + 1) ** -1.5 for i in range(20)]),
        SynthConfig(seed=13, volunteer_count=100, project_count=10,
                    recruitment_weights=[0, 0, 1, 1, 1, 1, 1, 1, 1, 1]),
        SynthConfig(seed=14, volunteer_count=80, project_count=7,
                    activity={name: ActivityModel(active_days=(4, 8), tasks_per_day=(5, 9))
                              for name in PLANTED_CLASSES}),
        SynthConfig(seed=15, volunteer_count=80, project_count=15,
                    activity={name: ActivityModel(extra_project_probability=0.9)
                              for name in PLANTED_CLASSES}),
        SynthConfig(seed=16, volunteer_count=40, project_count=4,
                    activity={name: ActivityModel(extra_project_probability=0.0)
                              for name in PLANTED_CLASSES}),
        SynthConfig(seed=17, volunteer_count=25, project_count=25),
        SynthConfig(seed=18, volunteer_count=1000, project_count=3),
        SynthConfig(seed=19, volunteer_count=20, project_count=1,
                    class_mix={TRANSIENT_ONE_PROJECT: 0.5, REGULAR_ONE_PROJECT: 0.5},
                    **two_days),
        SynthConfig(seed=20, volunteer_count=600, project_count=60),
    ]


@criterion(6, "synthetic recovery: 100% planted labels on >= 20 configs; skew Gini within 0.02 at >= 50 projects")
def test_criterion_06_synthetic_recovery():
    matrix = _recovery_matrix()
    assert len(matrix) >= 20
    for config in matrix:
        events, labels = generate(config)
        snap = build_snapshot(events)
        volunteers, projects = derive_profiles(snap)
        metrics = compute_volunteer_metrics(volunteers, projects, snap.observation_end)
        recovered = {
            vid: (m.platform_class, m.project_class) for vid, m in metrics.items()
        }
        assert recovered == labels, f"label mismatch for seed {config.seed}"

    worst = 0.0
    for project_count, alpha, volunteer_count, seed in (
        (50, 1.1, 5000, 100),
        (64, 0.8, 6400, 101),
    ):
        weights = [(i + 1) ** -alpha for i in range(project_count)]
        events, _ = generate(
            SynthConfig(
                seed=seed,
                volunteer_count=volunteer_count,
                project_count=project_count,
                recruitment_weights=weights,
            )
        )
        _, projects = derive_profiles(build_snapshot(events))
        realized = gini(len(p.recruited) for p in projects.values())
        deviation = abs(realized - gini(weights))
        worst = max(worst, deviation)
        assert deviation <= SKEW_GINI_TOL, f"skew gini off by {deviation:.4f}"
    return f"{len(matrix)} configs, worst skew deviation {worst:.4f}"


@criterion(7, "determinism: two end-to-end CLI runs produce byte-identical artifacts")
def test_criterion_07_determinism(tmp_path):
    events, _ = generate(SynthConfig(seed=77, volunteer_count=150, project_count=10))
    source = tmp_path / "events.csv"
    write_events_csv(events, source)
    # run the package from the source tree it was imported from, so a
    # PYTHONPATH-only checkout needs no installed console script
    package_root = str(Path(crowdmetrics.__file__).resolve().parent.parent)
    python_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=python_path)
    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        proc = subprocess.run(
            [
                sys.executable, "-m", "crowdmetrics", "report",
                "--input", str(source),
                "--bootstrap-resamples", "2000",
                "--seed", "31",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out)
    for name in ARTIFACT_NAMES:
        first = (outputs[0] / name).read_bytes()
        second = (outputs[1] / name).read_bytes()
        assert first == second, f"{name} differs between runs"
    return f"{len(ARTIFACT_NAMES)} artifacts identical"


@criterion(8, "bootstrap sanity: degenerate CI at zero variance; width within 20% of normal approximation")
def test_criterion_08_bootstrap_sanity():
    flat = bootstrap_mean_ci([0.4] * 100, resamples=2000, seed=0)
    assert flat.lower == flat.upper == flat.estimate

    rng = np.random.default_rng(8)
    ratios = []
    for seed in (1, 2, 3):
        sample = rng.uniform(0, 1, 1000)
        ci = bootstrap_mean_ci(sample, level=0.95, resamples=4000, seed=seed)
        width = ci.upper - ci.lower
        analytic = 2 * 1.959963984540054 * sample.std(ddof=1) / np.sqrt(sample.size)
        ratios.append(width / analytic)
        assert abs(width / analytic - 1.0) <= BOOTSTRAP_WIDTH_REL_TOL, (
            f"width ratio {width / analytic:.3f}"
        )
    return "width ratios " + ", ".join(f"{r:.3f}" for r in ratios)


@pytest.fixture(scope="module")
def scale_csv(tmp_path_factory):
    """Deterministic event log at the largest published platform scale."""
    path = tmp_path_factory.mktemp("scale") / "events.csv"
    day_strings = []
    from datetime import date, timedelta

    base = date(2013, 6, 1)
    for offset in range(340):
        day_strings.append((base + timedelta(days=offset)).isoformat())

    extras_per_volunteer, remainder = divmod(
        SCALE_EVENT_COUNT - SCALE_VOLUNTEER_COUNT, SCALE_VOLUNTEER_COUNT
    )
    lines = ["volunteer_id,task_id,project_id,timestamp"]
    task = 0
    for i in range(SCALE_VOLUNTEER_COUNT):
        extras = extras_per_volunteer + (1 if i < remainder else 0)
        for k in range(1 + extras):
            project = (i + k) % SCALE_PROJECT_COUNT
            day = (i * 7 + k * 13) % 340
            second = (i * 37 + k * 101) % 86400
            task += 1
            lines.append(
                f"v{i:05d},t{task:07d},p{project:02d},"
                f"{day_strings[day]}T{second // 3600:02d}:{second % 3600 // 60:02d}:{second % 60:02d}Z"
            )
    assert len(lines) - 1 == SCALE_EVENT_COUNT
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@criterion(9, "scale: 1,252,502 events ingested and fully reported in under 10 s")
def test_criterion_09_scale(scale_csv):
    started = time.perf_counter()
    result = load_events(IngestConfig(kind="csv-file", location=str(scale_csv)))
    snap = build_snapshot(result.events)
    report = build_report(snap, ReportOptions(seed=0))
    elapsed = time.perf_counter() - started
    assert result.loaded == SCALE_EVENT_COUNT
    assert report.event_count == SCALE_EVENT_COUNT
    assert len(report.volunteers) == SCALE_VOLUNTEER_COUNT
    assert len(report.projects) == SCALE_PROJECT_COUNT
    assert elapsed < SCALE_RUNTIME_LIMIT_S, f"took {elapsed:.2f}s"
    return f"{elapsed:.2f} s"


class _PagedHandler(BaseHTTPRequestHandler):
    records: list[dict] = []

    def do_GET(self):
        from urllib.parse import parse_qs, urlparse

        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        limit = int(query["limit"][0])
        offset = int(query["offset"][0])
        body = json.dumps(self.records[offset : offset + limit]).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@criterion(10, "ingestion equivalence: CSV, JSONL, and mock API yield identical snapshots and reports")
def test_criterion_10_ingestion_equivalence(tmp_path):
    events, _ = generate(SynthConfig(seed=123, volunteer_count=80, project_count=8))
    records = [
        {
            "user_id": e.volunteer_id,
            "task_id": e.task_id,
            "project_id": e.project_id,
            "finish_time": format_timestamp(e.timestamp),
        }
        for e in events
    ]

    csv_path = tmp_path / "events.csv"
    write_events_csv(events, csv_path)
    jsonl_path = tmp_path / "events.jsonl"
    jsonl_path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )

    _PagedHandler.records = records
    server = ThreadingHTTPServer(("127.0.0.1", 0), _PagedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    api_url = f"http://127.0.0.1:{server.server_port}"
    try:
        sources = {
            "csv": IngestConfig(kind="csv-file", location=str(csv_path)),
            "jsonl": IngestConfig(kind="jsonl-file", location=str(jsonl_path)),
            "api": IngestConfig(kind="api", location=api_url, page_size=64),
        }
        snapshots = {
            name: build_snapshot(load_events(cfg).events)
            for name, cfg in sources.items()
        }
        assert snapshots["csv"] == snapshots["jsonl"] == snapshots["api"]

        cli_sources = {
            "csv": ["--input", str(csv_path)],
            "jsonl": ["--input", str(jsonl_path), "--format", "jsonl"],
            "api": ["--api-url", api_url, "--page-size", "64"],
        }
        out_dirs = {}
        for name, source_args in cli_sources.items():
            out = tmp_path / f"out_{name}"
            code = cli_main(
                ["report", *source_args, "--bootstrap-resamples", "500",
                 "--seed", "6", "--out", str(out)]
            )
            assert code == 0
            out_dirs[name] = out
        for artifact in ARTIFACT_NAMES:
            csv_bytes = (out_dirs["csv"] / artifact).read_bytes()
            assert csv_bytes == (out_dirs["jsonl"] / artifact).read_bytes(), artifact
            assert csv_bytes == (out_dirs["api"] / artifact).read_bytes(), artifact
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    return "3 routes, 7 artifacts each"
