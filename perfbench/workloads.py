"""Seeded, cached inputs for the benchmark workloads.

Each builder writes its files into ``<cache>/<workload>-<key>/``, where the
key hashes the builder's parameters (the seed among them), and writes
``meta.json`` last: a directory holding ``meta.json`` is complete and is
reused, so generation is paid once per seed and never timed. ``meta.json``
records what the output checks compare against: the number of input records,
the counts ``report.json`` must show, and the planted-labels file of the
synthetic workloads.

The synthetic workloads use ``crowdmetrics.synth.generate`` of the checkout
under test (its ``src`` must be on ``sys.path``), so their planted labels are
the ones the classifier must recover. Only the ``KEEP_INPUTS`` most recently
used inputs of a workload stay on disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass
from datetime import date, timedelta, timezone
from pathlib import Path

# The criterion-09 fixture of tests/test_acceptance.py, rebuilt byte for byte.
SCALE_EVENTS = 1_252_502
SCALE_VOLUNTEERS = 26_133
SCALE_PROJECTS = 22
SCALE_SHA256 = "8d5cf43e9f6912aeefecee48a61c83a34b9fd24881345614de05c4356cfbc490"

# Share of synthetic events that get each kind of dirt in longtail_dirty_csv.
OFFSET_SHARE = 0.20      # written as local time at +02:00
NAIVE_SHARE = 0.10       # written without a zone, "YYYY-MM-DD HH:MM:SS"
RESUBMIT_SHARE = 0.03    # repeated later with the same (volunteer, task)
ANONYMOUS_SHARE = 0.02   # an extra row with an empty user_id
BAD_TIME_SHARE = 0.005   # an extra row whose finish_time does not parse
KEEP_INPUTS = 3
BAD_TIMES = ("", "not-a-date", "2014-13-01T00:00:00Z", "2014-02-30 12:00:00", "17/07/2014 10:00")


@dataclass(frozen=True)
class Inputs:
    """A prepared workload input and the facts its report is checked against."""

    directory: Path
    meta: dict

    @property
    def records(self) -> int:
        return self.meta["records"]

    @property
    def expected(self) -> dict:
        return self.meta["expected"]

    def path(self, key: str) -> Path | None:
        name = self.meta.get(key)
        return None if name is None else self.directory / name


def prepare(cache: Path, workload: str, builder, params: dict) -> Inputs:
    """Return the cached input for ``params``, building it first if absent."""
    canon = json.dumps(params, sort_keys=True).encode()
    directory = cache / f"{workload}-{hashlib.sha256(canon).hexdigest()[:12]}"
    meta_path = directory / "meta.json"
    if not meta_path.is_file():
        if directory.exists():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        meta = builder(directory, **params)
        meta["params"] = params
        for path in directory.iterdir():  # so that writeback does not overlap the timed reports
            with path.open("rb") as handle:
                os.fsync(handle.fileno())
        meta_path.write_text(json.dumps(meta, indent=1, sort_keys=True), encoding="utf-8")
    meta_path.touch()
    used = sorted(cache.glob(f"{workload}-*/meta.json"), key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in used[KEEP_INPUTS:]:
        shutil.rmtree(stale.parent)
    return Inputs(directory, json.loads(meta_path.read_text(encoding="utf-8")))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _expected(events, *, total, anonymous=0, malformed=0, duplicates=0, volunteers, projects) -> dict:
    return {
        "analyzed": events,
        "duplicates_removed": duplicates,
        "total_records": total,
        "dropped_anonymous": anonymous,
        "skipped_malformed": malformed,
        "volunteers": volunteers,
        "projects": projects,
    }


def build_scale(directory: Path) -> dict:
    """The acceptance scale fixture: many events per volunteer, canonical ``Z`` times."""
    path = directory / "events.csv"
    base = date(2013, 6, 1)
    day_strings = [(base + timedelta(days=offset)).isoformat() for offset in range(340)]
    extras_per_volunteer, remainder = divmod(SCALE_EVENTS - SCALE_VOLUNTEERS, SCALE_VOLUNTEERS)
    task = 0
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write("volunteer_id,task_id,project_id,timestamp")
        for i in range(SCALE_VOLUNTEERS):
            lines = []
            for k in range(1 + extras_per_volunteer + (1 if i < remainder else 0)):
                project = (i + k) % SCALE_PROJECTS
                day = (i * 7 + k * 13) % 340
                second = (i * 37 + k * 101) % 86400
                task += 1
                lines.append(
                    f"\nv{i:05d},t{task:07d},p{project:02d},"
                    f"{day_strings[day]}T{second // 3600:02d}:{second % 3600 // 60:02d}:{second % 60:02d}Z"
                )
            handle.write("".join(lines))
        handle.write("\n")
    if task != SCALE_EVENTS:
        raise RuntimeError(f"scale fixture has {task} events, expected {SCALE_EVENTS}")
    checksum = _sha256(path)
    if checksum != SCALE_SHA256:
        raise RuntimeError(f"scale fixture checksum {checksum} differs from {SCALE_SHA256}")
    return {
        "input": path.name,
        "sha256": checksum,
        "records": SCALE_EVENTS,
        "expected": _expected(
            SCALE_EVENTS, total=SCALE_EVENTS, volunteers=SCALE_VOLUNTEERS, projects=SCALE_PROJECTS
        ),
    }


def _synth(seed: int, volunteers: int, projects: int, skew: float):
    from crowdmetrics.synth import SynthConfig, generate

    weights = [(i + 1) ** -skew for i in range(projects)]
    return generate(
        SynthConfig(
            seed=seed, volunteer_count=volunteers, project_count=projects, recruitment_weights=weights
        )
    )


def _write_labels(labels, path: Path) -> None:
    lines = ["volunteer_id,platform_class,project_class"]
    lines += [f"{v},{p.value},{c.value}" for v, (p, c) in sorted(labels.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_longtail(directory: Path, seed: int, volunteers: int, projects: int, skew: float) -> dict:
    """A skewed synthetic platform exported as a dirty PyBossa-style CSV.

    Dirt is drawn from its own stream so that the clean events are exactly
    ``generate``'s. Every kind of dirt leaves the analysed events unchanged:
    offset and naive times denote the same UTC instant, a re-submission is
    later than the original that dedupe keeps, and anonymous or unparseable
    rows are extra rows that ingest drops.
    """
    events, labels = _synth(seed, volunteers, projects, skew)
    rng = random.Random(f"longtail-dirt-{seed}")
    plus_two = timezone(timedelta(hours=2))

    def written(instant) -> str:
        draw = rng.random()
        if draw < OFFSET_SHARE:
            return instant.astimezone(plus_two).isoformat()
        if draw < OFFSET_SHARE + NAIVE_SHARE:
            return instant.strftime("%Y-%m-%d %H:%M:%S")
        return instant.strftime("%Y-%m-%dT%H:%M:%SZ")

    rows = []  # (sort instant, tie, user_id, task_id, project_id, finish_time)
    resubmitted = anonymous = malformed = 0
    for event in events:
        volunteer, task, project, instant = event
        rows.append((instant, len(rows), volunteer, task, project, written(instant)))
        if rng.random() < RESUBMIT_SHARE:
            later = instant + timedelta(seconds=rng.randint(60, 7 * 86400))
            rows.append((later, len(rows), volunteer, task, project, written(later)))
            resubmitted += 1
        if rng.random() < ANONYMOUS_SHARE:
            anonymous += 1
            rows.append((instant, len(rows), "", f"a{anonymous:07d}", project, written(instant)))
        if rng.random() < BAD_TIME_SHARE:
            malformed += 1
            rows.append((instant, len(rows), volunteer, f"b{malformed:07d}", project, rng.choice(BAD_TIMES)))
    rows.sort()  # exports list task runs in id order, which follows time
    path = directory / "events.csv"
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write("id,project_id,task_id,user_id,finish_time,info\n")
        handle.writelines(
            f'{number},{project},{task},{volunteer},{finish},"{{""answer"": ""{number % 3}""}}"\n'
            for number, (_, _, volunteer, task, project, finish) in enumerate(rows, start=1)
        )
    _write_labels(labels, directory / "labels.csv")
    return {
        "input": path.name,
        "sha256": _sha256(path),
        "labels": "labels.csv",
        "records": len(rows),
        "expected": _expected(
            len(events),
            total=len(rows),
            anonymous=anonymous,
            malformed=malformed,
            duplicates=resubmitted,
            volunteers=len(labels),
            projects=len({e.project_id for e in events}),
        ),
    }


def build_api(directory: Path, seed: int, volunteers: int, projects: int, skew: float) -> dict:
    """Synthetic task runs as PyBossa API records, served by ``fixture_server``."""
    events, labels = _synth(seed, volunteers, projects, skew)
    ordered = sorted(events, key=lambda e: (e.timestamp, e.task_id))
    records = [
        {
            "id": number,
            "project_id": e.project_id,
            "task_id": e.task_id,
            "user_id": e.volunteer_id,
            "user_ip": None,
            "finish_time": e.timestamp.strftime("%Y-%m-%dT%H:%M:%S.%f"),
            "info": {"answer": number % 3, "seconds": number % 97},
        }
        for number, e in enumerate(ordered, start=1)
    ]
    path = directory / "records.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    _write_labels(labels, directory / "labels.csv")
    return {
        "input": path.name,
        "sha256": _sha256(path),
        "labels": "labels.csv",
        "records": len(records),
        "expected": _expected(
            len(records),
            total=len(records),
            volunteers=len(labels),
            projects=len({e.project_id for e in events}),
        ),
    }
