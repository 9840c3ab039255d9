"""Report assembly, artifact determinism, and the command-line interface."""

import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import weakref
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given, settings, strategies as st

import crowdmetrics
from crowdmetrics import report as report_module
from crowdmetrics.cli import _config_from_args, build_parser, main
from crowdmetrics.events import EventTable, PlatformSnapshot, VolunteerProfiles, build_snapshot
from crowdmetrics.ingest import IngestConfig, format_timestamp, load_events, write_events_csv
from crowdmetrics.report import (
    ACTIVITY_GROUPS,
    ARTIFACT_NAMES,
    PLOT_ARTIFACT_NAMES,
    TABLE_ARTIFACT_NAMES,
    ReportOptions,
    build_report,
    config_fingerprint,
    render_summary,
    report_to_dict,
    write_report,
)
from crowdmetrics.stats import bootstrap_mean_ci
from crowdmetrics.synth import SynthConfig, generate, write_labels_csv
from crowdmetrics.volunteers import PlatformClass
from testkit import ev


@pytest.fixture(scope="module")
def synth_snapshot():
    events, _ = generate(SynthConfig(seed=21, volunteer_count=120, project_count=9))
    return build_snapshot(events)


fast = ReportOptions(bootstrap_resamples=300)


class TestFingerprint:
    def test_stable_for_identical_inputs(self, synth_snapshot):
        assert config_fingerprint(synth_snapshot, fast) == config_fingerprint(
            synth_snapshot, fast
        )

    @pytest.mark.parametrize(
        "options",
        [
            ReportOptions(bootstrap_resamples=301),
            ReportOptions(bootstrap_resamples=300, seed=1),
            ReportOptions(bootstrap_resamples=300, availability="all"),
            ReportOptions(bootstrap_resamples=300, confidence_level=0.9),
        ],
    )
    def test_sensitive_to_analysis_options(self, synth_snapshot, options):
        assert config_fingerprint(synth_snapshot, options) != config_fingerprint(
            synth_snapshot, fast
        )

    def test_sensitive_to_exclusions_and_window(self, synth_snapshot):
        base = config_fingerprint(synth_snapshot, fast)
        trimmed = build_snapshot(synth_snapshot.events, exclusions=["p0000"])
        assert config_fingerprint(trimmed, fast) != base

    def test_digest_of_every_option_and_the_snapshot_fields(self, synth_snapshot):
        trimmed = build_snapshot(synth_snapshot.events, exclusions=["p0003", "zz"])
        options = ReportOptions(availability="all", bootstrap_resamples=5, confidence_level=0.9, seed=4)
        payload = {
            "availability": "all",
            "bootstrap_resamples": 5,
            "confidence_level": 0.9,
            "excluded_projects": ["p0003", "zz"],
            "observation_end": format_timestamp(trimmed.observation_end),
            "seed": 4,
        }
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert config_fingerprint(trimmed, options) == hashlib.sha256(canon.encode()).hexdigest()[:16]
        assert config_fingerprint(trimmed, options) == "8f090e27df0d6309"
        assert config_fingerprint(synth_snapshot, fast) == "bdafcb281ea287b5"

    def test_observation_end_is_the_same_instant_at_any_offset(self, synth_snapshot):
        utc = datetime(2015, 1, 1, 10, tzinfo=timezone.utc)
        ends = [utc, utc.astimezone(timezone(timedelta(hours=2))), utc.replace(tzinfo=None)]
        snapshots = [build_snapshot(synth_snapshot.events, observation_end=end) for end in ends]
        assert len({config_fingerprint(snapshot, fast) for snapshot in snapshots}) == 1
        documents = [report_to_dict(build_report(snapshot, fast)) for snapshot in snapshots]
        assert documents[0]["metadata"]["observation_end"] == "2015-01-01T10:00:00Z"
        assert documents[1]["metadata"] == documents[0]["metadata"]
        assert documents[2] == documents[0]  # a naive end is UTC


class TestBuildReport:
    def test_groups_partition_platform_regulars(self, synth_snapshot):
        report = build_report(synth_snapshot, fast)
        regulars = sum(
            1 for m in report.volunteers if m.platform_class is PlatformClass.REGULAR
        )
        assert sum(g.volunteer_count for g in report.activity_groups) == regulars
        assert report.distribution.total == len(report.volunteers)

    def test_each_group_ci_brackets_its_mean(self, synth_snapshot):
        report = build_report(synth_snapshot, fast)
        for group in report.activity_groups:
            if group.ci is not None:
                assert group.ci.lower <= group.ci.estimate <= group.ci.upper

    def test_group_intervals_equal_sequential_bootstraps(self, synth_snapshot):
        options = ReportOptions(bootstrap_resamples=300, confidence_level=0.9, seed=11)
        report = build_report(synth_snapshot, options)
        regulars = [m for m in report.volunteers if m.platform_class is PlatformClass.REGULAR]
        samples = (
            [m.relative_activity_duration for m in regulars if m.explored_projects == 1],
            [m.relative_activity_duration for m in regulars if m.explored_projects > 1],
        )
        assert [g.name for g in report.activity_groups] == list(ACTIVITY_GROUPS)
        for index, (group, sample) in enumerate(zip(report.activity_groups, samples)):
            assert sample, "the fixture must fill both groups"
            assert group.ci == bootstrap_mean_ci(
                sample, level=0.9, resamples=300, seed=options.seed + index
            )

    def test_group_bootstrap_error_propagates_and_threads_end(self, synth_snapshot, monkeypatch):
        def fail_second_group(sample, *, level, resamples, seed):
            if seed == fast.seed + 1:
                raise RuntimeError("second group failed")
            return bootstrap_mean_ci(sample, level=level, resamples=resamples, seed=seed)

        threads_before = threading.active_count()
        build_report(synth_snapshot, fast)
        assert threading.active_count() == threads_before
        monkeypatch.setattr("crowdmetrics.report.bootstrap_mean_ci", fail_second_group)
        with pytest.raises(RuntimeError, match="second group failed"):
            build_report(synth_snapshot, fast)
        assert threading.active_count() == threads_before

    def test_group_bootstraps_run_side_by_side(self, synth_snapshot, monkeypatch):
        # each group's bootstrap waits for the other's: run one after the
        # other, the first would time out on the barrier
        both_running = threading.Barrier(len(ACTIVITY_GROUPS), timeout=10)

        def meet_then_bootstrap(sample, **kwargs):
            both_running.wait()
            return bootstrap_mean_ci(sample, **kwargs)

        expected = build_report(synth_snapshot, fast)
        monkeypatch.setattr("crowdmetrics.report.bootstrap_mean_ci", meet_then_bootstrap)
        assert build_report(synth_snapshot, fast).activity_groups == expected.activity_groups

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            ReportOptions(seed=-1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("availability", "some", "availability must be one of"),
            ("bootstrap_resamples", 0, "bootstrap_resamples must be >= 1"),
            ("confidence_level", 0.0, r"confidence_level must be in \(0, 1\)"),
            ("confidence_level", 1.0, r"confidence_level must be in \(0, 1\)"),
        ],
    )
    def test_bad_options_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ReportOptions(**{field: value})

    def test_reports_of_one_snapshot_are_equal_and_row_order_counts(self, synth_snapshot):
        report = build_report(synth_snapshot, fast)
        assert report == build_report(synth_snapshot, fast)
        rows = list(report.volunteers)
        assert report == replace(report, volunteers=rows)
        assert report != replace(report, volunteers=rows[::-1])
        assert report != replace(report, volunteers=rows[:-1])

    def test_ginis_are_numbers_for_a_single_event(self):
        report = build_report(build_snapshot([ev("v", "t1", "p1", "2014-01-01T10:00")]), fast)
        assert report.gini_recruitment == report.gini_computing == 0.0
        assert "gini recruitment    0.00\ngini computing      0.00\n" in render_summary(report)

    def test_hand_built_empty_snapshot_fails_in_the_class_distribution(self):
        empty = PlatformSnapshot(EventTable.from_events([]), datetime(2014, 1, 1, tzinfo=timezone.utc))
        with pytest.raises(ValueError, match="^class distribution requires at least one volunteer$"):
            build_report(empty, fast)

    def test_empty_group_has_no_interval(self):
        # single volunteer, single day: no platform regulars at all
        snap = build_snapshot([ev("v", "t1", "p1", "2014-01-01T10:00")])
        report = build_report(snap, fast)
        assert all(g.ci is None and g.volunteer_count == 0 for g in report.activity_groups)

    def test_single_project_platform_has_no_finite_balances(self):
        events = [
            ev("v", "t1", "p1", "2014-01-01T10:00"),
            ev("w", "t2", "p1", "2014-01-02T10:00"),
        ]
        report = build_report(build_snapshot(events), fast)
        # everyone is recruited by the only project: both balances unbounded
        assert report.ecdf_recruitment is None
        assert report.ecdf_computing is None
        doc = report_to_dict(report)
        assert doc["platform"]["ecdf"]["recruitment"] is None
        assert doc["projects"][0]["balance_recruitment"] == "unbounded-"

    def test_ginis_defined_on_normal_platforms(self, synth_snapshot):
        report = build_report(synth_snapshot, fast)
        assert 0.0 <= report.gini_recruitment <= 1.0
        assert 0.0 <= report.gini_computing <= 1.0

    def test_volunteers_and_projects_sorted(self, synth_snapshot):
        report = build_report(synth_snapshot, fast)
        volunteer_ids = [m.volunteer_id for m in report.volunteers]
        project_ids = [b.project_id for b in report.projects]
        assert volunteer_ids == sorted(volunteer_ids)
        assert project_ids == sorted(project_ids)

    def test_report_keeps_neither_the_events_nor_the_profiles(self):
        # the report holds its own per-volunteer arrays: once the snapshot is
        # dropped, nothing it reaches may keep the snapshot's events or the
        # profiles (whose pairs index those events) alive into the write
        events, _ = generate(SynthConfig(seed=21, volunteer_count=120, project_count=9))
        snapshot = build_snapshot(events)
        event_table = snapshot.events
        report = build_report(snapshot, fast)
        del snapshot
        gc.collect()
        # an identity walk: EventTable has __slots__ and no __weakref__; classes
        # and modules are not walked, since their namespaces reach everything
        seen, pending = set(), [report]
        while pending:
            obj = pending.pop()
            if id(obj) in seen or isinstance(obj, (type, ModuleType)):
                continue
            seen.add(id(obj))
            assert obj is not event_table
            assert not isinstance(obj, VolunteerProfiles)
            pending.extend(gc.get_referents(obj))
        assert id(report.volunteers.table.explored) in seen


class TestSerialization:
    def test_report_dict_is_json_clean(self, synth_snapshot):
        doc = report_to_dict(build_report(synth_snapshot, fast))
        text = json.dumps(doc, sort_keys=True)
        assert "platform_regular" in text
        assert doc["metadata"]["observation_end"] == format_timestamp(
            synth_snapshot.observation_end
        )

    def test_percentages_rounded_and_summing(self, synth_snapshot):
        doc = report_to_dict(build_report(synth_snapshot, fast))
        platform = doc["platform"]["classes"]["platform"]
        assert sum(entry["percent"] for entry in platform.values()) == pytest.approx(100.0, abs=0.01)
        project = doc["platform"]["classes"]["project"]
        assert sum(entry["percent"] for entry in project.values()) == pytest.approx(100.0, abs=0.01)

    def test_write_report_deterministic(self, synth_snapshot, tmp_path):
        report = build_report(synth_snapshot, fast)
        first = write_report(report, tmp_path / "a")
        second = write_report(report, tmp_path / "b")
        assert set(first) == set(ARTIFACT_NAMES)
        for name in ARTIFACT_NAMES:
            assert first[name].read_bytes() == second[name].read_bytes()

    def test_json_report_round_trips(self, synth_snapshot, tmp_path):
        report = build_report(synth_snapshot, fast)
        paths = write_report(report, tmp_path)
        reread = json.loads(paths["report.json"].read_text(encoding="utf-8"))
        assert reread == report_to_dict(report)

    @pytest.mark.parametrize("rows_per_write", [None, 1, 7])
    def test_json_bytes_match_dumps(self, synth_snapshot, tmp_path, monkeypatch, rows_per_write):
        if rows_per_write is not None:
            monkeypatch.setattr("crowdmetrics.report._ROWS_PER_WRITE", rows_per_write)
        odd_ids = ["vé,1", 'v"2', "v\n3", "测试"]
        events = [
            ev(volunteer, f"t{i}", project, f"2014-01-0{1 + i % 3}T10:00")
            for i, volunteer in enumerate(odd_ids)
            for project in ("p,é", 'p"\n')
        ]
        for name, report in (
            ("synth", build_report(synth_snapshot, fast)),
            ("odd-ids", build_report(build_snapshot(events), fast)),
        ):
            paths = write_report(report, tmp_path / name)
            oracle = json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
            assert paths["report.json"].read_bytes() == oracle.encode("utf-8")

    @pytest.mark.parametrize("rows_per_write", [1, 7])
    def test_volunteer_rows_match_oracles_across_batches(self, tmp_path, monkeypatch, rows_per_write):
        monkeypatch.setattr("crowdmetrics.report._ROWS_PER_WRITE", rows_per_write)
        # ids json escapes (non-ASCII, quote, backslash, tab) and csv quotes
        # (comma, quote, "\r", "\n"), with NUL, a lone quote and outer spaces,
        # among plain ones, over several batches
        odd_ids = [
            "vé", "测试", 'q"uote', "back\\slash", "t\tab", "com,ma", "cr\rid", "lf\nid", "nul\x00id",
            '"', " lead", "trail ", " both ",
        ]
        ids = odd_ids + [f"v{k:02d}" for k in range(12)]
        projects = ["p,1", 'p"2', "p\r3", "p\n4", "p\x005", '"', " p7", "p8 ", "p9"]
        events = [
            ev(volunteer, f"t{i}-{j}", projects[(i + j) % 9], f"2014-01-{1 + (3 * i + 5 * j) % 20:02d}T10:00")
            for i, volunteer in enumerate(ids)
            for j in range(1 + i % 3)
        ]
        report = build_report(build_snapshot(events), fast)
        assert len(report.volunteers) == len(ids) > 2 * rows_per_write
        paths = write_report(report, tmp_path)
        rows = [m._asdict() for m in report.volunteers]

        document = {**report_to_dict(report), "volunteers": rows}
        oracle = json.dumps(document, sort_keys=True, indent=2) + "\n"
        assert paths["report.json"].read_bytes() == oracle.encode("utf-8")

        # csv.writer with "\r\n" line ends, which it quotes, each trimmed to
        # "\n": floats with 6 decimals, None an empty cell
        def oracle_table(rows):
            lines = []
            for cells in [list(rows[0])] + [
                [f"{value:.6f}" if isinstance(value, float) else value for value in row.values()]
                for row in rows
            ]:
                buffer = io.StringIO()
                csv.writer(buffer, lineterminator="\r\n").writerow(cells)
                lines.append(buffer.getvalue()[:-2] + "\n")
            return "".join(lines).encode("utf-8")

        assert paths["volunteers.csv"].read_bytes() == oracle_table(rows)
        assert paths["projects.csv"].read_bytes() == oracle_table(document["projects"])

    def test_text_artifact_bytes(self, tmp_path):
        # ids with a comma, a quote, a line break and non-ASCII characters; a
        # re-submission; projects with only recruited or only inherited sides
        events = [
            ev("vé,1", "t1", "p,é", "2014-01-01T10:00"),
            ev("vé,1", "t2", "p,é", "2014-01-03T10:00"),
            ev('v"2', "t3", 'p"\n', "2014-01-01T11:00"),
            ev('v"2', "t4", "p,é", "2014-01-04T11:00"),
            ev('v"2', "t5", "p,é", "2014-01-05T11:00"),
            ev("v\n3", "t6", "p,é", "2014-01-02T09:00"),
            ev("测试", "t7", 'p"\n', "2014-01-02T12:00"),
            ev("测试", "t8", 'p"\n', "2014-01-06T12:00"),
            ev("测试", "t9", "q", "2014-01-07T12:00"),
            ev("v5", "t10", "q", "2014-01-01T08:00"),
            ev("v5", "t11", "p,é", "2014-01-02T08:00"),
            ev("v6", "t12", "q", "2014-01-03T08:00"),
            ev("v6", "t13", "q", "2014-01-04T08:00"),
            ev("v6", "t13", "q", "2014-01-05T08:00"),
            ev("v6", "t14", "r", "2014-01-05T09:00"),
        ]
        options = ReportOptions(bootstrap_resamples=200, seed=3)
        paths = write_report(build_report(build_snapshot(events), options), tmp_path / "mixed")
        expected = {
            "volunteers.csv": (
                "volunteer_id,available_projects,explored_projects,regular_projects,"
                "exploration_rate,engagement_rate,relative_activity_duration,"
                "platform_class,project_class\n"
                '"v\n3",4,1,0,0.250000,0.000000,0.000000,platform_transient,one_project\n'
                '"v""2",4,2,1,0.500000,0.250000,0.666667,platform_regular,multi_project_explorer\n'
                "v5,4,2,0,0.500000,0.000000,0.166667,platform_regular,multi_project_explorer\n"
                "v6,4,2,1,0.500000,0.250000,0.500000,platform_regular,multi_project_explorer\n"
                '"vé,1",4,1,1,0.250000,0.250000,0.333333,platform_regular,one_project\n'
                "测试,4,2,1,0.500000,0.250000,1.000000,platform_regular,multi_project_explorer\n"
            ),
            "projects.csv": (
                "project_id,inherited_count,recruited_count,mean_tasks_inherited,"
                "mean_tasks_recruited,balance_recruitment,balance_computing\n"
                '"p""\n",0,2,,1.500000,unbounded-,unbounded-\n'
                '"p,é",2,2,1.500000,1.500000,0.000000,0.000000\n'
                "q,1,2,1.000000,1.500000,-1.000000,-0.500000\n"
                "r,1,0,1.000000,,unbounded+,unbounded+\n"
            ),
            "platform.csv": (
                "metric,value\n"
                "volunteers,6\n"
                "projects,4\n"
                "events_analyzed,14\n"
                "duplicates_removed,1\n"
                "gini_recruitment,0.250000\n"
                "gini_computing,0.285714\n"
                "platform_regular_count,5\n"
                "platform_regular_percent,83.3333\n"
                "platform_transient_count,1\n"
                "platform_transient_percent,16.6667\n"
                "multi_project_regular_count,0\n"
                "multi_project_regular_percent,0.0000\n"
                "multi_project_explorer_count,4\n"
                "multi_project_explorer_percent,66.6667\n"
                "one_project_count,2\n"
                "one_project_percent,33.3333\n"
            ),
            "ecdf_recruitment.dat": (
                "# balance_in_recruitment cumulative_fraction\n"
                "# finite=2 unbounded_negative=1 unbounded_positive=1\n"
                "-1.000000 0.500000\n"
                "0.000000 1.000000\n"
            ),
            "ecdf_computing.dat": (
                "# balance_in_computing cumulative_fraction\n"
                "# finite=2 unbounded_negative=1 unbounded_positive=1\n"
                "-0.500000 0.500000\n"
                "0.000000 1.000000\n"
            ),
            "activity_ci.dat": (
                "# group volunteers mean ci_lower ci_upper\n"
                "single_project_regulars 1 0.333333 0.333333 0.333333\n"
                "multi_project_regulars 4 0.583333 0.291667 0.876042\n"
            ),
        }
        for name, text in expected.items():
            assert paths[name].read_bytes() == text.encode("utf-8"), name

        # one project, one day: no finite balance and no platform regulars
        lone = [ev("v", "t1", "p1", "2014-01-01T10:00"), ev("w", "t2", "p1", "2014-01-01T12:00")]
        paths = write_report(build_report(build_snapshot(lone), options), tmp_path / "lone")
        expected = {
            "projects.csv": (
                "project_id,inherited_count,recruited_count,mean_tasks_inherited,"
                "mean_tasks_recruited,balance_recruitment,balance_computing\n"
                "p1,0,2,,1.000000,unbounded-,unbounded-\n"
            ),
            "ecdf_recruitment.dat": "# balance_in_recruitment cumulative_fraction\n# no finite values\n",
            "ecdf_computing.dat": "# balance_in_computing cumulative_fraction\n# no finite values\n",
            "activity_ci.dat": (
                "# group volunteers mean ci_lower ci_upper\n"
                "single_project_regulars 0 NA NA NA\n"
                "multi_project_regulars 0 NA NA NA\n"
            ),
        }
        for name, text in expected.items():
            assert paths[name].read_bytes() == text.encode("utf-8"), name

    def test_failed_write_leaves_previous_artifacts(self, synth_snapshot, tmp_path, monkeypatch):
        write_report(build_report(synth_snapshot, fast), tmp_path)
        before = {name: (tmp_path / name).read_bytes() for name in ARTIFACT_NAMES}

        def fail(doc, handle):
            handle.write("metric,value\n")
            raise RuntimeError("writer failed")

        # every artifact written before platform.csv differs in this report
        trimmed = build_report(build_snapshot(synth_snapshot.events, exclusions=["p0000"]), fast)
        monkeypatch.setitem(report_module._ARTIFACTS, "platform.csv", fail)
        with pytest.raises(RuntimeError, match="writer failed"):
            write_report(trimmed, tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(ARTIFACT_NAMES)
        assert {name: (tmp_path / name).read_bytes() for name in ARTIFACT_NAMES} == before

        monkeypatch.undo()
        paths = write_report(trimmed, tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(ARTIFACT_NAMES)
        assert all(paths[name].read_bytes() != before[name] for name in TABLE_ARTIFACT_NAMES)

    def test_failed_rename_leaves_no_temporary_files(self, synth_snapshot, tmp_path):
        (tmp_path / "platform.csv").mkdir()
        with pytest.raises(OSError):
            write_report(build_report(synth_snapshot, fast), tmp_path)
        assert not [path.name for path in tmp_path.iterdir() if path.name.endswith(".tmp")]

    def test_volunteers_csv_has_row_per_volunteer(self, synth_snapshot, tmp_path):
        report = build_report(synth_snapshot, fast)
        paths = write_report(report, tmp_path)
        lines = paths["volunteers.csv"].read_text().splitlines()
        assert len(lines) == len(report.volunteers) + 1
        assert lines[0].startswith("volunteer_id,available_projects")

    @settings(max_examples=60)
    @given(
        st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=6, unique=True),
        st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4, unique=True),
    )
    def test_table_ids_round_trip_through_csv(self, tmp_path_factory, volunteer_ids, project_ids):
        # any characters, commas, quotes, line breaks and NULs included
        events = [
            ev(volunteer, f"t{i}", project_ids[i % len(project_ids)], "2014-01-01T10:00")
            for i, volunteer in enumerate(volunteer_ids)
        ]
        events += [
            ev(volunteer_ids[0], f"u{i}", project, "2014-01-02T10:00")
            for i, project in enumerate(project_ids)
        ]
        report = build_report(build_snapshot(events), fast)
        paths = write_report(report, tmp_path_factory.mktemp("tables"), plot_data=False)
        for name, ids, width in (
            ("volunteers.csv", volunteer_ids, 9),
            ("projects.csv", project_ids, 7),
        ):
            with paths[name].open(newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            assert all(len(row) == width for row in rows)
            assert [row[0] for row in rows[1:]] == sorted(ids)

    def test_summary_mentions_key_numbers(self, synth_snapshot):
        report = build_report(synth_snapshot, fast)
        text = render_summary(report)
        assert f"volunteers          {report.distribution.total}" in text
        assert "platform_transient" in text
        assert "relative activity duration" in text


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def event_csv(tmp_path_factory):
    events, _ = generate(SynthConfig(seed=33, volunteer_count=60, project_count=6))
    path = tmp_path_factory.mktemp("data") / "events.csv"
    write_events_csv(events, path)
    return path


class TestCli:
    def test_report_writes_artifacts(self, event_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "report",
            "--input", str(event_csv),
            "--bootstrap-resamples", "200",
            "--out", str(out),
        )
        assert code == 0
        for name in ARTIFACT_NAMES:
            assert (out / name).is_file()
        stdout = capsys.readouterr().out
        assert "wrote 7 artifacts" in stdout
        assert "volunteers          60" in stdout

    def test_metrics_writes_tables_but_no_plot_data(self, event_csv, tmp_path, capsys):
        out = tmp_path / "tables"
        code = run_cli(
            "metrics", "--input", str(event_csv), "--bootstrap-resamples", "100",
            "--out", str(out),
        )
        assert code == 0
        for name in TABLE_ARTIFACT_NAMES:
            assert (out / name).is_file()
        for name in PLOT_ARTIFACT_NAMES:
            assert not (out / name).exists()
        stdout = capsys.readouterr().out
        assert "gini recruitment" in stdout
        assert "wrote 4 artifacts" in stdout

    def test_metrics_over_report_leaves_only_its_tables(self, tmp_path, capsys):
        events, _ = generate(SynthConfig(seed=7, volunteer_count=200, project_count=8))
        source = tmp_path / "events.csv"
        write_events_csv(events, source)
        out = tmp_path / "out"
        args = ("--input", str(source), "--bootstrap-resamples", "100", "--out", str(out))
        assert run_cli("report", *args) == 0
        assert run_cli("metrics", *args, "--exclude-project", "p0000") == 0
        assert sorted(path.name for path in out.iterdir()) == sorted(TABLE_ARTIFACT_NAMES)
        assert json.loads((out / "report.json").read_text())["platform"]["projects"] == 7

    def test_ingest_normalizes_to_canonical_csv(self, event_csv, tmp_path, capsys):
        out = tmp_path / "normalized.csv"
        assert run_cli("ingest", "--input", str(event_csv), "--out", str(out)) == 0
        header = out.read_text().splitlines()[0]
        assert header == "volunteer_id,task_id,project_id,timestamp"

    def test_ingest_keeps_sub_second_instants(self, tmp_path, capsys):
        # t1 is re-submitted 0.4 s apart: the source keeps pB, the earlier
        # record; cut to whole seconds the two would tie and pA would win
        records = [
            {"user_id": "u1", "task_id": "t1", "project_id": "pB", "finish_time": "2014-01-01T00:00:00.300Z"},
            {"user_id": "u1", "task_id": "t1", "project_id": "pA", "finish_time": "2014-01-01T00:00:00.700Z"},
            {"user_id": "u2", "task_id": "t2", "project_id": "pA", "finish_time": "2014-01-02T00:00:00Z"},
        ]
        source = tmp_path / "events.jsonl"
        source.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        out = tmp_path / "normalized.csv"
        assert run_cli("ingest", "--input", str(source), "--format", "jsonl", "--out", str(out)) == 0
        expected = build_snapshot(load_events(IngestConfig(kind="jsonl-file", location=str(source))).events)
        ingested = build_snapshot(load_events(IngestConfig(kind="csv-file", location=str(out))).events)
        assert ingested == expected
        assert [e.project_id for e in ingested.events] == ["pB", "pA"]

    def test_validate_ok(self, event_csv, capsys):
        assert run_cli("validate", "--input", str(event_csv)) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_rejects_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "volunteer_id,task_id,project_id,timestamp\nu1,t1,p1,whenever\n",
            encoding="utf-8",
        )
        assert run_cli("validate", "--input", str(bad)) == 2
        assert "error:" in capsys.readouterr().err

    def test_synth_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "synthdata"
        assert run_cli(
            "synth", "--seed", "4", "--volunteers", "40", "--projects", "5",
            "--out", str(out),
        ) == 0
        assert (out / "events.csv").is_file() and (out / "labels.csv").is_file()
        assert run_cli("validate", "--input", str(out / "events.csv")) == 0

    def test_failed_synth_leaves_the_previous_pair(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "synthdata"
        args = ("synth", "--volunteers", "40", "--projects", "5", "--out", str(out))
        assert run_cli(*args, "--seed", "1") == 0
        before = {name: (out / name).read_bytes() for name in ("events.csv", "labels.csv")}

        def fail(labels, path):
            path.write_text("volunteer_id\n", encoding="utf-8")
            raise OSError("disk full")

        monkeypatch.setattr("crowdmetrics.cli.write_labels_csv", fail)
        assert run_cli(*args, "--seed", "2") == 2
        assert "disk full" in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in before} == before
        assert sorted(path.name for path in out.iterdir()) == ["events.csv", "labels.csv"]

    def test_impossible_synth_start_date_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "synthdata"
        with pytest.raises(SystemExit) as err:
            run_cli("synth", "--start", "2014-13-01", "--out", str(out))
        assert err.value.code == 1
        assert "argument --start: month must be in 1..12" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--start", "--end"])
    @pytest.mark.parametrize("raw", ["20140717", "2014-W29-4", "2014-7-17", "\uff12014-07-17"])
    def test_synth_dates_other_than_yyyy_mm_dd_are_usage_errors(self, tmp_path, capsys, flag, raw):
        """``date.fromisoformat`` reads the first two from Python 3.11 on; the flag reads none on any Python."""
        out = tmp_path / "synthdata"
        with pytest.raises(SystemExit) as err:
            run_cli("synth", flag, raw, "--out", str(out))
        assert err.value.code == 1
        assert f"argument {flag}: not a YYYY-MM-DD date: {raw!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_synth_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "synthdata"
        with pytest.raises(SystemExit) as err:
            run_cli("synth", "--seed", "-1", "--projects", "3", "--volunteers", "50", "--out", str(out))
        assert err.value.code == 1
        assert "--seed: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (("--start", "2014-01-02", "--end", "2014-01-01"), "platform start must not be after end"),
            (("--projects", "1"), "multi-project classes require at least 2 projects"),
        ],
    )
    def test_synth_flags_that_cannot_produce_their_classes_are_usage_errors(self, tmp_path, capsys, argv, reason):
        out = tmp_path / "synthdata"
        with pytest.raises(SystemExit) as err:
            run_cli("synth", *argv, "--out", str(out))
        assert err.value.code == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage: crowdmetrics synth ")
        assert f"crowdmetrics synth: error: {reason}" in stderr
        assert not out.exists()

    def test_loaded_table_is_freed_before_the_report_is_built(self, event_csv, tmp_path, capsys, monkeypatch):
        # the snapshot holds a copy of the events, so the load's table need not
        # stay alive through the report stage
        loaded = []

        def load_and_watch(config):
            result = load_events(config)
            loaded.append(weakref.ref(result))
            return result

        def build_once_freed(*args, **kwargs):
            gc.collect()
            assert len(loaded) == 1 and loaded[0]() is None
            return build_report(*args, **kwargs)

        monkeypatch.setattr("crowdmetrics.cli.load_events", load_and_watch)
        monkeypatch.setattr("crowdmetrics.cli.build_report", build_once_freed)
        args = ("--input", str(event_csv), "--bootstrap-resamples", "100", "--out", str(tmp_path / "out"))
        assert run_cli("report", *args) == 0

    @pytest.mark.parametrize("skew", ["-1", "nan"])
    def test_negative_or_nan_skew_is_usage_error(self, tmp_path, capsys, skew):
        with pytest.raises(SystemExit) as err:
            run_cli("synth", "--skew", skew, "--out", str(tmp_path / "synthdata"))
        assert err.value.code == 1
        assert "--skew: must be a number >= 0" in capsys.readouterr().err
        assert not (tmp_path / "synthdata").exists()

    @pytest.mark.parametrize("skew, weights", [("0", None), ("1.2", [k ** -1.2 for k in (1, 2, 3, 4)])])
    def test_skew_writes_the_pair_of_its_weights(self, tmp_path, capsys, skew, weights):
        # skew 0 is the uniform split, as if no weights were given
        out = tmp_path / "synthdata"
        argv = ("synth", "--seed", "3", "--projects", "4", "--volunteers", "400", "--skew", skew)
        assert run_cli(*argv, "--out", str(out)) == 0
        config = SynthConfig(seed=3, project_count=4, volunteer_count=400, recruitment_weights=weights)
        events, labels = generate(config)
        write_events_csv(events, tmp_path / "events.csv")
        write_labels_csv(labels, tmp_path / "labels.csv")
        for name in ("events.csv", "labels.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_exclude_project_shrinks_platform(self, event_csv, tmp_path, capsys):
        assert run_cli(
            "metrics", "--input", str(event_csv), "--bootstrap-resamples", "100",
            "--out", str(tmp_path / "full"),
        ) == 0
        full = capsys.readouterr().out
        assert run_cli(
            "metrics", "--input", str(event_csv), "--bootstrap-resamples", "100",
            "--exclude-project", "p0000",
            "--out", str(tmp_path / "trimmed"),
        ) == 0
        trimmed = capsys.readouterr().out
        assert "projects            6" in full
        assert "projects            5" in trimmed

    def test_registration_dates_shift_join_instants(self, event_csv, tmp_path, capsys):
        args = ("metrics", "--input", str(event_csv), "--bootstrap-resamples", "100")
        assert run_cli(*args, "--out", str(tmp_path / "plain")) == 0
        plain = json.loads((tmp_path / "plain" / "report.json").read_text())
        # pick someone whose activity span is a strict part of their tenure
        target = next(
            row for row in plain["volunteers"] if row["relative_activity_duration"] < 1.0
        )
        sidecar = tmp_path / "registrations.csv"
        sidecar.write_text(
            f"volunteer_id,registered_at\n{target['volunteer_id']},2012-01-01T00:00:00Z\n",
            encoding="utf-8",
        )
        assert run_cli(
            *args, "--registration-dates", str(sidecar), "--out", str(tmp_path / "shifted")
        ) == 0
        shifted = json.loads((tmp_path / "shifted" / "report.json").read_text())
        rows = {row["volunteer_id"]: row for row in shifted["volunteers"]}
        moved = rows.pop(target["volunteer_id"])
        # a longer tenure with the same activity span pushes the ratio toward 1
        assert moved["relative_activity_duration"] > target["relative_activity_duration"]
        untouched = [r for r in plain["volunteers"] if r["volunteer_id"] != target["volunteer_id"]]
        assert untouched == [rows[r["volunteer_id"]] for r in untouched]
        capsys.readouterr()

    def test_postdated_registration_is_data_error(self, event_csv, tmp_path, capsys):
        sidecar = tmp_path / "registrations.csv"
        sidecar.write_text(
            "volunteer_id,registered_at\nv000000,2030-01-01T00:00:00Z\n", encoding="utf-8"
        )
        code = run_cli(
            "metrics", "--input", str(event_csv), "--registration-dates", str(sidecar),
            "--bootstrap-resamples", "100", "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert "postdates" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sidecar_text",
        [
            None,
            "volunteer,joined\nv000000,2013-01-01T00:00:00Z\n",
            "volunteer_id,registered_at\nv000000,whenever\n",
        ],
        ids=["missing", "bad-header", "bad-timestamp"],
    )
    def test_bad_sidecar_fails_before_the_load(self, tmp_path, capsys, monkeypatch, sidecar_text):
        def load_nothing(config):
            raise AssertionError("events loaded before the sidecar was read")

        monkeypatch.setattr("crowdmetrics.cli.load_events", load_nothing)
        sidecar = tmp_path / "registrations.csv"
        if sidecar_text is not None:
            sidecar.write_text(sidecar_text, encoding="utf-8")
        for source in (("--input", str(tmp_path / "events.csv")), ("--api-url", "http://platform.test")):
            args = (*source, "--registration-dates", str(sidecar), "--out", str(tmp_path / "out"))
            assert run_cli("report", *args) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(sidecar) in err

    @pytest.mark.parametrize(
        "rows", [[], [",t1,p1,2014-01-01T00:00:00Z"], ["u1,t1,p1,whenever", "u2,,p1,2014-01-01T00:00:00Z"]]
    )
    def test_input_without_events_is_data_error_that_blames_no_exclusion(self, tmp_path, capsys, rows):
        source = tmp_path / "events.csv"
        lines = ["volunteer_id,task_id,project_id,timestamp", *rows]
        source.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        assert run_cli("report", "--input", str(source), "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == "error: the input holds no events\n"

    def test_unmatched_exclusions_are_flagged(self, event_csv, tmp_path, capsys):
        excluded = ("p0000", "p9999", "nope", "p9999")
        flags = [arg for project_id in excluded for arg in ("--exclude-project", project_id)]
        args = ("--input", str(event_csv), "--bootstrap-resamples", "100", "--out", str(tmp_path / "cli"))
        assert run_cli("report", *args, *flags) == 0
        assert capsys.readouterr().err == (
            "warning: --exclude-project 'p9999' matches no project in the input\n"
            "warning: --exclude-project 'nope' matches no project in the input\n"
        )
        # the warning changes no artifact: the library, which does not warn, writes the same bytes
        result = load_events(IngestConfig(kind="csv-file", location=str(event_csv)))
        stats = {
            "total_records": result.total_records,
            "dropped_anonymous": result.dropped_anonymous,
            "skipped_malformed": result.skipped_malformed,
        }
        snapshot = build_snapshot(result.events, exclusions=excluded)
        report = build_report(snapshot, ReportOptions(bootstrap_resamples=100), source_stats=stats)
        assert report.excluded_projects == ("nope", "p0000", "p9999")
        paths = write_report(report, tmp_path / "library")
        for name in ARTIFACT_NAMES:
            assert (tmp_path / "cli" / name).read_bytes() == paths[name].read_bytes(), name

    def test_every_report_flag_and_tally_reaches_the_artifacts(self, event_csv, tmp_path, capsys):
        source = tmp_path / "events.csv"
        rows = event_csv.read_bytes()
        # one anonymous row and one whose timestamp does not parse, so no tally is 0
        source.write_bytes(rows + b",ta,p0000,2014-03-01T00:00:00Z\r\nvb,tb,p0000,not-a-date\r\n")
        flags = ("--availability", "all", "--bootstrap-resamples", "50", "--confidence-level", "0.9", "--seed", "7")
        assert run_cli("report", "--input", str(source), *flags, "--out", str(tmp_path / "cli")) == 0
        events = rows.count(b"\n") - 1  # less the header
        stats = {"total_records": events + 2, "dropped_anonymous": 1, "skipped_malformed": 1}
        result = load_events(IngestConfig(kind="csv-file", location=str(source)))
        options = ReportOptions(availability="all", bootstrap_resamples=50, confidence_level=0.9, seed=7)
        report = build_report(build_snapshot(result.events), options, source_stats=stats)
        paths = write_report(report, tmp_path / "library")
        for name in ARTIFACT_NAMES:
            assert (tmp_path / "cli" / name).read_bytes() == paths[name].read_bytes(), name

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--input", "events.csv"], {"kind": "csv-file", "location": "events.csv", "strict": False}),
            (
                ["--input", "events.jsonl", "--format", "jsonl"],
                {"kind": "jsonl-file", "location": "events.jsonl", "strict": False},
            ),
            (["--input", "events.csv", "--strict"], {"kind": "csv-file", "location": "events.csv", "strict": True}),
            (
                ["--api-url", "http://platform.test/", "--page-size", "7", "--cache-dir", "pages", "--strict"],
                {
                    "kind": "api",
                    "location": "http://platform.test/",
                    "strict": True,
                    "page_size": 7,
                    "cache_dir": "pages",
                },
            ),
        ],
    )
    def test_source_flags_reach_the_ingest_config(self, argv, expected):
        config = _config_from_args(build_parser().parse_args(["report", *argv, "--out", "out"]))
        assert {name: getattr(config, name) for name in expected} == expected

    def test_excluding_every_project_is_data_error(self, event_csv, tmp_path, capsys):
        excluded = [arg for k in range(6) for arg in ("--exclude-project", f"p{k:04d}")]
        assert run_cli("report", "--input", str(event_csv), *excluded, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == "error: no events survive exclusion filtering\n"

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert run_cli("report", "--input", str(tmp_path / "ghost.csv"), "--out", str(tmp_path)) == 2
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exits_one(self, event_csv):
        with pytest.raises(SystemExit) as err:
            run_cli("report", "--out", "somewhere")  # no source
        assert err.value.code == 1
        with pytest.raises(SystemExit) as err:
            run_cli("report", "--input", "x", "--api-url", "y", "--out", "z")
        assert err.value.code == 1
        with pytest.raises(SystemExit) as err:
            run_cli("metrics", "--input", "x", "--availability", "never")
        assert err.value.code == 1

    @pytest.mark.parametrize("url", ["notaurl", "ftp://x", "http://", "https:///api", "platform.test:8080"])
    def test_api_url_that_is_not_http_with_a_host_is_usage_error(self, url, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("validate", "--api-url", url)
        assert err.value.code == 1
        assert "--api-url: API URL must be http:// or https:// with a host" in capsys.readouterr().err

    @pytest.mark.parametrize("url", ["http://localhost:99999", "http://localhost:abc"])
    def test_api_url_with_a_bad_port_is_usage_error_before_any_request(self, url, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("validate", "--api-url", url)
        assert err.value.code == 1
        assert "--api-url: API URL port must be a number in 0..65535" in capsys.readouterr().err
        with pytest.raises(ValueError, match="port"):
            IngestConfig(kind="api", location=url)

    @pytest.mark.parametrize("level", ["0", "1", "1.5", "-0.1", "nan"])
    def test_confidence_level_outside_unit_interval_is_usage_error(self, event_csv, level):
        with pytest.raises(SystemExit) as err:
            run_cli("metrics", "--input", str(event_csv), "--confidence-level", level, "--out", "x")
        assert err.value.code == 1

    @pytest.mark.parametrize("command", ["report", "metrics"])
    def test_negative_seed_is_usage_error_before_input_is_read(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as err:
            run_cli(command, "--input", str(tmp_path / "ghost.csv"), "--seed", "-1", "--out", str(tmp_path))
        assert err.value.code == 1
        assert "--seed: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("synth", "--seed", "abc"), "argument --seed: invalid literal for int() with base 10: 'abc'"),
            (
                ("ingest", "--api-url", "http://h", "--page-size", "x"),
                "argument --page-size: invalid literal for int() with base 10: 'x'",
            ),
            (
                ("metrics", "--input", "x", "--confidence-level", "x"),
                "argument --confidence-level: could not convert string to float: 'x'",
            ),
        ],
    )
    def test_flag_value_that_does_not_convert_is_usage_error(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            run_cli(*argv, "--out", str(tmp_path / "out"))
        assert err.value.code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_importing_the_cli_leaves_requests_unimported(self):
        # the API crawl's HTTP client serves only an API source, and the thread pool only a load; a start-up pays for neither
        package_root = str(Path(crowdmetrics.__file__).resolve().parent.parent)
        crawl_only = "{'requests', 'concurrent.futures', 'urllib.request', 'http.client'}"
        probe = f"import sys, crowdmetrics.cli; sys.exit(' '.join(sorted({crawl_only} & set(sys.modules))) or None)"
        env = dict(os.environ, PYTHONPATH=package_root)
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr or "crowdmetrics.cli imported a crawl-only module"

    def test_unexpected_value_error_is_not_a_data_fault(self, event_csv, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a bug, not bad data")

        monkeypatch.setattr("crowdmetrics.cli.build_report", broken)
        with pytest.raises(ValueError, match="a bug"):
            run_cli("metrics", "--input", str(event_csv), "--out", str(tmp_path / "out"))

    def test_bad_observation_end_is_usage_error(self, event_csv):
        for value in ("someday", "0001-01-01T00:00:00+01:00"):
            with pytest.raises(SystemExit) as err:
                run_cli("metrics", "--input", str(event_csv), "--observation-end", value)
            assert err.value.code == 1

    @pytest.mark.parametrize(
        "name, text",
        [
            ("events.csv", "user_id,task_id,project_id,finish_time\nu1,t1,p1,2014-01-01T00:00:00Z\n"
             "u2,t2,p1,0001-01-01T00:00:00+01:00\n"),
            ("events.jsonl", '{"user_id": "u1", "task_id": "t1", "project_id": "p1", '
             '"finish_time": "2014-01-01T00:00:00Z"}\n{"user_id": "u2", "task_id": "t2", '
             '"project_id": "p1", "finish_time": "9999-12-31T23:00:00-05:00"}\n'),
        ],
        ids=["csv", "jsonl"],
    )
    def test_out_of_range_instant_is_a_malformed_row(self, tmp_path, capsys, name, text):
        source = tmp_path / name
        source.write_text(text, encoding="utf-8")
        fmt = ("--format", "jsonl") if name.endswith(".jsonl") else ()
        assert run_cli("validate", "--input", str(source), *fmt) == 2
        assert "timestamp out of range" in capsys.readouterr().err
        assert run_cli("ingest", "--input", str(source), *fmt, "--out", str(tmp_path / "out.csv")) == 0
        assert "loaded 1 of 2 records (dropped 0 anonymous, skipped 1 malformed)" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("--version")
        assert err.value.code == 0
        assert "crowdmetrics" in capsys.readouterr().out

    def test_observation_end_before_events_is_data_error(self, event_csv, tmp_path, capsys):
        code = run_cli(
            "metrics", "--input", str(event_csv),
            "--observation-end", "2000-01-01T00:00:00Z",
            "--out", str(tmp_path / "early"),
        )
        assert code == 2

    def test_csv_and_jsonl_routes_agree_byte_for_byte(self, tmp_path, capsys):
        events, _ = generate(SynthConfig(seed=55, volunteer_count=50, project_count=5))
        csv_path = tmp_path / "events.csv"
        write_events_csv(events, csv_path)
        jsonl_path = tmp_path / "events.jsonl"
        with jsonl_path.open("w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps({
                    "user_id": event.volunteer_id,
                    "task_id": event.task_id,
                    "project_id": event.project_id,
                    "finish_time": format_timestamp(event.timestamp),
                }) + "\n")

        out_csv, out_jsonl = tmp_path / "from_csv", tmp_path / "from_jsonl"
        common = ["--bootstrap-resamples", "200", "--seed", "9"]
        assert run_cli("report", "--input", str(csv_path), *common, "--out", str(out_csv)) == 0
        assert run_cli(
            "report", "--input", str(jsonl_path), "--format", "jsonl", *common,
            "--out", str(out_jsonl),
        ) == 0
        for name in ARTIFACT_NAMES:
            assert (out_csv / name).read_bytes() == (out_jsonl / name).read_bytes()
