"""Report assembly, artifact determinism, and the command-line interface."""

import csv
import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from crowdmetrics import report as report_module
from crowdmetrics.cli import main
from crowdmetrics.events import build_snapshot
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
from crowdmetrics.synth import SynthConfig, generate
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

    @pytest.mark.parametrize("chunks_per_write", [None, 1, 7])
    def test_json_bytes_match_dumps(self, synth_snapshot, tmp_path, monkeypatch, chunks_per_write):
        if chunks_per_write is not None:
            monkeypatch.setattr("crowdmetrics.report._JSON_CHUNKS_PER_WRITE", chunks_per_write)
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

    @pytest.mark.parametrize("level", ["0", "1", "1.5", "-0.1", "nan"])
    def test_confidence_level_outside_unit_interval_is_usage_error(self, event_csv, level):
        with pytest.raises(SystemExit) as err:
            run_cli("metrics", "--input", str(event_csv), "--confidence-level", level, "--out", "x")
        assert err.value.code == 1

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
