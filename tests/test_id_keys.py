"""The CSV byte path keeps its task ids as sorted keys (``IdKeys``), decoded only when one is read.

The table must behave as the tuple of ids the ``csv.reader`` loop builds:
the same length, items, slices, iteration, membership and ``_code`` lookup,
and equal to that tuple from either side. Dropping ids (``take``, as
``--exclude-project`` does) indexes the keys without decoding them, and a
report or error built from either path is the same, for ``uint64`` keys
(ids of at most 8 bytes) and ``S`` keys (wider ids) alike.
"""

import tracemalloc
from contextlib import nullcontext
from datetime import datetime, timezone
from unittest import mock

import numpy as np
import pytest

from crowdmetrics import events as events_module, ingest
from crowdmetrics.cli import main
from crowdmetrics.events import EventAfterObservationEndError, IdKeys, _code, _decode_ids, build_snapshot
from crowdmetrics.ingest import (
    IngestConfig,
    _Decline,
    _load_csv_bytes,
    _load_csv_rows,
    _merge_id_blocks,
    write_events_csv,
)
from crowdmetrics.synth import SynthConfig, generate

HEADER = "volunteer_id,task_id,project_id,timestamp"


def byte_path_events(path):
    config = IngestConfig(kind="csv-file", location=str(path), strict=True)
    with open(path, "rb") as handle:
        return _load_csv_bytes(handle, config, str(path)).events


def reader_events(path):
    return _load_csv_rows(IngestConfig(kind="csv-file", location=str(path), strict=True)).events


def write_tasks(tmp_path, task_ids):
    """A file with one event per task, a day apart, in the order given."""
    path = tmp_path / "events.csv"
    rows = [f"u1,{task},p1,2014-01-0{day}T00:00:00Z" for day, task in enumerate(task_ids, 1)]
    path.write_text("\n".join([HEADER, *rows, ""]), encoding="utf-8")
    return path


def task_table(tmp_path, task_ids):
    """The byte path's task table of a file whose tasks are ``task_ids``."""
    table = byte_path_events(write_tasks(tmp_path, task_ids)).task_ids
    assert isinstance(table, IdKeys)
    return table


#: Ids of 1, exactly 8 and 20 bytes, sorted; the first two alone fit ``uint64`` keys.
IDS = ("a", "abcdefgh", "t" * 20)


class TestContract:
    @pytest.fixture(params=[IDS, IDS[:2]], ids=["S-keys", "uint64-keys"])
    def case(self, request, tmp_path):
        ids = request.param
        table = task_table(tmp_path, reversed(ids))
        assert table.keys.dtype.kind == ("S" if len(ids) == 3 else "u")
        return table, ids

    def test_len_decodes_nothing(self, case):
        table, ids = case
        with mock.patch.object(events_module, "_decode_ids", side_effect=AssertionError("decoded")):
            assert len(table) == len(ids)

    def test_indices(self, case):
        table, ids = case
        for index in range(-len(ids), len(ids)):
            assert table[index] == ids[index]
            assert type(table[index]) is str
        for index in (len(ids), -len(ids) - 1):
            with pytest.raises(IndexError):
                table[index]

    def test_slices(self, case):
        table, ids = case
        for index in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -1), slice(None, None, 2),
                      slice(5, 9), slice(0, 0)):
            assert table[index] == ids[index]
            assert type(table[index]) is tuple

    def test_iteration_decodes_once(self, case):
        table, ids = case
        with mock.patch.object(events_module, "_decode_ids", wraps=events_module._decode_ids) as decode:
            assert list(table) == list(ids)
        assert decode.call_count == 1

    def test_equality_with_a_tuple_from_either_side(self, case):
        table, ids = case
        assert table == ids and ids == table
        assert not (table != ids) and not (ids != table)
        assert table == list(ids)
        differ = ids[:-1] + ("z",)
        for other in (differ, ids[:-1], ids + ("zz",), ()):
            assert table != other and other != table
            assert not (table == other)
        assert table != "".join(ids) and table != None  # noqa: E711

    def test_repr_counts_the_ids(self, case):
        table, ids = case
        assert repr(table) == f"IdKeys({len(ids)} ids)"

    def test_membership(self, case):
        table, ids = case
        for id_ in ids:
            assert id_ in table
        for absent in ("", "abcdefg", "abcdefghi", "b", "t" * 19, 1, b"a"):
            assert absent not in table

    def test_code_bisects_the_keys(self, case):
        table, ids = case
        for position, id_ in enumerate(ids):
            assert _code(table, id_) == position
        for absent in ("", "abcdefg", "abcdefghi", "zz", 1, b"a"):
            with pytest.raises(KeyError):
                _code(table, absent)

    def test_key_tables_compare_by_keys(self, tmp_path):
        wide = task_table(tmp_path, IDS)
        taken = byte_path_events(write_tasks(tmp_path, IDS)).take(np.array([0, 1])).task_ids
        narrow = task_table(tmp_path, IDS[:2])
        assert wide == task_table(tmp_path, IDS)
        assert wide != narrow and narrow != wide
        # the 20-byte id dropped: S keys equal to the uint64 keys of the same ids
        assert taken.keys.dtype.kind == "S" and narrow.keys.dtype.kind == "u"
        assert taken == narrow and narrow == taken

    def test_compaction_indexes_the_keys(self, tmp_path):
        events = byte_path_events(write_tasks(tmp_path, IDS))
        with mock.patch.object(events_module, "_decode_ids", side_effect=AssertionError("decoded")):
            taken = events.take(np.array([2, 0]))
        assert isinstance(taken.task_ids, IdKeys) and taken.task_ids.keys.dtype.kind == "S"
        assert taken.task_ids == (IDS[0], IDS[2])
        assert [event.task_id for event in taken] == [IDS[2], IDS[0]]

    def test_event_iteration_decodes_the_table_once(self, tmp_path):
        events = byte_path_events(write_tasks(tmp_path, IDS))
        with mock.patch.object(events_module, "_decode_ids", wraps=events_module._decode_ids) as decode:
            assert [event.task_id for event in events] == list(IDS)
        assert decode.call_count == 1


#: Task ids of both key kinds: short ones give uint64 keys, wide ones S keys; in the
#: last case only the excluded project's tasks are wide, so its S keys lose their widest ids.
TASK_NAMES = {
    "uint64-keys": lambda number, excluded: f"t{number}",
    "S-keys": lambda number, excluded: f"task-{number:015d}",
    "S-keys-narrowed": lambda number, excluded: f"task-{number:015d}" if excluded else f"t{number}",
}


@pytest.fixture(params=sorted(TASK_NAMES))
def synth_csv(request, tmp_path):
    """A synthetic log with renamed task ids, and a project whose tasks occur in no other project."""
    events, _ = generate(SynthConfig(seed=5, volunteer_count=40, project_count=5))
    excluded = events[0].project_id
    name = TASK_NAMES[request.param]
    numbers = {}
    renamed = [
        event._replace(task_id=name(numbers.setdefault(event.task_id, len(numbers)), event.project_id == excluded))
        for event in events
    ]
    assert not {e.task_id for e in renamed if e.project_id == excluded} & {
        e.task_id for e in renamed if e.project_id != excluded
    }
    path = tmp_path / "events.csv"
    write_events_csv(renamed, path)
    return path, excluded


def both_reports(path, out, capsys, *flags):
    """``report``'s exit code, artifact bytes and stderr, reading the file by the byte path, then by ``csv.reader``."""
    outcomes = []
    for declined in (False, True):
        directory = out / ("reader" if declined else "bytes")
        forced = mock.patch.object(ingest, "_load_csv_bytes", side_effect=_Decline("forced"))
        with forced if declined else nullcontext():
            code = main(["report", "--input", str(path), "--seed", "3", *flags, "--out", str(directory)])
        files = {file.name: file.read_bytes() for file in directory.iterdir()} if directory.exists() else {}
        outcomes.append((code, files, capsys.readouterr().err))
    return outcomes


def test_exclusion_drops_tasks_as_csv_reader_does(synth_csv, tmp_path, capsys):
    path, excluded = synth_csv
    fast, slow = byte_path_events(path), reader_events(path)
    assert isinstance(fast.task_ids, IdKeys) and fast == slow
    snapshots = [build_snapshot(events, exclusions={excluded}) for events in (fast, slow)]
    assert snapshots[0] == snapshots[1]
    kept = snapshots[0].events.task_ids
    assert isinstance(kept, IdKeys) and len(kept) < len(fast.task_ids)
    assert kept.keys.dtype == fast.task_ids.keys.dtype

    by_bytes, by_reader = both_reports(path, tmp_path / "out", capsys, "--exclude-project", excluded)
    assert by_bytes[0] == 0 and len(by_bytes[1]) == 7
    assert by_bytes == by_reader


def test_observation_end_names_the_same_task(synth_csv, tmp_path, capsys):
    path, _ = synth_csv
    fast, slow = byte_path_events(path), reader_events(path)
    end = datetime.fromtimestamp(int(np.median(fast.timestamp)) // 1_000_000, tz=timezone.utc)
    messages = []
    for events in (fast, slow):
        with pytest.raises(EventAfterObservationEndError) as raised:
            build_snapshot(events, observation_end=end)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert any(messages[0].startswith(f"event {task!r} at ") for task in slow.task_ids)

    by_bytes, by_reader = both_reports(path, tmp_path / "out", capsys, "--observation-end", end.isoformat())
    assert by_bytes == (2, {}, f"error: {messages[0]}\n")
    assert by_bytes == by_reader


def test_loaded_task_ids_cost_no_python_strings(tmp_path):
    """A byte-path load keeps about 30 bytes per event; a str per task id would cost about 60 more."""
    events = 100_000
    path = tmp_path / "events.csv"
    rows = "".join(f"u{i % 1000},t{i:07d},p{i % 7},2014-01-01T00:00:00Z\n" for i in range(events))
    path.write_text(HEADER + "\n" + rows, encoding="utf-8")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = ingest.load_file(IngestConfig(kind="csv-file", location=str(path)))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result.events) == events and isinstance(result.events.task_ids, IdKeys)
    assert kept / events < 40, f"{kept / events:.1f} bytes kept per event"


def seeded_csv(path, events, seed):
    """A byte-path CSV of ``events`` records: a task id each, 1 in 20 as many volunteers, 12 projects."""
    rng = np.random.default_rng(seed)
    volunteers = rng.integers(0, events // 20, events).tolist()
    projects = rng.integers(0, 12, events).tolist()
    stamps = np.datetime_as_string(np.datetime64("2014-01-01T00:00:00") + rng.integers(0, 200 * 86_400, events))
    rows = "".join(
        f"v{v},t{task:07d},p{p},{stamp}Z\n" for task, (v, p, stamp) in enumerate(zip(volunteers, projects, stamps))
    )
    path.write_text(HEADER + "\n" + rows, encoding="utf-8")
    return path


def test_a_multi_block_load_peaks_near_its_table(tmp_path):
    """The load's traced peak stays within 2.4 times its event table's arrays.

    With small blocks the id merge sets the peak: merging the task column
    with ``np.unique(..., return_inverse=True)`` over all blocks' tables took
    this file's load to 3.5 times, and merging by one stable argsort and an
    int64 index of the distinct keys to 2.6. A first-of-run mask and int32
    ranks, with the timestamps concatenated first and each id column's
    blocks dropped once merged, take it to 2.0.
    """
    path = seeded_csv(tmp_path / "events.csv", 100_000, seed=31)
    config = IngestConfig(kind="csv-file", location=str(path))
    with mock.patch.object(ingest, "_BLOCK_BYTES", 1 << 16):  # 60 blocks, each with few temporaries
        tracemalloc.start()
        try:
            result = ingest.load_file(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    events = result.events
    assert len(events) == 100_000 and isinstance(events.task_ids, IdKeys)
    columns = (events.volunteer, events.task, events.project, events.timestamp)
    table = events.task_ids.keys.nbytes + sum(column.nbytes for column in columns)
    assert peak / table < 2.4, f"load peak {peak / table:.2f} times the table"


def id_keys(ids):
    """The byte path's keys of ``ids``: ``uint64`` when each fits in 8 bytes, else ``S`` (see ``_id_keys``)."""
    keys = np.array([id_.encode() for id_ in ids], dtype="S")
    if keys.dtype.itemsize > 8:
        return keys
    return keys.astype("S8").view(">u8").astype(np.uint64)


MERGE_CASES = {
    "uint64": [["b", "a", "c"], ["d", "e"]],
    "S-widths": [["x" * 9, "y" * 12], ["x" * 10, "w" * 20]],
    "mixed": [["a", "bb", "a"], ["a" * 9, "bb"], ["c"]],
    "repeated-across-blocks": [["t1", "t2"], ["t2", "t1"], ["t1", "t3", "t2"]],
    "empty-block": [["a", "b"], [], ["b", "c"]],
    "single-block": [["q", "p", "q"]],
}


@pytest.mark.parametrize("id_blocks", MERGE_CASES.values(), ids=list(MERGE_CASES))
def test_merged_id_blocks_are_one_unique_of_all_keys(id_blocks):
    keys = [id_keys(ids) for ids in id_blocks]
    uniques = [np.unique(block, return_inverse=True) for block in keys]
    blocks = tuple((table, inverse.astype(np.int32)) for table, inverse in uniques)
    if any(k.dtype.kind == "S" for k in keys):
        keys = [k.astype(">u8").view("S8") if k.dtype.kind == "u" else k for k in keys]
    expected_keys, expected_codes = np.unique(np.concatenate(keys), return_inverse=True)
    merged, codes = _merge_id_blocks(blocks)
    assert merged.dtype == expected_keys.dtype and np.array_equal(merged, expected_keys)
    assert codes.dtype == np.int32 and np.array_equal(codes, expected_codes)
    ids = [id_ for block in id_blocks for id_ in block]
    assert _decode_ids(merged) == tuple(sorted(set(ids)))
    assert [_decode_ids(merged)[code] for code in codes.tolist()] == ids
