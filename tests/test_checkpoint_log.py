"""The search checkpoint is an append-only log, read back by one fold.

``SearchCheckpoint.save`` writes the whole document once; each
``record_run``/``record_failure`` appends one record line.  Over any
sequence of those calls a load must equal the checkpoint in memory and
lint clean; a file cut at any byte must load as of its last whole
record (``ACE324`` exactly when a partial line remains), or fail
``ACE320`` and be quarantined when the cut falls inside the document;
and a resume from any cut must finish on the uninterrupted search's
plan and checkpoint.
"""

import copy
import dataclasses
import itertools
import json
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import SearchCheckpoint, _result_from_dict
from repro.core.search import search_all_stage_counts
from repro.lint.artifacts import fold_checkpoint, lint_checkpoint_file
from repro.parallel import config_to_dict
from repro.perfmodel import PerfModel
from repro.service import plan_digest

COUNTS = [1, 2, 4]
BUDGET = {"max_iterations": 2}

#: A record for one count: a success (one of two distinct results) or
#: a failure.
RECORD = st.tuples(
    st.sampled_from(COUNTS),
    st.sampled_from(("run", "rerun", "fail")),
    st.integers(0, 3),
)
SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def fresh_dir(tmp_path_factory):
    """A new directory per example.  Nothing is deleted while the tests
    run: on ext4 an unlink of a renamed-over file can stall tens of ms."""
    root, numbers = tmp_path_factory.mktemp("examples"), itertools.count()

    def make():
        path = root / str(next(numbers))
        path.mkdir()
        return path

    return make


def search(graph, cluster, database, path=None, resume=False):
    return search_all_stage_counts(
        graph, cluster, PerfModel(graph, cluster, database),
        stage_counts=COUNTS, budget_per_count=BUDGET,
        checkpoint_path=path, resume=resume,
    )


@pytest.fixture(scope="module")
def runs(tiny_graph, small_cluster, tiny_database):
    """Each count's run, and a second, distinct result for it."""
    multi = search(tiny_graph, small_cluster, tiny_database)
    return {
        run.num_stages: (run, dataclasses.replace(
            run, result=dataclasses.replace(
                run.result, num_estimates=run.result.num_estimates + 1
            ),
        ))
        for run in multi.runs
    }


def driver_order(records):
    """Drop a failure that follows its count's success: the driver
    never searches a completed count again."""
    done, kept = set(), []
    for count, kind, attempts in records:
        if kind == "fail" and count in done:
            continue
        if kind != "fail":
            done.add(count)
        kept.append((count, kind, attempts))
    return kept


def write_log(path, runs, records):
    """Save, then record each entry; returns the checkpoint, the file
    length after the save and after each record, and the in-memory
    state at each of those points."""
    checkpoint = SearchCheckpoint.new(COUNTS, BUDGET, {"num_ops": 1}, path)
    checkpoint.save()
    ends, states = [], []

    def mark():
        ends.append(path.stat().st_size)
        states.append(copy.deepcopy(
            (checkpoint.completed, checkpoint.failures)
        ))

    mark()
    for count, kind, attempts in driver_order(records):
        if kind == "fail":
            checkpoint.record_failure(SimpleNamespace(
                num_stages=count, error=f"boom {attempts}", attempts=attempts
            ))
        else:
            checkpoint.record_run(runs[count][kind == "rerun"])
        mark()
    return checkpoint, ends, states


def cuts(text: bytes, low: int, high: int):
    """Byte offsets in ``[low, high]``, often next to a line break,
    where a cut is most likely to expose an off-by-one."""
    near = {
        i + shift
        for i, byte in enumerate(text) if byte == ord("\n")
        for shift in (-1, 0, 1, 2)
    }
    return st.one_of(
        st.integers(low, high),
        st.sampled_from(sorted(p for p in near if low <= p <= high)),
    )


def state_of(checkpoint):
    return checkpoint.completed, checkpoint.failures


def comparable(checkpoint):
    """Everything a load holds but wall-clock seconds and the path."""
    completed = {
        count: {**result, "elapsed_seconds": 0.0}
        for count, result in checkpoint.completed.items()
    }
    return (checkpoint.stage_counts, checkpoint.budget_kwargs,
            checkpoint.context, completed, checkpoint.failures)


@SETTINGS
@given(records=st.lists(RECORD, max_size=8))
def test_load_equals_memory_and_lints_clean(runs, fresh_dir, records):
    path = fresh_dir() / "search.ckpt.json"
    checkpoint, _, _ = write_log(path, runs, records)
    assert SearchCheckpoint.load(path) == checkpoint
    assert lint_checkpoint_file(path) == []


@SETTINGS
@given(records=st.lists(RECORD, min_size=1, max_size=6), data=st.data())
def test_a_cut_loads_as_of_the_last_whole_record(
    runs, fresh_dir, records, data
):
    path = fresh_dir() / "search.ckpt.json"
    _, ends, states = write_log(path, runs, records)
    text = path.read_bytes()
    # From the document without its newline to the whole file.
    cut = data.draw(cuts(text, ends[0] - 1, len(text)), label="cut")
    path = path.with_name("cut.ckpt.json")
    path.write_bytes(text[:cut])
    whole = max((i for i, end in enumerate(ends) if end <= cut), default=0)
    # Past the record's leading newline, but not all of it.
    partial = cut - ends[whole] > 1
    found = [d.code for d in lint_checkpoint_file(path)]
    assert found == (["ACE324"] if partial else [])
    loaded = SearchCheckpoint.load(path)
    assert state_of(loaded) == states[whole]
    assert loaded.torn == partial
    # A resume compacts a torn file before it appends again.
    resumed = SearchCheckpoint.load_or_quarantine(path)
    assert state_of(resumed) == states[whole]
    assert lint_checkpoint_file(path) == []


@SETTINGS
@given(records=st.lists(RECORD, max_size=4), data=st.data())
def test_a_cut_inside_the_document_is_quarantined(
    runs, fresh_dir, records, data
):
    path = fresh_dir() / "search.ckpt.json"
    _, ends, _ = write_log(path, runs, records)
    cut = data.draw(st.integers(0, ends[0] - 2), label="cut")
    text = path.read_bytes()
    path = path.with_name("cut.ckpt.json")
    path.write_bytes(text[:cut])
    assert [d.code for d in lint_checkpoint_file(path)] == ["ACE320"]
    assert SearchCheckpoint.load_or_quarantine(path) is None
    assert not path.exists()
    assert path.with_name(path.name + ".corrupt").exists()


@pytest.fixture(scope="module")
def uninterrupted(tiny_graph, small_cluster, tiny_database, tmp_path_factory):
    """The uninterrupted search: its plan digest and its checkpoint."""
    path = tmp_path_factory.mktemp("log") / "search.ckpt.json"
    multi = search(tiny_graph, small_cluster, tiny_database, path)
    return (
        plan_digest(config_to_dict(multi.best.best_config)),
        path.read_bytes(),
        SearchCheckpoint.load(path),
    )


def resume_matches(graph, cluster, database, path, uninterrupted):
    digest, _, checkpoint = uninterrupted
    multi = search(graph, cluster, database, path, resume=True)
    assert plan_digest(config_to_dict(multi.best.best_config)) == digest
    assert comparable(SearchCheckpoint.load(path)) == comparable(checkpoint)


@SETTINGS
@given(data=st.data())
def test_a_resume_from_any_cut_finishes_as_if_uninterrupted(
    tiny_graph, small_cluster, tiny_database, uninterrupted, fresh_dir, data
):
    text = uninterrupted[1]
    cut = data.draw(cuts(text, 0, len(text)), label="cut")
    path = fresh_dir() / "search.ckpt.json"
    path.write_bytes(text[:cut])
    resume_matches(
        tiny_graph, small_cluster, tiny_database, path, uninterrupted
    )


@pytest.mark.parametrize("kept", [[], ["1"], ["1", "2", "4"]])
def test_a_one_document_checkpoint_loads_and_resumes(
    tiny_graph, small_cluster, tiny_database, uninterrupted, tmp_path, kept
):
    """The layout written before records were appended: one document."""
    document = fold_checkpoint(uninterrupted[1].decode())
    document["completed"] = {
        count: document["completed"][count] for count in kept
    }
    path = tmp_path / "search.ckpt.json"
    path.write_text(json.dumps(document) + "\n")
    assert sorted(SearchCheckpoint.load(path).completed) == sorted(
        map(int, kept)
    )
    resume_matches(
        tiny_graph, small_cluster, tiny_database, path, uninterrupted
    )


def test_a_completed_record_holds_exactly_what_the_loader_reads(
    tiny_graph, small_cluster, tiny_database, uninterrupted
):
    """Nothing in a record is write-only: the loader reads every key."""

    class Reads(dict):
        def __init__(self, data):
            super().__init__(data)
            self.read = set()

        def __getitem__(self, key):
            self.read.add(key)
            return super().__getitem__(key)

    perf_model = PerfModel(tiny_graph, small_cluster, tiny_database)
    for record in uninterrupted[2].completed.values():
        reads = Reads(record)
        _result_from_dict(reads, perf_model)
        assert set(record) == reads.read == {
            "best_config", "best_objective", "top_configs",
            "num_estimates", "elapsed_seconds", "converged",
        }


def test_a_checkpoint_with_visited_sets_is_quarantined_and_resumed(
    tiny_graph, small_cluster, tiny_database, uninterrupted, tmp_path
):
    """A record that also stores its count's dedup set (the older
    layout) fails the schema: the file is moved aside and the search
    starts fresh."""
    document, *records = uninterrupted[1].decode().split("\n")
    old = [document]
    for line in records:
        record = json.loads(line) if line else {}
        for result in record.get("completed", {}).values():
            result["visited_signatures"] = ["00" * 16]
        old.append(json.dumps(record) if line else line)
    assert len(old) > 1
    text = "\n".join(old)
    path = tmp_path / "search.ckpt.json"
    path.write_text(text)
    assert "ACE322" in [d.code for d in lint_checkpoint_file(path)]
    resume_matches(
        tiny_graph, small_cluster, tiny_database, path, uninterrupted
    )
    assert path.with_name(path.name + ".corrupt").read_text() == text
