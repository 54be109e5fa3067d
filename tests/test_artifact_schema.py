"""One schema per artifact: loaders, checkers and ``repro-lint`` agree.

The property starts from real artifacts of all six families (plans,
plan-cache entries, search checkpoints, request journals, churn
timelines and run-log lines), applies one mutation (drop a key, add a
key, swap a value for a wrong type or an out-of-range value, truncate a
list, or bump the format version) and asserts:

1. the loader accepts the artifact exactly when the family's
   ``check_*`` reports no error;
2. the loader raises nothing but ``ArtifactError``;
3. except for run logs, the checker's errors are exactly what
   ``lint_*_file`` reports (run-log lint adds registry and fleet rules).

The fixtures at the bottom are the concrete cases where a loader and
lint used to disagree.
"""

import copy
import json
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import SearchCheckpoint, search_all_stage_counts
from repro.elastic import ChurnEvent, ChurnTimeline, random_churn_timeline
from repro.lint.artifacts import (
    check_checkpoint,
    check_churn_timeline,
    check_journal,
    check_plan,
    check_plan_cache_entry,
    check_run_log_event,
    lint_checkpoint_file,
    lint_churn_timeline_file,
    lint_journal_file,
    lint_plan_cache_file,
    lint_plan_file,
)
from repro.lint.diagnostics import ArtifactError, errors_only
from repro.parallel import balanced_config, config_to_dict, load_config
from repro.service import PlanCache, PlannerDaemon, PlanRequest
from repro.telemetry import Event, validate_run_log

#: Cache entries are keyed by the fingerprint of the request they answer.
CACHE_FINGERPRINT = PlanRequest(model="gpt-2l", gpus=4).fingerprint()


def _load_cache_entry(path: Path) -> None:
    """The daemon's cache preload, as a loader that raises on a skip."""
    fingerprint = path.name[: -len(".plan.json")]
    if PlanCache(directory=path.parent).get(fingerprint) is None:
        raise ArtifactError("the cache preload skipped the entry")


def _load_journal(path: Path) -> None:
    """The daemon's journal re-admission, as a loader that raises on a
    skip."""
    daemon = PlannerDaemon(planner=lambda *a, **k: None, state_dir=path.parent)
    admitted = []
    daemon.submit_nowait = admitted.append
    daemon._readmit_journaled()
    if not admitted:
        raise ArtifactError("re-admission skipped the journal")


class Family(NamedTuple):
    filename: Callable[[dict], str]
    check: Callable
    load: Callable[[Path], object]
    lint: Optional[Callable]


FAMILIES = {
    "plan": Family(
        lambda seed: "best.json", check_plan, load_config, lint_plan_file,
    ),
    "cache": Family(
        lambda seed: f"{CACHE_FINGERPRINT}.plan.json",
        check_plan_cache_entry, _load_cache_entry, lint_plan_cache_file,
    ),
    "checkpoint": Family(
        lambda seed: "search.ckpt.json",
        check_checkpoint, SearchCheckpoint.load, lint_checkpoint_file,
    ),
    "journal": Family(
        lambda seed: f"{PlanRequest.from_json(seed).fingerprint()}"
        ".request.json",
        check_journal, _load_journal, lint_journal_file,
    ),
    "churn": Family(
        lambda seed: "timeline.churn.json",
        check_churn_timeline, ChurnTimeline.load, lint_churn_timeline_file,
    ),
    "run_log": Family(
        lambda seed: "events.jsonl",
        check_run_log_event, validate_run_log, None,
    ),
}


@pytest.fixture(scope="module")
def seeds(tiny_graph, small_cluster, tiny_perf_model, tmp_path_factory):
    """Real artifacts of every family, as they sit on disk."""
    directory = tmp_path_factory.mktemp("seeds")
    budget = {"max_iterations": 2}
    path = directory / "search.ckpt.json"
    multi = search_all_stage_counts(
        tiny_graph, small_cluster, tiny_perf_model,
        budget_per_count=budget, checkpoint_path=path,
    )
    checkpoint = json.loads(path.read_text())
    # A second checkpoint whose count 4 failed for good.
    failed = SearchCheckpoint.new(
        [1, 2, 4], budget, checkpoint["context"], directory / "f.ckpt.json"
    )
    for run in multi.runs[:2]:
        failed.record_run(run)
    failed.record_failure(
        SimpleNamespace(num_stages=4, error="boom", attempts=2)
    )
    recomputing = balanced_config(tiny_graph, small_cluster, 2)
    recomputing.stages[0].recompute[:2] = True
    best = multi.best
    artifacts = {
        "plan": [
            config_to_dict(balanced_config(tiny_graph, small_cluster, 4)),
            config_to_dict(recomputing),
        ],
        "cache": [{
            "plan": config_to_dict(best.best_config),
            "objective": best.best_objective,
            "model": "gpt-2l",
            "gpus": 4,
            "strategy": "greedy",
        }],
        "checkpoint": [
            checkpoint, json.loads(failed.path.read_text()),
        ],
        "journal": [
            PlanRequest(model="gpt-2l", gpus=4).to_json(),
            PlanRequest(
                model="gpt-4l", gpus=8, stage_counts=(1, 2), iterations=3,
                deadline_seconds=2.5, priority=1, strategy="mcmc",
                strategy_kwargs={"seed": 3},
            ).to_json(),
        ],
        "churn": [
            random_churn_timeline(4, 2, seed=seed, num_events=6).to_dict()
            for seed in range(3)
        ] + [
            ChurnTimeline(events=(
                ChurnEvent(0.5, "device_fail", device_id=5),
            )).to_dict(),
        ],
        "run_log": [
            Event(
                name="search.begin", ts=0.25, pid=7, source="search",
                attrs={"num_ops": 12},
            ).to_json(),
            Event(
                name="search.end", kind="span_end", ts=1.5,
                pid=7, source="search", level=30, attrs={"count": 2},
            ).to_json(),
        ],
    }
    # Exactly what a loader would read back from disk.
    return json.loads(json.dumps(artifacts))


def _write(family: str, seed: dict, artifact, directory: Path) -> Path:
    path = directory / FAMILIES[family].filename(seed)
    path.write_text(json.dumps(artifact) + "\n")
    return path


def _accepts(family: str, path: Path) -> bool:
    try:
        FAMILIES[family].load(path)
    except ArtifactError:
        return False
    return True


def _containers(node):
    """Every dict and list inside a JSON value, the root first."""
    if isinstance(node, (dict, list)):
        yield node
        children = node.values() if isinstance(node, dict) else node
        for child in children:
            yield from _containers(child)


#: Replacement values: wrong types and out-of-range numbers.
ODD_VALUES = ("x", None, [], {}, True, 1.5, 0, -1)


def _mutate(data, seed: dict):
    artifact = copy.deepcopy(seed)
    how = data.draw(st.sampled_from(
        ("drop", "add", "swap", "truncate", "version")
    ), label="mutation")
    if how == "version":
        key = (
            "protocol_version" if "protocol_version" in artifact
            else "format_version"
        )
        artifact[key] = artifact.get(key, 1) + 1
        return artifact
    nodes = list(_containers(artifact))
    pool = {
        "drop": [n for n in nodes if isinstance(n, dict) and n],
        "add": [n for n in nodes if isinstance(n, dict)],
        "swap": [n for n in nodes if n],
        "truncate": [n for n in nodes if isinstance(n, list) and n],
    }[how]
    assume(pool)
    node = pool[data.draw(st.integers(0, len(pool) - 1), label="node")]
    if how == "drop":
        del node[data.draw(st.sampled_from(sorted(node)), label="key")]
    elif how == "add":
        node["bogus_field"] = 1
    elif how == "truncate":
        node.pop()
    else:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys), label="key")
        node[key] = data.draw(st.sampled_from(ODD_VALUES), label="value")
    return artifact


def test_seed_artifacts_load_and_lint_clean(seeds, tmp_path):
    for family, artifacts in seeds.items():
        spec = FAMILIES[family]
        for seed in artifacts:
            path = _write(family, seed, seed, tmp_path)
            assert spec.check(seed, str(path)) == [], family
            assert _accepts(family, path), family
            if spec.lint is not None:
                assert errors_only(spec.lint(path)) == [], family


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_loader_agrees_with_checker_and_lint(seeds, family, data):
    spec = FAMILIES[family]
    seed = data.draw(st.sampled_from(seeds[family]), label="seed")
    artifact = _mutate(data, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(family, seed, artifact, Path(tmp))
        errors = errors_only(spec.check(artifact, str(path)))
        # Invariants 1 and 2: only ArtifactError escapes (anything
        # else fails the test), and it is raised exactly on errors.
        assert _accepts(family, path) == (not errors), errors
        if spec.lint is not None:
            # Invariant 3: lint is the checker, plus warnings.
            assert errors_only(spec.lint(path)) == errors


# ----------------------------------------------------------------------
# loader/lint disagreements the shared checkers closed
# ----------------------------------------------------------------------
_STAGE = {
    "start": 0, "end": 1, "num_devices": 4,
    "tp": [2], "dp": [2], "tp_dim": [0], "recompute": [False],
}
_PLAN = {"format_version": 1, "microbatch_size": 1, "stages": [_STAGE]}
_CHECKPOINT = {
    "format_version": 1, "stage_counts": [1], "budget_kwargs": {},
    "context": {}, "completed": {}, "failures": [],
}
_EVENT = {
    "name": "search.begin", "kind": "event", "ts": 0.1, "pid": 1,
    "source": "search", "level": 20, "attrs": {},
}
_NO_RECOMPUTE = {key: v for key, v in _STAGE.items() if key != "recompute"}

GAPS = [
    # Plans: config_from_dict accepted these, or raised a bare KeyError.
    ("plan", dict(_PLAN, note="unknown"), "ACE303"),
    ("plan", dict(_PLAN, stages=[dict(_STAGE, start="0")]), "ACE303"),
    ("plan", dict(_PLAN, stages=[_NO_RECOMPUTE]), "ACE303"),
    # Checkpoints: SearchCheckpoint.load accepted these.
    ("checkpoint", dict(_CHECKPOINT, stage_counts="2"), "ACE322"),
    ("checkpoint", dict(_CHECKPOINT, budget_kwargs=[1]), "ACE322"),
    (
        "checkpoint",
        dict(_CHECKPOINT, completed={"1": {"best_config": _PLAN}}),
        "ACE322",
    ),
    # Cache entries: preloaded and served from get().
    ("cache", {"plan": {"stages": "junk"}}, "ACE310"),
    # Churn timelines: the loader rejected this, lint called it clean.
    (
        "churn",
        {"format_version": 1, "seed": 0, "events": [], "num_nodes": 0},
        "ACE350",
    ),
    # Run logs: validate_run_log accepted an unknown kind.
    ("run_log", dict(_EVENT, kind="bogus"), "ACE342"),
]


@pytest.mark.parametrize(
    "family, artifact, code",
    GAPS,
    ids=[f"{family}-{i}" for i, (family, _, _) in enumerate(GAPS)],
)
def test_former_gap_is_rejected_by_loader_and_lint(
    family, artifact, code, tmp_path
):
    spec = FAMILIES[family]
    path = tmp_path / spec.filename(artifact)
    path.write_text(json.dumps(artifact) + "\n")
    with pytest.raises(ArtifactError) as excinfo:
        spec.load(path)
    errors = errors_only(spec.check(artifact, str(path)))
    assert code in [d.code for d in errors]
    if family != "cache":
        # The cache preload skips a bad entry instead of raising.
        assert [(d.code, d.message) for d in excinfo.value.diagnostics] == [
            (d.code, d.message) for d in errors
        ]
    if spec.lint is not None:
        assert errors_only(spec.lint(path)) == errors
