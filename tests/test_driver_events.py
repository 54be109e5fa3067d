"""The stage-count driver's ``driver.*`` event stream is pinned.

Each scenario runs :func:`search_all_stage_counts` on a tiny model twice:
in this process (``workers=1``) and on the worker pool (``workers=2``
with a generous per-count timeout, which keeps the pool even on a
one-core box).  The ``driver.*`` events it publishes are compared with
``fixtures/driver_events.json``, masking only wall times and pids.

Scenarios with a retry compare each stage count's own events in order,
and the events that name no stage count in order: a retry waits out its
backoff while other counts search, so only the order across counts may
differ.  Stage count ``c`` sleeps ``PACE * log2(c)`` seconds before its
search, so pool workers finish in dispatch order.

Regenerate the fixture (only when the stream is meant to change) with
``PYTHONPATH=src python tests/test_driver_events.py``.
"""

from __future__ import annotations

import contextlib
import json
import sys
import tempfile
import time
from pathlib import Path

import pytest

import repro.core.search as search_module
from repro.cluster import paper_cluster
from repro.core import Deadline, search_all_stage_counts
from repro.perfmodel import PerfModel
from repro.profiling import SimulatedProfiler
from repro.telemetry import CallbackSink, TelemetryBus, using_bus
from repro.telemetry import events as names

from conftest import make_tiny_gpt

FIXTURE = Path(__file__).parent / "fixtures" / "driver_events.json"

PACE = 0.2
COUNTS = [1, 2, 4]
BUDGET = {"max_iterations": 4}
WORKERS = {1: {}, 2: {"timeout_per_count": 600.0}}

#: name -> (stage counts that always fail, count that fails once,
#: search_all_stage_counts keyword arguments).
SCENARIOS = {
    "clean": ((), None, {}),
    "flaky": ((), 2, {}),
    "failing": ((2,), None, {"max_retries": 1}),
    "expired": ((), None, {"deadline": 0.0}),
    "resume": ((), None, {"resume": True}),
}
RETRIES = ("flaky", "failing")

DRIVER_EVENTS = [
    value for key, value in vars(names).items()
    if key.startswith("DRIVER_") and isinstance(value, str)
    and not value.endswith(".")
]
_MASKED = ("wall_seconds", "worker_pid")


@contextlib.contextmanager
def _paced(failing=(), flaky=None, marker=None):
    """Pace every count's search and inject its faults.

    Patches the driver's ``balanced_config``, which both the in-process
    and the pool runner call first, and which forked workers inherit.
    """
    real = search_module.balanced_config

    def paced(graph, cluster, count):
        if count in failing:
            raise RuntimeError(f"count {count} is broken")
        if count == flaky and not marker.exists():
            marker.write_text("failed once")
            raise RuntimeError("transient")
        time.sleep(PACE * (count.bit_length() - 1))
        return real(graph, cluster, count)

    search_module.balanced_config = paced
    try:
        yield
    finally:
        search_module.balanced_config = real


def _masked(event):
    attrs = {
        key: "<masked>" if key in _MASKED else value
        for key, value in event.attrs.items()
    }
    return [event.name, attrs]


def run_scenario(name, workers, problem, workdir):
    """The masked ``driver.*`` events of one scenario, JSON-shaped."""
    graph, cluster, database = problem
    workdir = Path(workdir)
    failing, flaky, extra = SCENARIOS[name]
    kwargs = dict(WORKERS[workers], **extra)

    def search(**more):
        return search_all_stage_counts(
            graph, cluster, PerfModel(graph, cluster, database),
            stage_counts=COUNTS, budget_per_count=BUDGET, **more,
        )

    if "deadline" in kwargs:
        kwargs["deadline"] = Deadline(kwargs["deadline"])
    if kwargs.get("resume"):
        # Leave a checkpoint holding count 1 only.
        kwargs["checkpoint_path"] = workdir / "search.ckpt.json"
        with _paced(failing=(2, 4)):
            search(max_retries=0, checkpoint_path=kwargs["checkpoint_path"])
    seen = []
    bus = TelemetryBus()
    bus.add_sink(CallbackSink(seen.append, names=DRIVER_EVENTS))
    with using_bus(bus), _paced(failing, flaky, workdir / "flaky-marker"):
        search(workers=workers, **kwargs)
    return json.loads(json.dumps([_masked(event) for event in seen]))


def _by_count(stream):
    groups = {}
    for name, attrs in stream:
        groups.setdefault(str(attrs.get("num_stages")), []).append(
            [name, attrs]
        )
    return groups


def _problem():
    graph = make_tiny_gpt()
    cluster = paper_cluster(4)
    return graph, cluster, SimulatedProfiler(cluster, seed=0).profile(graph)


def _key(name, workers):
    return f"{name}/workers={workers}"


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("workers", sorted(WORKERS))
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_driver_events_match_fixture(
    name, workers, expected, tiny_graph, small_cluster, tiny_database,
    tmp_path,
):
    got = run_scenario(
        name, workers, (tiny_graph, small_cluster, tiny_database), tmp_path
    )
    want = expected[_key(name, workers)]
    if name in RETRIES:
        assert _by_count(got) == _by_count(want)
    else:
        assert got == want


if __name__ == "__main__":
    problem = _problem()
    streams = {}
    for scenario in SCENARIOS:
        for count in sorted(WORKERS):
            with tempfile.TemporaryDirectory() as workdir:
                streams[_key(scenario, count)] = run_scenario(
                    scenario, count, problem, workdir
                )
    FIXTURE.write_text(json.dumps(streams, indent=1) + "\n")
    sys.exit(0)
