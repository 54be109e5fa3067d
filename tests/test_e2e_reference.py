"""The end-to-end benchmark's gpt3-350m reference plan, in tier-1.

``benchmarks/e2e/reference.json`` records the plan digest, objective
and estimate count of each search workload's request.  The benchmark
checks a plan's digest and objective; these tests also pin the estimate
count, which is Exp#4's "explored configurations" metric and what every
estimate-budgeted search spends.  The request runs once serially and
once on a 2-process worker pool, the two paths the benchmark times.
They read the reference and never rewrite it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.service import PlanRequest, plan_digest, plan_request
from repro.telemetry import CallbackSink, TelemetryBus, using_bus
from repro.telemetry.events import DRIVER_POOL_WORKER_START

REFERENCE = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
    / "reference.json"
)


def _check_against_reference(**kwargs):
    expected = json.loads(REFERENCE.read_text())["search"]["gpt3-350m"]
    request = PlanRequest.from_json(expected["request"])
    outcome = plan_request(request, **kwargs)
    assert plan_digest(outcome.plan) == expected["digest"]
    assert outcome.objective == expected["objective"]
    assert outcome.num_estimates == expected["estimates"] == 16394
    assert not outcome.partial and not outcome.failures


def test_gpt3_350m_request_matches_the_e2e_reference():
    _check_against_reference(search_workers=1)


def test_gpt3_350m_pool_request_matches_the_e2e_reference():
    # The per-count timeout keeps the pool on a 1-core host, where the
    # driver would otherwise search serially.  The sink only counts
    # forks; it keeps no worker event, so the workers capture nothing.
    forks = []
    bus = TelemetryBus()
    bus.add_sink(
        CallbackSink(forks.append, names=(DRIVER_POOL_WORKER_START,))
    )
    with using_bus(bus):
        _check_against_reference(search_workers=2, timeout_per_count=600)
    assert len(forks) == 2
