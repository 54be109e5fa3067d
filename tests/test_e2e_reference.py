"""The end-to-end benchmark's reference plans, in tier-1.

``benchmarks/e2e/reference.json`` records the plan digest, objective
and estimate count of each search workload's request.  The benchmark
checks a plan's digest and objective; these tests also pin the estimate
count, which is Exp#4's "explored configurations" metric and what every
estimate-budgeted search spends.  The gpt3-350m request runs once
serially and once on a 2-process worker pool, the two paths the
benchmark times; the 8,004-op gpt-1000l request runs serially, with
and without a sink that keeps every event.  The 21 serve-mixed
fingerprints replay serially against their entries the same way.  They
read the reference and never rewrite it.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core import apply
from repro.ir.ops import OpSpec
from repro.parallel.config import ParallelConfig
from repro.perfmodel.model import PerfModel
from repro.service import PlanRequest, plan_digest, plan_request
from repro.service import planner
from repro.telemetry import (
    CallbackSink,
    RingBufferSink,
    TelemetryBus,
    using_bus,
)
from repro.telemetry.events import (
    DRIVER_POOL_WORKER_START,
    PERFMODEL_ESTIMATE,
)

REFERENCE = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
    / "reference.json"
)


def _check_against_reference(model="gpt3-350m", estimates=16394, **kwargs):
    expected = json.loads(REFERENCE.read_text())["search"][model]
    assert expected["estimates"] == estimates
    _replay(expected, **kwargs)


def _replay(expected: dict, **kwargs) -> None:
    request = PlanRequest.from_json(expected["request"])
    outcome = plan_request(request, **kwargs)
    assert plan_digest(outcome.plan) == expected["digest"]
    assert outcome.objective == expected["objective"]
    assert outcome.num_estimates == expected["estimates"]
    assert not outcome.partial and not outcome.failures


SERVE = json.loads(REFERENCE.read_text())["serve"]


@pytest.mark.parametrize("fingerprint", sorted(SERVE))
def test_serve_request_matches_the_e2e_reference(fingerprint):
    _replay(SERVE[fingerprint])


def test_gpt3_350m_request_matches_the_e2e_reference(monkeypatch):
    # The counted cut of candidate pricing: recompute tuning reads an
    # Eq. 1-only view (7,561 stage-cache misses before it), move_ops
    # reuses the re-spanned stages it already built (8,241 before), and
    # an OOM candidate is scored from its Eq. 1 peaks (5,655 before).
    models, built = [], []
    build_perf_model, respan = planner.build_perf_model, apply._respan

    def counted_model(*args, **kwargs):
        models.append(build_perf_model(*args, **kwargs))
        return models[-1]

    def counted_respan(*args):
        built.append(None)
        return respan(*args)

    monkeypatch.setattr(planner, "build_perf_model", counted_model)
    monkeypatch.setattr(apply, "_respan", counted_respan)
    _check_against_reference(search_workers=1)
    assert [model.num_stage_costs for model in models] == [4969]
    assert len(built) == 4151


@pytest.mark.parametrize("logged", [False, True], ids=["no-sink", "keep-all"])
def test_gpt_1000l_request_matches_the_e2e_reference(monkeypatch, logged):
    # Depth is paid once: the graph builds one decoder layer and renames
    # it for the rest, and fine-tune clones a stage only for a candidate
    # it prices.  An OOM candidate is scored from its Eq. 1 peaks, with
    # no report and no stage's time terms (1,266 stage-cache misses and
    # 920 report assemblies before).  A sink keeping every event, as a
    # run log does, observes that work without changing it: one
    # perfmodel.estimate event per estimate, and every count the same.
    built, clones, priced, models = [], Counter(), Counter(), []
    post_init = OpSpec.__post_init__
    mutated_copy, objective = ParallelConfig.mutated_copy, PerfModel.objective
    build_perf_model, assemble = planner.build_perf_model, PerfModel._assemble
    assembled = []

    def counted_post_init(self):
        built.append(None)
        post_init(self)

    def counted_copy(self, *args):
        clones[sys._getframe(1).f_code.co_name] += 1
        return mutated_copy(self, *args)

    def counted_objective(self, *args):
        priced[sys._getframe(1).f_code.co_name] += 1
        return objective(self, *args)

    def counted_model(*args, **kwargs):
        models.append(build_perf_model(*args, **kwargs))
        return models[-1]

    def counted_assemble(self, *args):
        assembled.append(None)
        return assemble(self, *args)

    monkeypatch.setattr(OpSpec, "__post_init__", counted_post_init)
    monkeypatch.setattr(ParallelConfig, "mutated_copy", counted_copy)
    monkeypatch.setattr(PerfModel, "objective", counted_objective)
    monkeypatch.setattr(planner, "build_perf_model", counted_model)
    monkeypatch.setattr(PerfModel, "_assemble", counted_assemble)
    bus, sink = TelemetryBus(), RingBufferSink()
    if logged:
        bus.add_sink(sink)
    with using_bus(bus):
        _check_against_reference("gpt-1000l", 2564, search_workers=1)
    estimates = [e for e in sink.events if e.name == PERFMODEL_ESTIMATE]
    assert len(estimates) == (2564 if logged else 0)
    assert len(built) == 12
    assert [model.num_stage_costs for model in models] == [242]
    assert len(assembled) == 139
    tuned = {"_tune_suffix_parallel": 536, "_tune_partition_dims": 51}
    assert {name: clones[name] for name in tuned} == tuned
    assert {name: priced[name] for name in tuned} == tuned


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
