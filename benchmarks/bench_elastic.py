"""Sustained throughput under churn: elastic controller vs oracle.

Replays a seeded churn timeline through the elastic controller and
compares the throughput it sustains against a *cold re-search oracle*
that, at every decision point, runs the full per-stage-count driver
from scratch on the same degraded cluster view — the best plan money
can buy at each instant, charged nothing for finding it.

Reports, per ``benchmarks/results/BENCH_elastic.json``:

* time-weighted throughput retention (controller / oracle),
* wall-clock recovery time per churn event kind (how long a replan
  triggered by that kind takes end to end),
* decision mix (replans vs keeps vs fallbacks) and estimate counts.

The retention floor asserted here is intentionally loose — the point
is that a handful of warm search iterations per event recovers most of
what an unbounded cold re-search would, which is the paper's "cheap
search enables continuous re-planning" argument measured end to end.
"""

import json
import os
from collections import defaultdict

from common import RESULTS_DIR, emit, print_header, print_table

from repro.cluster import ClusterSpec
from repro.core import search_all_stage_counts
from repro.elastic import (
    ChurnEvent,
    ControllerPolicy,
    ElasticController,
    random_churn_timeline,
)
from repro.ir.models import build_model
from repro.runtime import Executor

BENCH_JSON = os.path.join(RESULTS_DIR, "BENCH_elastic.json")

MODEL = "gpt-4l"
NUM_NODES = 4
GPUS_PER_NODE = 2
SEED = 3
NUM_EVENTS = 8
HORIZON = 60.0
WARM_ITERATIONS = 4
ORACLE_ITERATIONS = 12

#: Controller must sustain at least this fraction of the oracle's
#: time-weighted throughput (loose on purpose; typical is >0.85).
RETENTION_FLOOR = 0.6


def _time_weights(decisions, horizon):
    """Seconds each decision's plan serves (until the next decision)."""
    times = [d.time for d in decisions]
    ends = times[1:] + [max(horizon, times[-1]) + 1.0]
    return [end - start for start, end in zip(times, ends)]


def _oracle_throughput(graph, controller, timeline, decisions):
    """Cold re-search at every decision point of the warm run.

    Rebuilds the membership state the controller saw, then runs the
    full multi-stage-count driver on the same planner view and
    measures the winner on the same executor/fault view.
    """
    from repro.elastic.controller import _MembershipState
    from repro.perfmodel import PerfModel

    state = _MembershipState(controller.cluster.gpus_per_node)
    event_iter = iter(timeline.events)
    consumed = []
    throughputs = []
    for decision in decisions:
        while len(consumed) < sum(
            len(d.events) for d in decisions[: decision.index + 1]
        ):
            event = next(event_iter)
            state.apply(event)
            consumed.append(event)
        view = controller._project(state)
        model = controller._model_for(view.planner)
        multi = search_all_stage_counts(
            graph,
            view.planner,
            PerfModel(graph, view.planner, model.database),
            budget_per_count={"max_iterations": ORACLE_ITERATIONS},
        )
        best = multi.best.best_config
        result = Executor(graph, view.effective, seed=SEED).run(
            best, view.fault_view
        )
        throughputs.append(
            result.throughput(graph.global_batch_size)
        )
    return throughputs


def test_elastic_sustained_throughput():
    graph = build_model(MODEL)
    cluster = ClusterSpec(
        num_nodes=NUM_NODES, gpus_per_node=GPUS_PER_NODE
    )
    timeline = random_churn_timeline(
        NUM_NODES,
        GPUS_PER_NODE,
        seed=SEED,
        num_events=NUM_EVENTS,
        horizon_seconds=HORIZON,
    )
    controller = ElasticController(
        graph,
        cluster,
        seed=SEED,
        policy=ControllerPolicy(replan_iterations=WARM_ITERATIONS),
    )
    run = controller.run(timeline)
    assert run.decisions, "timeline produced no decisions"
    assert run.final_feasible, "controller must end with a servable plan"

    oracle = _oracle_throughput(
        graph, controller, timeline, run.decisions
    )
    weights = _time_weights(run.decisions, timeline.horizon)
    warm_avg = sum(
        d.throughput * w for d, w in zip(run.decisions, weights)
    ) / sum(weights)
    oracle_avg = sum(
        t * w for t, w in zip(oracle, weights)
    ) / sum(weights)
    retention = warm_avg / oracle_avg if oracle_avg > 0 else 1.0

    # Recovery wall time per event kind: replans attributed to every
    # kind in their triggering batch.
    recovery = defaultdict(list)
    for decision in run.decisions:
        if decision.action in ("replan", "fallback"):
            for event in decision.events:
                recovery[event["kind"]].append(
                    decision.replan_seconds
                )
    recovery_by_kind = {
        kind: sum(vals) / len(vals)
        for kind, vals in sorted(recovery.items())
    }

    print_header(
        "Elastic controller vs cold re-search oracle "
        f"({MODEL}, {NUM_NODES}x{GPUS_PER_NODE} GPUs, "
        f"{NUM_EVENTS} events)"
    )
    print_table(
        ["t", "events", "action", "gpus", "warm sm/s", "oracle sm/s"],
        [
            [
                f"{d.time:.1f}s",
                ",".join(e["kind"] for e in d.events)[:26],
                d.action,
                d.cluster_gpus,
                f"{d.throughput:.0f}",
                f"{o:.0f}",
            ]
            for d, o in zip(run.decisions, oracle)
        ],
    )
    emit(
        f"time-weighted throughput: controller {warm_avg:.0f} "
        f"vs oracle {oracle_avg:.0f} samples/s "
        f"(retention {retention:.1%})"
    )
    for kind, secs in recovery_by_kind.items():
        emit(f"recovery after {kind}: {secs:.2f}s wall")

    payload = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as handle:
            payload = json.load(handle)
    payload["sustained_throughput"] = {
        "model": MODEL,
        "cluster": f"{NUM_NODES}x{GPUS_PER_NODE}",
        "seed": SEED,
        "num_events": NUM_EVENTS,
        "replay_digest": run.replay_digest(),
        "controller_samples_per_s": round(warm_avg, 3),
        "oracle_samples_per_s": round(oracle_avg, 3),
        "throughput_retention": round(retention, 4),
        "num_replans": run.num_replans,
        "num_decisions": len(run.decisions),
        "recovery_seconds_by_kind": {
            kind: round(secs, 4)
            for kind, secs in recovery_by_kind.items()
        },
        "warm_iterations": WARM_ITERATIONS,
        "oracle_iterations": ORACLE_ITERATIONS,
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2)
    emit(f"(written to {BENCH_JSON})")

    assert retention >= RETENTION_FLOOR, (
        f"controller retained only {retention:.1%} of oracle "
        f"throughput (floor {RETENTION_FLOOR:.0%})"
    )


def test_elastic_never_drops_the_plan():
    """Nasty burst: preempt to one node and stack perf faults — the
    controller must hold a servable plan at every decision."""
    graph = build_model(MODEL)
    cluster = ClusterSpec(num_nodes=4, gpus_per_node=2)
    from repro.elastic import ChurnTimeline

    timeline = ChurnTimeline(seed=1, events=(
        ChurnEvent(1.0, "node_preempt", node_id=0),
        ChurnEvent(1.1, "node_preempt", node_id=1),
        ChurnEvent(1.2, "node_preempt", node_id=2),
        ChurnEvent(5.0, "straggler_on", device_id=6, factor=3.0),
        ChurnEvent(9.0, "link_degrade", scope="intra", factor=0.4),
        ChurnEvent(14.0, "node_join", node_id=0),
        ChurnEvent(20.0, "link_degrade", scope="inter", factor=0.5),
    ))
    run = ElasticController(
        graph,
        cluster,
        seed=1,
        policy=ControllerPolicy(replan_iterations=3),
    ).run(timeline)
    for decision in run.decisions:
        assert decision.action != "halt"
        assert decision.plan_signature
    assert run.final_feasible
