"""Pinned executor measurements under churn-derived fault plans.

Each timeline is folded by ``FaultPlan.from_timeline`` and run on one
fixed 2-stage plan over a 2 x 4 cluster, so stage 1 sits on node 1 and
the stage boundary crosses the inter-node link.  The pins are exact:
any change to how a fault reaches the executor must leave every
degraded or halted measurement bit-identical.
"""

import pytest

from repro.cluster import ClusterSpec
from repro.elastic import ChurnEvent, ChurnTimeline
from repro.faults import FaultPlan
from repro.parallel import balanced_config
from repro.runtime import Executor

from conftest import make_tiny_gpt

TIMELINES = {
    "device_fail": (
        ChurnEvent(0.0015, "device_fail", device_id=5),
    ),
    "straggler_and_link": (
        ChurnEvent(0.0, "straggler_on", device_id=2, factor=2.0),
        ChurnEvent(0.0, "link_degrade", scope="inter", factor=0.5),
    ),
    "preempt_then_join": (
        ChurnEvent(0.001, "node_preempt", node_id=0),
        ChurnEvent(0.002, "node_join", node_id=0),
    ),
}

PINNED = {
    "device_fail": {
        "iteration_time": "0x1.89374bc6a7efap-10",
        "stage_busy": [0.001376763195364367, 0.0010058049019358668],
        "completed": False,
        "degraded": False,
        "failure_time": 0.0015,
        "failed_device": 5,
        "tasks_completed": 16,
        "tasks_total": 32,
    },
    "straggler_and_link": {
        "iteration_time": "0x1.6b61203e170ddp-8",
        "stage_busy": [0.005544729587281885, 0.002030182908777415],
        "completed": True,
        "degraded": True,
        "failure_time": None,
        "failed_device": None,
        "tasks_completed": 32,
        "tasks_total": 32,
    },
    "preempt_then_join": {
        "iteration_time": "0x1.0624dd2f1a9fcp-10",
        "stage_busy": [0.0008606140242355006, 0.0006307665635378924],
        "completed": False,
        "degraded": False,
        "failure_time": 0.001,
        "failed_device": 0,
        "tasks_completed": 10,
        "tasks_total": 32,
    },
}


@pytest.mark.parametrize("name", sorted(TIMELINES))
def test_faulted_measurements_are_pinned(name):
    cluster = ClusterSpec(num_nodes=2, gpus_per_node=4)
    graph = make_tiny_gpt()
    config = balanced_config(graph, cluster, 2)
    plan = FaultPlan.from_timeline(
        ChurnTimeline(events=TIMELINES[name]), cluster
    )
    result = Executor(graph, cluster, seed=0).run(config, plan)
    measured = {
        "iteration_time": result.iteration_time.hex(),
        "stage_busy": list(result.stage_busy),
        "completed": result.completed,
        "degraded": result.degraded,
        "failure_time": result.failure_time,
        "failed_device": result.failed_device,
        "tasks_completed": result.tasks_completed,
        "tasks_total": result.tasks_total,
    }
    assert measured == PINNED[name]
