#!/usr/bin/env python
"""CI smoke test for elastic serving under churn.

Boots ``repro-serve`` (a fleet of one replica) as a real subprocess,
replays a seeded churn timeline against its ``/churn`` endpoint while
concurrently firing ``/plan`` requests, and asserts that

* every in-flight request gets a well-formed terminal response — churn
  may degrade answers, never drop them;
* every churn event is acknowledged by the router, which folds it into
  the membership it stamps on later requests and drops its shared plan
  tier (``elastic.cache.invalidate`` appears in the run log);
* after the last event the daemon serves the plan for the cluster
  the churn left: the same objective as a stage-count search on the
  folded planner view (the timeline ends with a straggler, which the
  nominal cluster would price at a lower objective);
* the daemon drains cleanly, leaving a schema-valid run log and a
  Chrome trace behind for the build artifact, and a state directory
  whose churned plan-cache entries and journals CI lints like nominal
  ones.

Run from the repository root:
``PYTHONPATH=src python scripts/elastic_smoke.py``
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

TERMINAL = {"served", "partial", "rejected", "failed"}
SMOKE_DIR = "smoke-elastic"
SEED = 11

#: Plan requests fired while churn is replaying.
REQUESTS = [
    {"model": "gpt-2l", "gpus": 4, "stage_counts": [1, 2],
     "iterations": 3},
    {"model": "gpt-2l", "gpus": 8, "stage_counts": [1, 2],
     "iterations": 3},
    {"model": "gpt-4l", "gpus": 4, "stage_counts": [1, 2],
     "iterations": 3},
    {"model": "gpt-2l", "gpus": 4, "stage_counts": [1, 2],
     "iterations": 3},
]


def post(port, path, payload, timeout=180):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def folded_search(timeline, request):
    """Best objective of a stage-count search on ``request``'s cluster
    folded with every event of ``timeline``."""
    from repro.cluster import paper_cluster
    from repro.core import search_all_stage_counts
    from repro.faults import Membership
    from repro.ir.models import build_model
    from repro.perfmodel import build_perf_model

    graph = build_model(request["model"])
    cluster = Membership.fold(
        paper_cluster(request["gpus"]), timeline.events
    ).view().planner
    return search_all_stage_counts(
        graph,
        cluster,
        build_perf_model(graph, cluster, seed=0),
        stage_counts=request["stage_counts"],
        budget_per_count={"max_iterations": request["iterations"]},
        strategy_kwargs={"seed": 0},
    ).best.best_objective


def main():
    os.makedirs(SMOKE_DIR, exist_ok=True)
    run_log = os.path.join(SMOKE_DIR, "daemon-events.jsonl")
    timeline_path = os.path.join(SMOKE_DIR, "smoke.churn.json")

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro.elastic import random_churn_timeline

    timeline = random_churn_timeline(
        4, 2, seed=SEED, num_events=6, horizon_seconds=10.0
    )
    timeline.save(timeline_path)
    print(f"timeline: {len(timeline.events)} events -> {timeline_path}")

    process = subprocess.Popen(
        [
            sys.executable, "-c",
            "from repro.cli import serve_main; "
            "raise SystemExit(serve_main())",
            "--port", "0",
            "--workers", "2",
            "--state-dir", os.path.join(SMOKE_DIR, "state"),
            "--run-log", run_log,
            "--quiet",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = process.stdout.readline()
    assert "listening on" in banner, f"daemon did not start: {banner!r}"
    port = int(banner.rsplit(":", 1)[1])
    print(f"daemon up on port {port}")

    problems = []
    results = [None] * len(REQUESTS)

    def client(index):
        results[index] = post(port, "/plan", REQUESTS[index])

    threads = [
        threading.Thread(target=client, args=(i,))
        for i in range(len(REQUESTS))
    ]
    for thread in threads[:2]:
        thread.start()

    # Replay churn while the first requests are in flight.
    churn_acks = []
    for event in timeline.events:
        code, body = post(port, "/churn", event.to_dict(), timeout=30)
        churn_acks.append((code, body))
        if code != 200:
            problems.append(
                f"churn event {event.kind}@{event.time:g} "
                f"answered http {code}: {body}"
            )
        time.sleep(0.05)

    for thread in threads[2:]:
        thread.start()
    for thread in threads:
        thread.join(timeout=240)

    for index, result in enumerate(results):
        if result is None:
            problems.append(f"request {index} hung or was dropped")
            continue
        code, body = result
        status = body.get("status")
        print(f"request {index}: http {code} -> {status}")
        if status not in TERMINAL:
            problems.append(
                f"request {index}: non-terminal status {status!r}"
            )
        if status in ("served", "partial") and not body.get("plan"):
            problems.append(f"request {index}: {status} without a plan")

    # A malformed churn event must 400, not crash the daemon.
    code, body = post(
        port, "/churn", {"time": 1.0, "kind": "meteor_strike"},
        timeout=30,
    )
    if code != 400:
        problems.append(
            f"invalid churn event answered http {code}, expected 400"
        )

    # After all churn: the daemon must serve the plan for the folded
    # cluster, not the nominal one (both share a plan digest here, so
    # compare objectives).
    final = {"model": "gpt-2l", "gpus": 4, "stage_counts": [1, 2],
             "iterations": 3}
    code, body = post(port, "/plan", final)
    final_status = body.get("status")
    print(f"final plan after churn: http {code} -> {final_status}")
    if final_status not in ("served", "partial") or not body.get("plan"):
        problems.append(
            f"no feasible plan after churn: {final_status!r}"
        )
    else:
        oracle = folded_search(timeline, final)
        print(
            f"final objective {body['objective']:.5f}, search on the "
            f"folded cluster {oracle:.5f}"
        )
        if body["objective"] != oracle:
            problems.append(
                f"final plan objective {body['objective']} is not the "
                f"folded cluster's {oracle}: churn missed the plan"
            )

    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        problems.append("daemon did not drain within 60s of SIGTERM")

    from repro.telemetry import (
        chrome_trace_from_events,
        validate_run_log,
        write_chrome_trace,
    )

    events = validate_run_log(run_log)
    invalidations = [
        e for e in events if e.name == "elastic.cache.invalidate"
    ]
    print(
        f"run log: {len(events)} events, "
        f"{len(invalidations)} cache invalidations, schema OK"
    )
    if len(invalidations) != len(timeline.events):
        problems.append(
            f"{len(invalidations)} elastic.cache.invalidate events "
            f"for {len(timeline.events)} churn events"
        )
    trace_path = os.path.join(SMOKE_DIR, "trace.json")
    write_chrome_trace(chrome_trace_from_events(events), trace_path)
    print(f"chrome trace -> {trace_path}")

    if problems:
        print("\nFAILURES:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("elastic smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
