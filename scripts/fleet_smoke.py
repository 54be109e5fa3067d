#!/usr/bin/env python
"""CI smoke test for the planner fleet (`repro-fleet`).

Two stages:

1. **Chaos replay** (in-process): a pinned-seed kill/restart schedule
   over a 3-replica fleet under synthetic traffic.  Asserts *zero lost
   requests* — every submit gets a terminal answer — and that every
   non-degraded plan digest is bit-identical to a fresh single-daemon
   oracle answering the same fingerprints.
2. **HTTP front-end**: boots `repro-fleet` as a real subprocess
   (2 replicas), fires plan requests (including a same-fingerprint
   pair for the shared-cache tier), checks /healthz and /invalidate,
   SIGTERMs it, then lints the run log (fleet.* cross-event
   invariants, ACE410/ACE411) with the repo's own linter and checks
   that its `fleet.start` event carries the fleet's routing config.

Run from the repository root: ``PYTHONPATH=src python scripts/fleet_smoke.py``
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

SMOKE_DIR = "smoke-fleet"
CHAOS_SEED = 2024
CHAOS_REQUESTS = 18
CHAOS_REPLICAS = 3

FLEET_REQUESTS = [
    {"model": "gpt-2l", "gpus": 4, "stage_counts": [1, 2],
     "iterations": 3},
    # Same fingerprint: must come back from the shared cache tier.
    {"model": "gpt-2l", "gpus": 4, "stage_counts": [1, 2],
     "iterations": 3},
    {"model": "gpt-4l", "gpus": 4, "stage_counts": [1, 2],
     "iterations": 2},
    # Admission lint must reject this through the fleet unchanged.
    {"model": "no-such-model", "gpus": 4},
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


def chaos_stage(problems):
    from repro.ioutil import write_json_atomic
    from repro.service import (
        PlanRequest,
        run_chaos,
        seeded_schedule,
        synthetic_planner,
    )

    requests = [
        PlanRequest(
            model=f"chaos-{i % 5}",
            gpus=4,
            iterations=2,
            seed=i % 3,
        )
        for i in range(CHAOS_REQUESTS)
    ]
    names = [f"replica-{i}" for i in range(CHAOS_REPLICAS)]
    events = seeded_schedule(
        seed=CHAOS_SEED, requests=len(requests), replicas=names, kills=2
    )
    print("chaos schedule: " + ", ".join(
        f"{e.kind} {e.replica}@{e.after_request}" for e in events
    ))
    report = run_chaos(
        requests,
        events,
        replicas=CHAOS_REPLICAS,
        planner=synthetic_planner(0.01),
        state_root=os.path.join(SMOKE_DIR, "chaos"),
        daemon_kwargs={"workers": 2, "queue_limit": 16},
    )
    write_json_atomic(
        os.path.join(SMOKE_DIR, "chaos-report.json"), report.to_dict()
    )
    print(
        f"chaos: {report.total} requests, {report.lost} lost, "
        f"{report.failovers} failovers, {report.degraded} degraded, "
        f"{report.digest_checked} digests checked, "
        f"{len(report.digest_mismatches)} mismatches"
    )
    if report.lost:
        problems.append(f"chaos run lost {report.lost} request(s)")
    if report.digest_mismatches:
        problems.append(
            "chaos plans diverged from the single-daemon oracle: "
            f"{report.digest_mismatches[:3]}"
        )
    if report.digest_checked == 0:
        problems.append("chaos run verified zero digests")


def fleet_stage(problems):
    run_log = os.path.join(SMOKE_DIR, "fleet-events.jsonl")
    state_dir = os.path.join(SMOKE_DIR, "state")
    process = subprocess.Popen(
        [
            sys.executable, "-c",
            "from repro.cli import fleet_main; "
            "raise SystemExit(fleet_main())",
            "--port", "0",
            "--replicas", "2",
            "--workers", "2",
            "--queue-limit", "4",
            "--state-dir", state_dir,
            "--run-log", run_log,
            "--quiet",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = process.stdout.readline()
    assert "listening on" in banner, f"fleet did not start: {banner!r}"
    port = int(banner.rsplit(":", 1)[1])
    print(f"fleet up on port {port}")

    try:
        responses = []
        for index, payload in enumerate(FLEET_REQUESTS):
            code, body = post(port, "/plan", payload)
            responses.append((code, body))
            print(
                f"request {index}: http {code} -> {body.get('status')} "
                f"(replica={body.get('replica')}, "
                f"cached={body.get('cached')})"
            )
        ok_code, ok_body = responses[0]
        if ok_code != 200 or ok_body.get("status") != "served":
            problems.append(f"first request not served: {ok_body}")
        hit_code, hit_body = responses[1]
        if not hit_body.get("cached"):
            problems.append("repeat fingerprint missed the shared cache")
        if hit_body.get("plan") != ok_body.get("plan"):
            problems.append("shared-cache hit returned a different plan")
        reject_code, reject_body = responses[3]
        codes = [
            d.get("code") for d in reject_body.get("diagnostics", [])
        ]
        if reject_code != 400 or "ACE204" not in codes:
            problems.append(
                "unknown model not rejected by admission through the "
                f"fleet: http {reject_code}, codes {codes}"
            )

        health = json.loads(
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=10
            ).read()
        )
        print(f"fleet healthz: {health['status']}")
        if health["status"] != "healthy":
            problems.append(f"fleet unhealthy: {health['status']!r}")
        if len(health.get("replicas", {})) != 2:
            problems.append(f"healthz lists {health.get('replicas')}")

        _, dropped = post(port, "/invalidate", {})
        print(f"invalidate fan-out: {dropped}")
        if sorted(dropped.get("replicas", [])) != [
            "replica-0", "replica-1"
        ]:
            problems.append(
                f"invalidate did not reach both replicas: {dropped}"
            )
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            problems.append("fleet did not stop within 60s of SIGTERM")

    from dataclasses import asdict

    from repro.lint import lint_run_log_file
    from repro.service.fleet import FleetConfig
    from repro.telemetry import validate_run_log

    events = validate_run_log(run_log)
    fleet_events = [e for e in events if e.name.startswith("fleet.")]
    print(
        f"run log: {len(events)} events "
        f"({len(fleet_events)} fleet.*), schema OK"
    )
    if not fleet_events:
        problems.append("run log has no fleet.* events")
    diagnostics = lint_run_log_file(run_log)
    if diagnostics:
        problems.append(
            "run log violates fleet invariants: "
            + "; ".join(d.render() for d in diagnostics)
        )

    # The fleet runs on the CLI's default routing knobs.
    starts = [e for e in fleet_events if e.name == "fleet.start"]
    if [e.attrs.get("config") for e in starts] != [asdict(FleetConfig())]:
        problems.append("fleet.start does not carry the fleet config")
    else:
        print("fleet.start carries the fleet config")
    leftovers = sorted(set(os.listdir(state_dir)) - {"replica-0", "replica-1"})
    if leftovers:
        problems.append(f"state dir holds more than replica dirs: {leftovers}")


def main():
    os.makedirs(SMOKE_DIR, exist_ok=True)
    problems = []
    chaos_stage(problems)
    fleet_stage(problems)
    if problems:
        print("\nFAILURES:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("fleet smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
