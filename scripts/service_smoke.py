#!/usr/bin/env python
"""CI smoke test for the planner service (`repro-serve`).

Boots the service (a fleet of one replica) as a real subprocess, fires
concurrent plan requests at it — including one guaranteed worker crash
(nonexistent model) and one sub-second deadline — and asserts that
every request gets a well-formed terminal response (served / partial /
rejected / failed), that nothing hangs, that the deadline request
answers ``partial`` or ``failed`` within its deadline plus the router's
``ATTEMPT_GRACE``, that ``/healthz`` lists exactly
one replica, that an already-served ``/plan`` repeated on one
keep-alive connection answers in well under the ~40 ms a Nagle plus
delayed-ACK stall would cost, and that the service drains cleanly on
SIGTERM leaving a schema-valid run log behind for the build artifact.

Run from the repository root: ``PYTHONPATH=src python scripts/service_smoke.py``
"""

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

from repro.service.fleet import ATTEMPT_GRACE

TERMINAL = {"served", "partial", "rejected", "failed"}
SMOKE_DIR = "smoke-service"
#: Repeats of one cached ``/plan`` on a single keep-alive connection.
KEEP_ALIVE_REPEATS = 20
KEEP_ALIVE_MEDIAN_MS = 20.0

REQUESTS = [
    # Normal load (the first two share a fingerprint: cache check).
    {"model": "gpt-2l", "gpus": 4, "stage_counts": [1, 2],
     "iterations": 3},
    {"model": "gpt-2l", "gpus": 4, "stage_counts": [1, 2],
     "iterations": 3},
    # Invalid request: the model does not exist.  Admission lint must
    # answer `rejected` with an ACE204 diagnostic (HTTP 400) without
    # ever spawning a search worker — never hang or 500-garbage.
    {"model": "no-such-model", "gpus": 4},
    # Sub-second deadline on a search that cannot finish in time: the
    # anytime path must answer with best-so-far or a clean failure.
    {"model": "gpt-4l", "gpus": 4, "stage_counts": [1, 2, 4],
     "iterations": 200, "deadline_seconds": 0.5},
    # Queue pressure with a priority request mixed in.
    {"model": "gpt-2l", "gpus": 4, "stage_counts": [1],
     "iterations": 2, "priority": 5},
    {"model": "gpt-2l", "gpus": 4, "stage_counts": [2],
     "iterations": 2},
]


def post_plan(port, payload, timeout=180):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/plan",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def keep_alive_repeats(port, payload):
    """``(milliseconds, cached)`` per repeat of ``payload`` on one
    connection; a first, untimed request makes sure the plan is cached."""
    body = json.dumps(payload)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=180)
    repeats = []
    try:
        for _ in range(KEEP_ALIVE_REPEATS + 1):
            start = time.perf_counter()
            conn.request(
                "POST", "/plan", body=body,
                headers={"Content-Type": "application/json"},
            )
            answer = json.loads(conn.getresponse().read())
            repeats.append(
                ((time.perf_counter() - start) * 1e3, answer.get("cached"))
            )
    finally:
        conn.close()
    return repeats[1:]


def main():
    os.makedirs(SMOKE_DIR, exist_ok=True)
    run_log = os.path.join(SMOKE_DIR, "daemon-events.jsonl")
    process = subprocess.Popen(
        [
            sys.executable, "-c",
            "from repro.cli import serve_main; "
            "raise SystemExit(serve_main())",
            "--port", "0",
            "--workers", "2",
            "--queue-limit", "3",
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

    results = [None] * len(REQUESTS)

    def client(index):
        start = time.monotonic()
        code, body = post_plan(port, REQUESTS[index])
        results[index] = (code, body, time.monotonic() - start)

    threads = [
        threading.Thread(target=client, args=(i,))
        for i in range(len(REQUESTS))
    ]
    # Give the crash and deadline requests a head start so they reach a
    # worker; the trailing pair then applies queue pressure.
    for thread in threads[:4]:
        thread.start()
    time.sleep(0.25)
    for thread in threads[4:]:
        thread.start()
    for thread in threads:
        thread.join(timeout=240)

    problems = []
    for index, result in enumerate(results):
        if result is None:
            problems.append(f"request {index} hung or errored")
            continue
        code, body, seconds = result
        status = body.get("status")
        print(f"request {index}: http {code} -> {status} in {seconds:.2f}s")
        if status not in TERMINAL:
            problems.append(
                f"request {index}: non-terminal status {status!r}"
            )
        if status in ("served", "partial") and not body.get("plan"):
            problems.append(f"request {index}: {status} without a plan")
        if (
            status == "rejected"
            and body.get("retry_after") is None
            and not body.get("diagnostics")
        ):
            # Back-pressure rejections must say when to retry; admission
            # -lint rejections instead carry structured diagnostics.
            problems.append(
                f"request {index}: rejected without retry_after "
                "or diagnostics"
            )
    if results[2] is not None:
        crash_code, crash_body, _ = results[2]
        crash_status = crash_body.get("status")
        if crash_status != "rejected":
            problems.append(
                f"unknown-model request answered {crash_status!r}, "
                "expected rejected (admission lint)"
            )
        else:
            codes = [
                d.get("code") for d in crash_body.get("diagnostics", [])
            ]
            if "ACE204" not in codes:
                problems.append(
                    f"unknown-model rejection lacks ACE204: {codes}"
                )
            if crash_code != 400:
                problems.append(
                    f"unknown-model rejection got http {crash_code}, "
                    "expected 400"
                )

    if results[3] is not None:
        # The request clock: admission starts the deadline, the search
        # answers anytime, and the router waits at most ATTEMPT_GRACE
        # past it.
        _, deadline_body, seconds = results[3]
        bound = REQUESTS[3]["deadline_seconds"] + ATTEMPT_GRACE
        if deadline_body.get("status") not in ("partial", "failed"):
            problems.append(
                f"deadline request answered {deadline_body.get('status')!r},"
                " expected partial or failed"
            )
        if seconds > bound:
            problems.append(
                f"deadline request answered in {seconds:.2f}s, "
                f"past its {bound:.1f}s bound"
            )

    code, health = (
        None,
        json.loads(
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=10
            ).read()
        ),
    )
    print(f"healthz: {health['status']}")
    if health["status"] not in ("healthy", "degraded"):
        problems.append(f"bad healthz status: {health['status']!r}")
    if list(health.get("replicas", {})) != ["replica-0"]:
        problems.append(
            f"healthz lists replicas {sorted(health.get('replicas', {}))}, "
            "expected exactly replica-0"
        )

    try:
        repeats = keep_alive_repeats(port, REQUESTS[0])
    except (OSError, ValueError) as error:
        problems.append(f"keep-alive phase: {error}")
    else:
        median = statistics.median(ms for ms, _ in repeats)
        misses = sum(1 for _, cached in repeats if not cached)
        print(
            f"keep-alive: {len(repeats)} cached /plan repeats, "
            f"median {median:.2f} ms"
        )
        if misses:
            problems.append(f"keep-alive: {misses} repeats missed the cache")
        if median >= KEEP_ALIVE_MEDIAN_MS:
            problems.append(
                f"keep-alive median {median:.2f} ms >= "
                f"{KEEP_ALIVE_MEDIAN_MS} ms (Nagle/delayed-ACK stall?)"
            )

    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        problems.append("daemon did not drain within 60s of SIGTERM")

    from repro.telemetry import validate_run_log

    events = validate_run_log(run_log)
    service_events = [
        e for e in events if e.name.startswith("service.")
    ]
    print(
        f"run log: {len(events)} events "
        f"({len(service_events)} service.*), schema OK"
    )
    if not service_events:
        problems.append("run log has no service.* events")

    if problems:
        print("\nFAILURES:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("service smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
