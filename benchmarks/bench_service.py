"""Serving latency: single daemon vs a 4-replica fleet, cold vs warm.

Drives a deterministic synthetic planner (fixed simulated search time)
through both fronts with the same workload — a cold pass over unique
fingerprints, then a warm pass over the same ones — and records
p50/p99 latency and plans/s for each cell, plus the coalescing rate
under a same-fingerprint burst.

Gates are *ratios measured on the same box* (machine-independent, like
the perfmodel gate):

* a warm cache hit must be far faster than a cold search
  (``warm_p50 <= cold_p50 * WARM_RATIO``) on both fronts;
* fleet routing overhead on a cold request is bounded
  (``fleet_cold_p50 <= single_cold_p50 * OVERHEAD_RATIO``);
* nothing is lost: every request is served, and a burst of identical
  concurrent requests collapses to one search.

Absolute numbers are recorded in BENCH_service.json but never asserted
on — CI runners share one usable core, so plans/s there says little
about a real deployment.
"""

import json
import os
import time

from common import RESULTS_DIR, emit, print_header, print_table

from repro.service import (
    STATUS_SERVED,
    FleetConfig,
    FleetRouter,
    InProcessReplica,
    PlanRequest,
    PlannerDaemon,
    synthetic_planner,
)

BENCH_JSON = os.path.join(RESULTS_DIR, "BENCH_service.json")

SEARCH_SECONDS = 0.01  # simulated search time per cold plan
UNIQUE_REQUESTS = 40
FLEET_REPLICAS = 4
BURST = 8

#: Warm (cache-hit) p50 must be at most this fraction of cold p50.
WARM_RATIO = 0.5
#: Fleet cold p50 may exceed single-daemon cold p50 by at most this.
OVERHEAD_RATIO = 4.0


def _requests():
    return [
        PlanRequest(model=f"m{i % 5}", gpus=4, iterations=2, seed=i)
        for i in range(UNIQUE_REQUESTS)
    ]


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _measure(submit, requests):
    """Sequential latency per request; returns (latencies, elapsed)."""
    latencies = []
    start = time.perf_counter()
    for request in requests:
        begin = time.perf_counter()
        response = submit(request)
        latencies.append(time.perf_counter() - begin)
        assert response.status == STATUS_SERVED, response.to_json()
    return latencies, time.perf_counter() - start


def _cell(latencies, elapsed):
    return {
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
        "plans_per_s": round(len(latencies) / elapsed, 1),
    }


def _coalescing_burst(daemon):
    """BURST identical requests in flight -> one search, BURST answers."""
    request = PlanRequest(model="burst", gpus=4, iterations=2)
    tickets = [daemon.submit_nowait(request) for _ in range(BURST)]
    responses = [t.wait(timeout=30) for t in tickets]
    assert all(r.status == STATUS_SERVED for r in responses)
    return sum(1 for r in responses if r.coalesced)


def test_service_latency_and_fleet_overhead():
    requests = _requests()

    single = PlannerDaemon(
        planner=synthetic_planner(SEARCH_SECONDS),
        workers=2,
        queue_limit=64,
    ).start()
    try:
        cold_lat, cold_s = _measure(
            lambda r: single.submit(r, timeout=30), requests
        )
        warm_lat, warm_s = _measure(
            lambda r: single.submit(r, timeout=30), requests
        )
        coalesced = _coalescing_burst(single)
    finally:
        single.drain(timeout=10)

    replicas = {
        f"r{i}": InProcessReplica(
            f"r{i}",
            planner=synthetic_planner(SEARCH_SECONDS),
            daemon_kwargs={"workers": 2, "queue_limit": 64},
        ).start()
        for i in range(FLEET_REPLICAS)
    }
    router = FleetRouter(
        replicas,
        config=FleetConfig(health_interval=30.0),
    ).start()
    try:
        fleet_cold_lat, fleet_cold_s = _measure(
            router.submit, requests
        )
        fleet_warm_lat, fleet_warm_s = _measure(
            router.submit, requests
        )
        shares = router.ring.shares(
            [r.fingerprint() for r in requests]
        )
    finally:
        router.stop()

    cells = {
        "single_cold": _cell(cold_lat, cold_s),
        "single_warm": _cell(warm_lat, warm_s),
        "fleet_cold": _cell(fleet_cold_lat, fleet_cold_s),
        "fleet_warm": _cell(fleet_warm_lat, fleet_warm_s),
    }

    print_header(
        f"Serving latency: 1 daemon vs {FLEET_REPLICAS}-replica fleet "
        f"({UNIQUE_REQUESTS} fingerprints, "
        f"{SEARCH_SECONDS * 1e3:.0f}ms simulated search)"
    )
    print_table(
        ["front", "pass", "p50 ms", "p99 ms", "plans/s"],
        [
            [
                name.split("_")[0],
                name.split("_")[1],
                f"{cell['p50_ms']:.2f}",
                f"{cell['p99_ms']:.2f}",
                f"{cell['plans_per_s']:.0f}",
            ]
            for name, cell in cells.items()
        ],
    )
    emit(
        f"coalescing burst: {BURST} identical in-flight requests -> "
        f"{coalesced} coalesced (1 search)"
    )
    emit(
        "ring shares across replicas: "
        + ", ".join(
            f"{name}={share:.2f}"
            for name, share in sorted(shares.items())
        )
    )

    warm_ratio = cells["single_warm"]["p50_ms"] / cells[
        "single_cold"
    ]["p50_ms"]
    fleet_warm_ratio = cells["fleet_warm"]["p50_ms"] / cells[
        "fleet_cold"
    ]["p50_ms"]
    overhead = cells["fleet_cold"]["p50_ms"] / cells[
        "single_cold"
    ]["p50_ms"]
    emit(
        f"warm/cold p50 ratio: single {warm_ratio:.2f}, "
        f"fleet {fleet_warm_ratio:.2f} (gate <= {WARM_RATIO})"
    )
    emit(
        f"fleet/single cold p50 overhead: {overhead:.2f}x "
        f"(gate <= {OVERHEAD_RATIO}x)"
    )

    # Ratio gates: same-box, machine-independent.
    assert warm_ratio <= WARM_RATIO, (
        "cache hits are not meaningfully faster than cold searches"
    )
    assert fleet_warm_ratio <= WARM_RATIO, (
        "the fleet's shared cache tier is not being hit"
    )
    assert overhead <= OVERHEAD_RATIO, (
        "fleet routing overhead exceeds the budget"
    )
    assert coalesced == BURST - 1, (
        f"expected {BURST - 1} coalesced followers, got {coalesced}"
    )
    # Balance sanity: no replica starves on this workload.
    assert all(share > 0 for share in shares.values())

    payload = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as handle:
            payload = json.load(handle)
    payload["fleet_latency"] = {
        "unique_requests": UNIQUE_REQUESTS,
        "replicas": FLEET_REPLICAS,
        "simulated_search_ms": SEARCH_SECONDS * 1e3,
        "cells": cells,
        "warm_cold_p50_ratio": round(warm_ratio, 4),
        "fleet_warm_cold_p50_ratio": round(fleet_warm_ratio, 4),
        "fleet_overhead_p50_ratio": round(overhead, 4),
        "coalesced_of_burst": f"{coalesced}/{BURST}",
        "ring_shares": {
            name: round(share, 4)
            for name, share in sorted(shares.items())
        },
        "gates": {
            "warm_ratio_max": WARM_RATIO,
            "overhead_ratio_max": OVERHEAD_RATIO,
        },
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2)
    emit(f"(written to {BENCH_JSON})")
