#!/usr/bin/env python
"""CI smoke test for the strategy arena.

Races every registered search strategy (greedy, MCMC, bandit) on a
small model under a shared estimate budget and a 10-second deadline per
lane, then asserts that

* every lane finishes without an error and finds a **feasible** plan;
* the tournament is **bit-reproducible**: the winner and the greedy
  lane's deterministic digest match the committed reference
  (``scripts/arena_smoke_reference.json``) — regenerate the reference
  (delete the file and rerun) only with an intentional search change;
* each run log left behind is schema-valid and contains the full
  ``arena.*`` lifecycle.

It races twice, with the lanes in this process and then on a
two-process worker pool, and both races must match the one reference.
Artifacts land in ``smoke-arena/`` (a run log and a tournament JSON
report per race, the pool's suffixed ``-pool``) for the build upload.

Run from the repository root:
``PYTHONPATH=src python scripts/arena_smoke.py``
"""

import hashlib
import json
import os
import sys

SMOKE_DIR = "smoke-arena"
REFERENCE = os.path.join("scripts", "arena_smoke_reference.json")

MODEL = "gpt-4l"
GPUS = 4
STAGE_COUNT = 2
SEED = 0
MAX_ESTIMATES = 400
DEADLINE_SECONDS = 10.0

#: ``(workers, artifact suffix)``: lanes in this process, then on a
#: two-process worker pool; both must match the one reference.
RUNNERS = ((1, ""), (2, "-pool"))

#: Wall-clock fields are excluded from the digest by construction.
DETERMINISTIC_FIELDS = (
    "strategy", "seed", "best_objective", "feasible", "converged",
    "num_estimates", "estimates_to_best", "iterations",
    "best_signature", "curve", "error",
)


def digest(outcome_json):
    view = {
        field: outcome_json[field] for field in DETERMINISTIC_FIELDS
    }
    return hashlib.sha256(
        json.dumps(view, sort_keys=True).encode()
    ).hexdigest()[:16]


def race(workers, run_log, report_path, reference):
    """Race every strategy on one runner; returns the problems found
    and the tournament's fingerprint."""
    from repro.arena import ArenaEntry, run_tournament
    from repro.cluster import paper_cluster
    from repro.ir.models import build_model
    from repro.profiling import SimulatedProfiler
    from repro.telemetry import (
        JsonlSink,
        TelemetryBus,
        using_bus,
        validate_run_log,
    )

    if os.path.exists(run_log):
        os.remove(run_log)

    graph = build_model(MODEL)
    cluster = paper_cluster(GPUS)
    database = SimulatedProfiler(cluster, seed=SEED).profile(graph)
    entries = [
        ArenaEntry(strategy=name, seed=SEED)
        for name in ("greedy", "mcmc", "bandit")
    ]

    sink = JsonlSink(run_log, flush_every=1)
    bus = TelemetryBus()
    bus.add_sink(sink)
    try:
        with using_bus(bus):
            result = run_tournament(
                graph, cluster, database,
                entries=entries,
                stage_count=STAGE_COUNT,
                budget_per_entry={"max_estimates": MAX_ESTIMATES},
                deadline_seconds=DEADLINE_SECONDS,
                workers=workers,
                label=f"smoke/{MODEL}/gpus={GPUS}",
            )
    finally:
        sink.close()
    result.write_json(report_path)

    print(f"-- workers={workers}")
    problems = []
    for outcome in result.outcomes:
        line = (
            f"{outcome.strategy}#{outcome.seed}: "
            f"objective={outcome.best_objective:.6f} "
            f"feasible={outcome.feasible} "
            f"estimates={outcome.num_estimates} "
            f"iters={outcome.iterations}"
        )
        print(line)
        if outcome.failed:
            problems.append(f"{outcome.strategy}#{outcome.seed} failed: {outcome.error}")
        elif not outcome.feasible:
            problems.append(f"{outcome.strategy}#{outcome.seed} found no feasible plan")

    fingerprint = None
    winner = result.winner
    if winner is None:
        problems.append("tournament produced no winner")
    else:
        greedy = result.outcome_for("greedy")
        fingerprint = {
            "winner": winner.strategy,
            "winner_digest": digest(winner.to_json()),
            "greedy_digest": digest(greedy.to_json()),
        }
        print(f"winner: {winner.strategy} "
              f"({winner.best_objective:.6f}), "
              f"digests: {fingerprint['winner_digest']} / "
              f"greedy {fingerprint['greedy_digest']}")
        if reference is not None and reference != fingerprint:
            problems.append(
                f"workers={workers}: tournament drifted from the "
                f"committed reference {REFERENCE}: expected "
                f"{reference}, got {fingerprint} — regenerate (delete "
                f"the file and rerun) only with an intentional search "
                f"change"
            )
        elif reference is not None:
            print(f"(matches committed {REFERENCE})")

    events = validate_run_log(run_log)
    names = [event.name for event in events]
    print(f"run log: {len(events)} events, schema OK")
    if names.count("arena.begin") != 1 or names.count("arena.end") != 1:
        problems.append("run log missing the arena.begin/arena.end pair")
    for lifecycle in ("arena.entry.begin", "arena.entry.end"):
        if names.count(lifecycle) != len(entries):
            problems.append(
                f"{names.count(lifecycle)} {lifecycle} events for "
                f"{len(entries)} entries"
            )
    print(f"report -> {report_path}")
    return problems, fingerprint


def main():
    os.makedirs(SMOKE_DIR, exist_ok=True)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    reference = None
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as handle:
            reference = json.load(handle)
    problems = []
    for workers, suffix in RUNNERS:
        found, fingerprint = race(
            workers,
            os.path.join(SMOKE_DIR, f"arena-events{suffix}.jsonl"),
            os.path.join(SMOKE_DIR, f"arena-report{suffix}.json"),
            reference,
        )
        problems.extend(found)
        if reference is None and fingerprint is not None:
            # The first run writes the reference; the second is checked
            # against it.
            reference = fingerprint
            with open(REFERENCE, "w") as handle:
                json.dump(fingerprint, handle, indent=2)
                handle.write("\n")
            print(f"(reference written to {REFERENCE} — commit it)")

    if problems:
        print("\nFAILURES:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("arena smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
