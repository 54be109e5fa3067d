#!/usr/bin/env python
"""CI smoke test for the strategy arena.

Races every registered search strategy (greedy, MCMC, bandit) on a
small model under a shared estimate budget and a 10-second deadline per
lane, through the ``repro-arena`` entry point (``cli.arena_main``), then
reads the tournament record it wrote and asserts that

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
#: Greedy and bandit tie on the objective; the first listed wins.
STRATEGIES = ("greedy", "mcmc", "bandit")
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
    """Race every strategy on one runner through ``repro-arena``;
    returns the problems found and the tournament's fingerprint."""
    from repro.arena import TournamentResult
    from repro.cli import arena_main
    from repro.telemetry import validate_run_log

    for path in (run_log, report_path):
        if os.path.exists(path):
            os.remove(path)

    print(f"-- workers={workers}")
    status = arena_main([
        "--model", MODEL,
        "--gpus", str(GPUS),
        "--stage-count", str(STAGE_COUNT),
        "--strategies", *STRATEGIES,
        "--max-estimates", str(MAX_ESTIMATES),
        "--deadline", str(DEADLINE_SECONDS),
        "--workers", str(workers),
        "--run-log", run_log,
        "--output", report_path,
        "--quiet",
    ])
    if status != 0:
        return [f"workers={workers}: repro-arena exited {status}"], None
    with open(report_path) as handle:
        result = TournamentResult.from_json(json.load(handle))

    problems = []
    for outcome in result.outcomes:
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
        if names.count(lifecycle) != len(STRATEGIES):
            problems.append(
                f"{names.count(lifecycle)} {lifecycle} events for "
                f"{len(STRATEGIES)} entries"
            )
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
