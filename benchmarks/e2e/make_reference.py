#!/usr/bin/env python3
"""Regenerate reference.json: the plan every benchmark request must get.

    PYTHONPATH=src python benchmarks/e2e/make_reference.py

Runs each distinct request of the benchmark once through
``repro.service.plan_request`` and records its plan digest
(``repro.service.plan_digest``), objective and estimate count.  The
search workloads' seed only reorders the stage counts, which must not
change the plan, so one entry per search model covers every seed; the
serve entries are keyed by request fingerprint.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def _entry(request, outcome, plan_digest) -> dict:
    return {
        "request": request.to_json(),
        "digest": plan_digest(outcome.plan),
        "objective": outcome.objective,
        "estimates": outcome.num_estimates,
    }


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from repro.service import PlanRequest, plan_digest, plan_request

    reference = {"search": {}, "serve": {}}
    for name in run.SEARCH:
        model = run.SEARCH[name]["model"]
        if model in reference["search"]:
            continue
        request = PlanRequest.from_json(
            run._search_request(name, run.STAGE_COUNTS))
        reference["search"][model] = _entry(
            request, plan_request(request), plan_digest)
        print(model, reference["search"][model]["digest"], flush=True)
    for payload in run.serve_requests():
        request = PlanRequest.from_json(payload)
        reference["serve"][request.fingerprint()] = _entry(
            request, plan_request(request), plan_digest)
    Path(run.REFERENCE).write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
