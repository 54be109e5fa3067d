"""The end-to-end benchmark's gpt3-350m reference plan, in tier-1.

``benchmarks/e2e/reference.json`` records the plan digest, objective
and estimate count of each search workload's request.  The benchmark
checks a plan's digest and objective; this test also pins the estimate
count, which is Exp#4's "explored configurations" metric and what every
estimate-budgeted search spends.  It reads the reference and never
rewrites it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.service import PlanRequest, plan_digest, plan_request

REFERENCE = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
    / "reference.json"
)


def test_gpt3_350m_request_matches_the_e2e_reference():
    expected = json.loads(REFERENCE.read_text())["search"]["gpt3-350m"]
    request = PlanRequest.from_json(expected["request"])
    outcome = plan_request(request, search_workers=1)
    assert plan_digest(outcome.plan) == expected["digest"]
    assert outcome.objective == expected["objective"]
    assert outcome.num_estimates == expected["estimates"] == 16394
    assert not outcome.partial and not outcome.failures
