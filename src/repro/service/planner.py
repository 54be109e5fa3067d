"""One request → one search → one plan, for both ways in.

:func:`plan_request` is the only place a :class:`PlanRequest` becomes a
search: ``repro-search`` builds a request from its flags, and the
daemon behind ``/plan`` plans each admitted request with it.  The rest
of the service package treats planning as an opaque callable, which is
also how tests swap in deterministic fakes:

``planner(request, deadline=None, checkpoint_path=None) -> PlanOutcome``

raising on failure.  The deadline cuts the search anytime (a timed-out
search still returns its best-so-far plan, ``PlanOutcome.partial``),
and an existing ``checkpoint_path`` is resumed unless ``resume=False``
— which is how a drained daemon's re-admitted requests pick up where
the SIGTERM left them.  The other keywords carry the CLI flags with no
request field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..cluster.topology import paper_cluster
from ..core.budget import Deadline
from ..core.search import MultiStageSearchResult, search_all_stage_counts
from ..ir.models.registry import build_model
from ..parallel.serialization import config_to_dict
from ..perfmodel.model import build_perf_model
from .protocol import PlanRequest


@dataclass
class PlanOutcome:
    """What a planner hands back to its caller."""

    plan: dict
    objective: float
    partial: bool = False
    num_estimates: int = 0
    failures: list = field(default_factory=list)
    #: The driver result behind the plan (``None`` from fake planners).
    search: Optional[MultiStageSearchResult] = None


def plan_digest(plan: Optional[dict]) -> Optional[str]:
    """Canonical digest of a plan dict (``None`` for no plan).

    The chaos harness compares fleet answers against a single-daemon
    oracle with this: two searches are bit-identical exactly when their
    digests match, regardless of dict ordering.
    """
    if plan is None:
        return None
    digest = hashlib.sha256(
        json.dumps(plan, sort_keys=True).encode("utf-8")
    )
    return digest.hexdigest()[:16]


def plan_request(
    request: PlanRequest,
    *,
    deadline: Optional[Deadline] = None,
    checkpoint_path=None,
    resume: bool = True,
    search_workers: int = 1,
    timeout_per_count: Optional[float] = None,
    worker_memory_mb: Optional[float] = None,
    max_retries: int = 1,
) -> PlanOutcome:
    """Search a plan for ``request``; raises ``SearchFailedError`` when
    nothing at all survived (the daemon maps that to a failed response
    and a breaker failure)."""
    graph = build_model(request.model)
    cluster = paper_cluster(request.gpus)
    perf_model = build_perf_model(graph, cluster, seed=request.seed)
    # The request seed also seeds the strategy (MCMC walk, bandit
    # tie-breaks) unless the client pinned one explicitly — the
    # fingerprint already covers both fields.
    strategy_kwargs = dict(request.strategy_kwargs or {})
    strategy_kwargs.setdefault("seed", request.seed)
    multi = search_all_stage_counts(
        graph,
        cluster,
        perf_model,
        stage_counts=request.stage_counts,
        strategy=request.strategy,
        strategy_kwargs=strategy_kwargs,
        budget_per_count={"max_iterations": request.iterations},
        workers=search_workers,
        timeout_per_count=timeout_per_count,
        worker_memory_mb=worker_memory_mb,
        deadline=deadline,
        checkpoint_path=checkpoint_path,
        resume=resume,
        max_retries=max_retries,
    )
    best = multi.best  # raises SearchFailedError when empty
    return PlanOutcome(
        plan=config_to_dict(best.best_config),
        objective=best.best_objective,
        partial=multi.partial,
        num_estimates=multi.num_estimates,
        failures=[asdict(f) for f in multi.failures],
        search=multi,
    )
