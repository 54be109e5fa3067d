"""Elastic re-planning after device loss (the paper's §1 motivation).

Aceso argues that a cheap search enables *re*-search whenever cluster
resources change.  This module runs that experiment end-to-end: given
the top-k configurations found on the old cluster and the shrunken
surviving cluster, it

* **warm-starts** one search from the adapted survivors
  (:func:`repro.faults.inject.adapt_config`), versus
* **cold-restarts** the full per-stage-count driver from balanced
  initial configurations,

and reports, for each strategy, the estimates spent until the first
feasible configuration, the total estimates, the wall-clock
time-to-new-plan, and the objective reached — the numbers quoted in
``EXPERIMENTS.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..cluster.topology import ClusterSpec
from ..core.budget import SearchBudget
from ..core.search import (
    AcesoSearch,
    AcesoSearchOptions,
    default_stage_counts,
    search_all_stage_counts,
)
from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig
from ..parallel.initializer import balanced_config
from ..perfmodel.model import PerfModel
from ..profiling.profiler import SimulatedProfiler
from .inject import adapt_config, memory_safe_variant


@dataclass
class ReplanOutcome:
    """One re-planning strategy's cost and result."""

    strategy: str  # "warm" or "cold"
    best_config: ParallelConfig
    best_objective: float
    feasible: bool
    num_estimates: int
    estimates_to_feasible: Optional[int]
    wall_seconds: float


@dataclass
class ReplanComparison:
    """Warm-start vs. cold-restart on the surviving cluster."""

    warm: ReplanOutcome
    cold: ReplanOutcome

    @property
    def estimate_savings(self) -> float:
        """Fraction of cold-restart estimates the warm start avoided."""
        if self.cold.num_estimates <= 0:
            return 0.0
        return 1.0 - self.warm.num_estimates / self.cold.num_estimates


def _warm_replan(
    graph: OpGraph,
    cluster: ClusterSpec,
    survivors: Sequence[Tuple[float, ParallelConfig]],
    perf_model: PerfModel,
    options: Optional[AcesoSearchOptions],
    budget_kwargs: dict,
) -> ReplanOutcome:
    started = time.monotonic()
    adapted: List[ParallelConfig] = []
    seen = set()
    # Prior objective order: the old cluster's best plans first.  Each
    # adapted survivor is chased by its full-recompute variant — the
    # plain adaptation keeps the prior plan's speed but often overshoots
    # the smaller cluster's memory, while the safe variant is nearly
    # always feasible immediately.
    for _, config in sorted(survivors, key=lambda pair: pair[0]):
        candidate = adapt_config(config, graph, cluster)
        if candidate is None:
            continue
        for variant in (candidate, memory_safe_variant(candidate)):
            key = variant.cache_key()
            if key not in seen:
                seen.add(key)
                adapted.append(variant)

    init: Optional[ParallelConfig] = None
    init_objective = float("inf")
    # Survivors are estimated in prior objective order, so
    # ``first_feasible_estimate`` lands on the first feasible one.
    reports = perf_model.estimate_batch(adapted)
    for candidate, report in zip(adapted, reports):
        objective = perf_model.objective_from_report(report)
        if objective < init_objective:
            init, init_objective = candidate, objective
    if init is None:
        # No survivor could be adapted — degrade to a balanced start on
        # the new cluster (still one search, not a full cold restart).
        init = balanced_config(
            graph, cluster, min(2, cluster.num_gpus)
        )

    search = AcesoSearch(graph, cluster, perf_model, options=options)
    result = search.run(init, SearchBudget(**budget_kwargs))
    return ReplanOutcome(
        strategy="warm",
        best_config=result.best_config,
        best_objective=result.best_objective,
        feasible=result.is_feasible,
        num_estimates=perf_model.num_estimates,
        # The model tracks the first non-OOM report it ever costed,
        # whether that was an adapted survivor or a search candidate.
        estimates_to_feasible=perf_model.first_feasible_estimate,
        wall_seconds=time.monotonic() - started,
    )


def _cold_replan(
    graph: OpGraph,
    cluster: ClusterSpec,
    perf_model: PerfModel,
    options: Optional[AcesoSearchOptions],
    budget_kwargs: dict,
    stage_counts: Optional[Sequence[int]],
) -> ReplanOutcome:
    started = time.monotonic()
    counts = (
        list(stage_counts)
        if stage_counts is not None
        else default_stage_counts(graph, cluster)
    )
    multi = search_all_stage_counts(
        graph,
        cluster,
        perf_model,
        stage_counts=counts,
        options=options,
        budget_per_count=dict(budget_kwargs),
    )
    best = multi.best
    return ReplanOutcome(
        strategy="cold",
        best_config=best.best_config,
        best_objective=best.best_objective,
        feasible=best.is_feasible,
        num_estimates=perf_model.num_estimates,
        estimates_to_feasible=perf_model.first_feasible_estimate,
        wall_seconds=time.monotonic() - started,
    )


def elastic_replan(
    graph: OpGraph,
    cluster: ClusterSpec,
    survivors: Sequence[Tuple[float, ParallelConfig]],
    *,
    database=None,
    seed: int = 0,
    options: Optional[AcesoSearchOptions] = None,
    budget_per_count: Optional[dict] = None,
    stage_counts: Optional[Sequence[int]] = None,
) -> ReplanComparison:
    """Warm-start vs. cold-restart re-planning on ``cluster``.

    Args:
        graph: the model being trained.
        cluster: the *surviving* cluster (already shrunk).
        survivors: ``(objective, config)`` pairs from the old cluster's
            search (e.g. ``MultiStageSearchResult.top_configs()``).
        database: profile database for ``cluster``; profiled fresh with
            ``seed`` when omitted.
        options / budget_per_count: forwarded to both strategies so the
            comparison is apples-to-apples per search run.
        stage_counts: cold-restart stage counts (default powers of two).
    """
    if database is None:
        database = SimulatedProfiler(cluster, seed=seed).profile(graph)
    budget_kwargs = dict(budget_per_count or {"max_iterations": 15})
    SearchBudget.validate_kwargs(budget_kwargs)
    warm = _warm_replan(
        graph,
        cluster,
        survivors,
        PerfModel(graph, cluster, database),
        options,
        budget_kwargs,
    )
    cold = _cold_replan(
        graph,
        cluster,
        PerfModel(graph, cluster, database),
        options,
        budget_kwargs,
        stage_counts,
    )
    return ReplanComparison(warm=warm, cold=cold)
