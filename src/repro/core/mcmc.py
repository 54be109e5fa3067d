"""Metropolis-Hastings search over the reconfiguration primitives.

The baseline FlexFlow compares against Aceso searches the same space
with an MCMC random walk: propose a random mutation, accept it with a
temperature-scaled probability, cool down over time.  This strategy
transplants that walk onto Aceso's machinery — proposals are drawn
from the Table 1 primitives applied to a *randomly chosen* top
bottleneck (rather than FlexFlow's uniform op mutation), so both
strategies consume the identical move set and performance model and
the arena compares pure search policy.

Acceptance uses a *relative* Metropolis criterion,
``exp(-Δ / (T · |current|))``: objectives span seconds-per-iteration
for feasible plans and the ``1e9``-scaled OOM penalty for infeasible
ones, so an absolute Δ would freeze the walk the moment it neared a
feasibility boundary.  Relative scaling keeps the acceptance curve
meaningful at both magnitudes: escaping OOM is always accepted,
entering it essentially never.

Every proposal is emitted as a ``search.strategy.proposal`` telemetry
event and the run closes with one ``search.strategy.stats`` summary
(acceptance rate, restarts, final temperature) — the arena's
per-strategy diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..parallel.config import ParallelConfig
from ..telemetry.events import (
    SEARCH_STRATEGY_PROPOSAL,
    SEARCH_STRATEGY_STATS,
)
from .apply import ApplyContext, apply_primitive
from .bottleneck import Bottleneck, rank_bottlenecks
from .budget import Deadline, SearchBudget
from .primitives import eligibility_walk
from .searcher import SearchContext, Searcher, register_searcher

#: Relative-objective floor so the acceptance denominator never hits 0.
_TINY = 1e-12


@dataclass
class MCMCOptions:
    """Tunables of the Metropolis-Hastings walk.

    ``initial_temperature`` is in *relative objective* units: at
    T=0.25 a proposal 25% worse than the current plan is accepted with
    probability ``1/e``.  ``restart_patience`` consecutive rejected or
    empty proposals teleport the walk to the best unexplored
    configuration (falling back to the incumbent best) and reset the
    temperature — the walk's answer to a local minimum.
    """

    seed: int = 0
    initial_temperature: float = 0.25
    cooling: float = 0.97
    min_temperature: float = 1e-3
    max_bottlenecks: int = 3
    top_k: int = 5
    attach_recompute: bool = True
    restart_patience: int = 12


def _proposal_primitives(bottleneck: Bottleneck) -> List[str]:
    """The primitive names a proposal draws from, in Heuristic-2
    order (the walk picks one at random instead of scoring them)."""
    return [name for _, name in eligibility_walk(bottleneck.resources)]


@register_searcher
class MCMCSearcher(Searcher):
    """Seeded Metropolis-Hastings over the reconfiguration primitives."""

    strategy = "mcmc"
    options_class = MCMCOptions

    def run(
        self,
        init_config: ParallelConfig,
        budget: SearchBudget,
        *,
        deadline: Optional[Deadline] = None,
    ):
        opts = self.options
        ctx = SearchContext(
            self.perf_model, budget, deadline=deadline, top_k=opts.top_k
        )
        rng = np.random.default_rng(opts.seed)

        current = init_config
        current_objective = ctx.open(init_config)
        ctx.visited.add(init_config)
        temperature = opts.initial_temperature
        proposed = accepted = empty = restarts = 0
        stalled = 0

        while not ctx.exhausted():
            if ctx.deadline_expired():
                ctx.partial = True
                break
            ctx.iteration += 1
            report = self.perf_model.estimate(current)
            bottlenecks = rank_bottlenecks(report)[: opts.max_bottlenecks]
            bottleneck = bottlenecks[int(rng.integers(len(bottlenecks)))]
            primitives = _proposal_primitives(bottleneck)
            candidates: List[ParallelConfig] = []
            primitive = None
            if primitives:
                primitive = primitives[int(rng.integers(len(primitives)))]
                apply_ctx = ApplyContext(
                    graph=self.graph,
                    cluster=self.cluster,
                    perf_model=self.perf_model,
                    config=current,
                    report=report,
                    bottleneck=bottleneck,
                    attach_recompute=opts.attach_recompute,
                )
                candidates = apply_primitive(primitive, apply_ctx)
            proposed += 1

            if not candidates:
                empty += 1
                stalled += 1
                ctx.emit(
                    SEARCH_STRATEGY_PROPOSAL,
                    strategy=self.strategy,
                    primitive=primitive,
                    resource=bottleneck.primary_resource,
                    accepted=False,
                    empty=True,
                    delta=0.0,
                    temperature=temperature,
                )
                ctx.record_iteration(
                    bottlenecks_tried=1,
                    hops_used=0,
                    improved=False,
                    objective=current_objective,
                )
            else:
                candidate = candidates[int(rng.integers(len(candidates)))]
                objective = self.perf_model.objective(candidate)
                if ctx.visited.add(candidate):
                    ctx.unexplored.put(candidate, objective)
                delta = objective - current_objective
                scale = temperature * max(abs(current_objective), _TINY)
                accept = delta <= 0 or float(rng.random()) < math.exp(
                    -delta / scale
                )
                improved = ctx.observe(objective, candidate)
                ctx.emit(
                    SEARCH_STRATEGY_PROPOSAL,
                    strategy=self.strategy,
                    primitive=primitive,
                    resource=bottleneck.primary_resource,
                    accepted=accept,
                    empty=False,
                    delta=delta,
                    temperature=temperature,
                )
                ctx.record_iteration(
                    bottlenecks_tried=1,
                    hops_used=1 if accept else 0,
                    improved=improved,
                    objective=objective,
                )
                if accept:
                    accepted += 1
                    ctx.unexplored.remove(candidate)
                    current = candidate
                    current_objective = objective
                    stalled = 0 if improved else stalled + 1
                else:
                    stalled += 1

            temperature = max(
                temperature * opts.cooling, opts.min_temperature
            )
            if stalled >= opts.restart_patience:
                restart = ctx.unexplored.pop_best()
                if restart is None and not candidates:
                    # Nothing left to teleport to and proposals are not
                    # even generating candidates: the walk is out of
                    # moves (an estimate-only budget would never trip).
                    ctx.converged = True
                    break
                restarts += 1
                current = restart if restart is not None else ctx.best
                current_objective = self.perf_model.objective(current)
                temperature = opts.initial_temperature
                stalled = 0

        ctx.emit(
            SEARCH_STRATEGY_STATS,
            strategy=self.strategy,
            proposed=proposed,
            accepted=accepted,
            empty=empty,
            restarts=restarts,
            acceptance_rate=(accepted / proposed) if proposed else 0.0,
            final_temperature=temperature,
        )
        return ctx.finish()
