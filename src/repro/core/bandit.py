"""UCB1 bandit search: learn which primitive fixes which bottleneck.

Auto-MAP (PAPERS.md) frames partition search as a learned policy over
rewrites; this strategy is the classic-bandit distillation of that
idea on Aceso's move set.  Each *bottleneck kind* — the primary scarce
resource plus whether the stage is OOM, e.g. ``memory|oom`` or
``compute|time`` — owns an independent UCB1 bandit whose arms are the
Table 1 primitives eligible for that resource.  Per iteration the
searcher identifies the top bottleneck, asks its bandit for an arm,
applies that primitive, moves to the best resulting candidate when it
helps, and pays the bandit a reward equal to the clipped relative
improvement.  Exploration is driven by the UCB1 bonus, not by
randomness: ties aside, a run is fully determined by its seed.

Every pull is emitted as a ``search.strategy.arm`` telemetry event
carrying ``(kind, arm, reward)`` — which makes any prior run log a
training set: :func:`warm_start_from_events` folds those events back
into per-kind arm statistics, and ``BanditOptions.warm_start`` seeds a
new run with them (the JSON-shaped dict travels through
``strategy_kwargs`` untouched).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..parallel.config import ParallelConfig
from ..telemetry.events import (
    SEARCH_STRATEGY_ARM,
    SEARCH_STRATEGY_STATS,
)
from .apply import ApplyContext, apply_primitive
from .bottleneck import Bottleneck, identify_bottleneck
from .budget import Deadline, SearchBudget
from .primitives import eligibility_walk
from .searcher import SearchContext, Searcher, register_searcher

_TINY = 1e-12


def bottleneck_kind(bottleneck: Bottleneck) -> str:
    """Stable bandit key: primary resource × OOM-ness."""
    suffix = "oom" if bottleneck.is_oom else "time"
    return f"{bottleneck.primary_resource}|{suffix}"


def _arms_for(bottleneck: Bottleneck) -> List[str]:
    """The kind's arm set: the primary resource's primitives (else
    every resource's), name-sorted.

    Sorted (not priority-ordered) so the arm list — and therefore the
    UCB tie-break — is identical however the bottleneck's secondary
    resources happen to be ordered.
    """
    walk = eligibility_walk([bottleneck.primary_resource])
    names = [name for _, name in walk]
    if not names:
        names = [name for _, name in eligibility_walk(bottleneck.resources)]
    return sorted(names)


@dataclass
class _Arm:
    pulls: int = 0
    total_reward: float = 0.0

    @property
    def mean(self) -> float:
        return self.total_reward / self.pulls if self.pulls else 0.0


@dataclass
class _KindBandit:
    """One UCB1 bandit (a kind's arm statistics)."""

    arms: Dict[str, _Arm] = field(default_factory=dict)

    def choose(self, candidates: List[str], exploration: float) -> str:
        for name in candidates:
            self.arms.setdefault(name, _Arm())
        untried = [n for n in candidates if self.arms[n].pulls == 0]
        if untried:
            return untried[0]
        total = sum(self.arms[n].pulls for n in candidates)
        bonus = math.log(max(total, 1))

        def score(name: str) -> float:
            arm = self.arms[name]
            return arm.mean + exploration * math.sqrt(bonus / arm.pulls)

        # max() keeps the first of equals, so the name-sorted candidate
        # list doubles as the deterministic tie-break.
        return max(candidates, key=score)

    def reward(self, name: str, value: float) -> _Arm:
        arm = self.arms.setdefault(name, _Arm())
        arm.pulls += 1
        arm.total_reward += value
        return arm


def warm_start_from_events(events) -> Dict[str, Dict[str, List[float]]]:
    """Fold ``search.strategy.arm`` events into warm-start statistics.

    Accepts :class:`~repro.telemetry.bus.Event` objects or plain dicts
    (one parsed run-log JSONL line each); everything else in the stream
    is ignored.  Returns ``{kind: {arm: [pulls, total_reward]}}`` — the
    JSON-shaped dict ``BanditOptions.warm_start`` takes.
    """
    stats: Dict[str, Dict[str, List[float]]] = {}
    for event in events:
        if isinstance(event, dict):
            name = event.get("name")
            attrs = event.get("attrs", {})
        else:
            name = getattr(event, "name", None)
            attrs = getattr(event, "attrs", {})
        if name != SEARCH_STRATEGY_ARM:
            continue
        kind = attrs.get("kind")
        arm = attrs.get("arm")
        if not kind or not arm:
            continue
        entry = stats.setdefault(kind, {}).setdefault(arm, [0, 0.0])
        entry[0] += 1
        entry[1] += float(attrs.get("reward", 0.0))
    return stats


@dataclass
class BanditOptions:
    """Tunables of the per-bottleneck-kind UCB1 search.

    ``exploration`` is UCB1's ``c`` constant; ``warm_start`` preloads
    arm statistics (the :func:`warm_start_from_events` shape) so a new
    search starts from what prior runs learned instead of from uniform
    ignorance.
    """

    seed: int = 0
    exploration: float = 1.4
    top_k: int = 5
    attach_recompute: bool = True
    restart_patience: int = 8
    warm_start: Optional[dict] = None


@register_searcher
class BanditSearcher(Searcher):
    """Per-bottleneck-kind UCB1 over the reconfiguration primitives."""

    strategy = "bandit"
    options_class = BanditOptions

    def _bandits_from_warm_start(self) -> Dict[str, _KindBandit]:
        bandits: Dict[str, _KindBandit] = {}
        for kind, arms in (self.options.warm_start or {}).items():
            bandit = _KindBandit()
            for name, entry in arms.items():
                pulls, total = int(entry[0]), float(entry[1])
                bandit.arms[name] = _Arm(
                    pulls=pulls, total_reward=total
                )
            bandits[kind] = bandit
        return bandits

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
        # The seed is part of the contract even though UCB1 itself is
        # deterministic: it reserves room for randomized tie-breaks
        # without changing the options schema.
        np.random.default_rng(opts.seed)
        bandits = self._bandits_from_warm_start()
        warm_started = bool(bandits)

        current = init_config
        current_objective = ctx.open(init_config)
        ctx.visited.add(init_config)
        pulls = moves = restarts = 0
        stalled = 0

        while not ctx.exhausted():
            if ctx.deadline_expired():
                ctx.partial = True
                break
            ctx.iteration += 1
            report = self.perf_model.estimate(current)
            bottleneck = identify_bottleneck(report)
            kind = bottleneck_kind(bottleneck)
            arms = _arms_for(bottleneck)
            if not arms:
                ctx.converged = True
                break
            bandit = bandits.setdefault(kind, _KindBandit())
            arm = bandit.choose(arms, opts.exploration)
            apply_ctx = ApplyContext(
                graph=self.graph,
                cluster=self.cluster,
                perf_model=self.perf_model,
                config=current,
                report=report,
                bottleneck=bottleneck,
                attach_recompute=opts.attach_recompute,
            )
            candidates = apply_primitive(arm, apply_ctx)
            pulls += 1

            best_objective = None
            best_candidate = None
            if candidates:
                objectives = self.perf_model.objective_batch(candidates)
                order = int(np.argmin(objectives))
                best_candidate = candidates[order]
                best_objective = float(objectives[order])
                if ctx.visited.add(best_candidate):
                    ctx.unexplored.put(best_candidate, best_objective)
            reward = 0.0
            if best_objective is not None:
                gain = current_objective - best_objective
                reward = min(
                    max(gain / max(abs(current_objective), _TINY), 0.0),
                    1.0,
                )
            stats = bandit.reward(arm, reward)
            ctx.emit(
                SEARCH_STRATEGY_ARM,
                strategy=self.strategy,
                kind=kind,
                arm=arm,
                reward=reward,
                pulls=stats.pulls,
                mean_reward=stats.mean,
                candidates=len(candidates),
            )

            if (
                best_candidate is not None
                and best_objective < current_objective
            ):
                improved = ctx.observe(best_objective, best_candidate)
                ctx.record_iteration(
                    bottlenecks_tried=1,
                    hops_used=1,
                    improved=improved,
                    objective=best_objective,
                )
                ctx.unexplored.remove(best_candidate)
                current = best_candidate
                current_objective = best_objective
                moves += 1
                stalled = 0
            else:
                if best_objective is not None:
                    ctx.observe(best_objective, best_candidate)
                ctx.record_iteration(
                    bottlenecks_tried=1,
                    hops_used=0,
                    improved=False,
                    objective=(
                        best_objective
                        if best_objective is not None
                        else current_objective
                    ),
                )
                stalled += 1
                if stalled >= opts.restart_patience:
                    restart = ctx.unexplored.pop_best()
                    if restart is None:
                        ctx.converged = True
                        break
                    restarts += 1
                    current = restart
                    current_objective = self.perf_model.objective(
                        current
                    )
                    stalled = 0

        ctx.emit(
            SEARCH_STRATEGY_STATS,
            strategy=self.strategy,
            pulls=pulls,
            moves=moves,
            restarts=restarts,
            warm_started=warm_started,
            kinds={
                kind: {
                    name: [arm.pulls, arm.total_reward]
                    for name, arm in bandit.arms.items()
                }
                for kind, bandit in bandits.items()
            },
        )
        return ctx.finish()
