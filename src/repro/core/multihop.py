"""Multi-hop primitive search (Algorithm 2, §3.2.3).

One primitive rarely beats the starting configuration outright — it
alleviates one bottleneck and usually creates another.  The multi-hop
search therefore chains primitives depth-first: apply a hop, and if the
result is not yet better than the iteration's starting point, recurse
on *its* bottleneck, backtracking through Heuristic-2's candidate order
up to ``max_hops`` deep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..cluster.topology import ClusterSpec
from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig, changed_stages
from ..perfmodel.model import PerfModel
from .apply import ApplyContext
from .bottleneck import Bottleneck, identify_bottleneck
from .dedup import UnexploredPool, VisitedSet
from .ranking import candidate_groups


@dataclass
class MultiHopResult:
    """A successful multi-hop improvement.

    ``dirty_stages`` lists the stages of ``config`` that differ from
    the configuration the search started at (identity-based: primitive
    application shares untouched stage objects), so downstream passes
    like fine-tuning can focus on what actually changed.  ``None``
    means unknown — treat every stage as dirty.
    """

    config: ParallelConfig
    objective: float
    hops_used: int
    dirty_stages: Optional[Tuple[int, ...]] = None


class MultiHopSearcher:
    """Stateful Algorithm 2 executor shared across search iterations.

    Args:
        graph / cluster / perf_model: the planning substrate.
        max_hops: the paper's ``MaxHops`` hyper-parameter (default 7).
        rng: when given, disables Heuristic-2 ordering (random search
            ablation).
        should_stop: optional callable polled during recursion so a
            wall-clock budget can abort deep searches.
        beam_width: how many of a group's best candidates to recurse
            into (backtracking breadth).
        max_nodes: hop-node budget of a single :meth:`search` call —
            bounds the worst-case (no improvement found) tree walk.
    """

    def __init__(
        self,
        graph: OpGraph,
        cluster: ClusterSpec,
        perf_model: PerfModel,
        *,
        max_hops: int = 7,
        rng: Optional[np.random.Generator] = None,
        should_stop=None,
        beam_width: int = 2,
        max_nodes: int = 60,
        attach_recompute: bool = True,
    ) -> None:
        if max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if beam_width < 1 or max_nodes < 1:
            raise ValueError("beam_width and max_nodes must be >= 1")
        self.graph = graph
        self.cluster = cluster
        self.perf_model = perf_model
        self.max_hops = max_hops
        self.rng = rng
        self.should_stop = should_stop or (lambda: False)
        self.beam_width = beam_width
        self.max_nodes = max_nodes
        self.attach_recompute = attach_recompute
        self._nodes_left = max_nodes

    def search(
        self,
        config: ParallelConfig,
        *,
        visited: VisitedSet,
        unexplored: UnexploredPool,
        bottleneck: Optional[Bottleneck] = None,
    ) -> Optional[MultiHopResult]:
        """Find a configuration strictly better than ``config``.

        ``bottleneck`` overrides the hop-0 target (used by the
        secondary-bottleneck fallback); deeper hops always chase their
        own top bottleneck.
        """
        init_objective = self.perf_model.objective(config)
        visited.add(config)
        self._nodes_left = self.max_nodes
        result = self._hop(
            config,
            hop_index=0,
            init_objective=init_objective,
            visited=visited,
            unexplored=unexplored,
            forced_bottleneck=bottleneck,
        )
        if result is not None:
            result.dirty_stages = changed_stages(result.config, config)
        return result

    # ------------------------------------------------------------------
    def _hop(
        self,
        config: ParallelConfig,
        *,
        hop_index: int,
        init_objective: float,
        visited: VisitedSet,
        unexplored: UnexploredPool,
        forced_bottleneck: Optional[Bottleneck] = None,
    ) -> Optional[MultiHopResult]:
        unexplored.remove(config)
        if hop_index >= self.max_hops or self.should_stop():
            return None
        if self._nodes_left <= 0:
            return None
        self._nodes_left -= 1
        report = self.perf_model.estimate(config)
        if forced_bottleneck is not None:
            bottleneck = forced_bottleneck
        else:
            bottleneck = identify_bottleneck(report)
        ctx = ApplyContext(
            graph=self.graph,
            cluster=self.cluster,
            perf_model=self.perf_model,
            config=config,
            report=report,
            bottleneck=bottleneck,
            attach_recompute=self.attach_recompute,
        )
        for group in candidate_groups(ctx, rng=self.rng):
            fresh = []
            for candidate, objective in zip(
                group.candidates, group.objectives
            ):
                if not visited.add(candidate):
                    continue
                unexplored.put(candidate, objective)
                fresh.append((objective, candidate))
                if objective < init_objective:
                    return MultiHopResult(
                        config=candidate,
                        objective=objective,
                        hops_used=hop_index + 1,
                    )
            # Candidates arrive pre-sorted under Heuristic-2; under the
            # random ablation we keep the shuffled order.  Only the
            # beam's best candidates are recursed into.
            for objective, candidate in fresh[: self.beam_width]:
                if self.should_stop():
                    return None
                deeper = self._hop(
                    candidate,
                    hop_index=hop_index + 1,
                    init_objective=init_objective,
                    visited=visited,
                    unexplored=unexplored,
                )
                if deeper is not None:
                    return deeper
        return None
