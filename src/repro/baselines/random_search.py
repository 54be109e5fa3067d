"""Random-primitive search: the Heuristic-2 ablation (Exp#5).

Identical machinery to Aceso's search, but primitive/candidate
exploration order is randomized instead of consumption- and
performance-ranked.  The paper runs it three times and compares
convergence trends (Fig. 12).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..cluster.topology import ClusterSpec
from ..core.budget import SearchBudget
from ..core.search import AcesoSearch, AcesoSearchOptions, SearchResult
from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig
from ..perfmodel.model import PerfModel


def random_search(
    graph: OpGraph,
    cluster: ClusterSpec,
    perf_model: PerfModel,
    init_config: ParallelConfig,
    budget: SearchBudget,
    *,
    seed: int = 0,
    options: Optional[AcesoSearchOptions] = None,
) -> SearchResult:
    """One random-order search run (seed selects the shuffle)."""
    opts = replace(
        options or AcesoSearchOptions(), use_heuristic2=False, seed=seed
    )
    search = AcesoSearch(graph, cluster, perf_model, options=opts)
    return search.run(init_config, budget)
