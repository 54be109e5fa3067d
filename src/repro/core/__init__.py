"""Aceso's core contribution: iterative bottleneck-alleviation search."""

from .apply import (
    ApplyContext,
    apply_primitive,
    has_applier,
    move_ops,
    register_applier,
    unregister_applier,
)
from .arguments import (
    greedy_recompute,
    greedy_unrecompute,
    op_move_counts,
    tune_recompute,
)
from .bottleneck import Bottleneck, identify_bottleneck, rank_bottlenecks
from .budget import BudgetKwargsError, Deadline, SearchBudget
from .dedup import UnexploredPool, VisitedSet
from .finetune import finetune
from .multihop import MultiHopResult, MultiHopSearcher
from .primitives import (
    PRIMITIVE_TABLE,
    PRIMITIVES_BY_NAME,
    Granularity,
    PrimitiveSpec,
    Trend,
    all_primitives,
    eligible_primitives,
    get_primitive,
    register_primitive,
    unregister_primitive,
)
from .ranking import CandidateGroup, candidate_groups
from .checkpoint import CheckpointError, SearchCheckpoint
from .searcher import (
    SearchContext,
    Searcher,
    StrategyError,
    available_strategies,
    build_options,
    get_searcher_class,
    make_searcher,
    register_searcher,
    strategy_option_names,
    unregister_searcher,
)
from .search import (
    AcesoSearch,
    AcesoSearchOptions,
    MultiStageSearchResult,
    SearchFailedError,
    SearchFailure,
    SearchResult,
    StageCountResult,
    default_stage_counts,
    retry_delay,
    search_all_stage_counts,
)
from .mcmc import MCMCOptions, MCMCSearcher
from .bandit import (
    BanditOptions,
    BanditSearcher,
    bottleneck_kind,
    warm_start_from_events,
)
from .trace import IterationRecord, SearchTrace

__all__ = [
    "AcesoSearch",
    "AcesoSearchOptions",
    "ApplyContext",
    "BanditOptions",
    "BanditSearcher",
    "BudgetKwargsError",
    "MCMCOptions",
    "MCMCSearcher",
    "SearchContext",
    "Searcher",
    "StrategyError",
    "available_strategies",
    "bottleneck_kind",
    "build_options",
    "get_searcher_class",
    "make_searcher",
    "register_searcher",
    "strategy_option_names",
    "unregister_searcher",
    "warm_start_from_events",
    "Bottleneck",
    "CandidateGroup",
    "CheckpointError",
    "Deadline",
    "Granularity",
    "IterationRecord",
    "MultiHopResult",
    "MultiHopSearcher",
    "MultiStageSearchResult",
    "PRIMITIVES_BY_NAME",
    "PRIMITIVE_TABLE",
    "PrimitiveSpec",
    "SearchBudget",
    "SearchCheckpoint",
    "SearchFailedError",
    "SearchFailure",
    "SearchResult",
    "SearchTrace",
    "StageCountResult",
    "Trend",
    "UnexploredPool",
    "VisitedSet",
    "all_primitives",
    "apply_primitive",
    "has_applier",
    "register_applier",
    "register_primitive",
    "unregister_applier",
    "unregister_primitive",
    "candidate_groups",
    "default_stage_counts",
    "eligible_primitives",
    "finetune",
    "get_primitive",
    "greedy_recompute",
    "greedy_unrecompute",
    "identify_bottleneck",
    "move_ops",
    "op_move_counts",
    "rank_bottlenecks",
    "retry_delay",
    "search_all_stage_counts",
    "tune_recompute",
]
