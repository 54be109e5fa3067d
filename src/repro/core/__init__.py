"""Aceso's core contribution: iterative bottleneck-alleviation search."""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "apply": ("ApplyContext", "apply_primitive", "move_ops"),
    "arguments": (
        "greedy_recompute", "greedy_unrecompute", "op_move_counts",
        "tune_recompute",
    ),
    "bandit": (
        "BanditOptions", "BanditSearcher", "bottleneck_kind",
        "warm_start_from_events",
    ),
    "bottleneck": ("Bottleneck", "identify_bottleneck", "rank_bottlenecks"),
    "budget": ("BudgetKwargsError", "Deadline", "SearchBudget"),
    "checkpoint": ("CheckpointError", "SearchCheckpoint"),
    "dedup": ("UnexploredPool", "VisitedSet"),
    "finetune": ("finetune",),
    "mcmc": ("MCMCOptions", "MCMCSearcher"),
    "multihop": ("MultiHopResult", "MultiHopSearcher"),
    "primitives": (
        "Granularity", "PRIMITIVES_BY_NAME", "PRIMITIVE_TABLE",
        "PrimitiveSpec", "Trend", "all_primitives", "eligibility_walk",
        "eligible_primitives", "get_primitive", "register_primitive",
        "unregister_primitive",
    ),
    "ranking": ("CandidateGroup", "candidate_groups"),
    "search": (
        "AcesoSearch", "AcesoSearchOptions", "MultiStageSearchResult",
        "SearchFailedError", "SearchFailure", "SearchResult",
        "StageCountResult", "default_stage_counts", "retry_delay",
        "search_all_stage_counts",
    ),
    "searcher": (
        "SearchContext", "Searcher", "StrategyError", "available_strategies",
        "build_options", "get_searcher_class", "register_searcher",
        "strategy_option_names", "unregister_searcher",
    ),
    "trace": ("IterationRecord", "SearchTrace"),
})
