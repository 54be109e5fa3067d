"""Baseline systems: Megatron-LM grid, Alpa-style solver, DP, random."""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "alpa": (
        "AlpaCompilationError", "AlpaOptions", "AlpaResult", "alpa_search",
    ),
    "dp_solver": ("DPSolverOptions", "DPSolverResult", "dp_solve"),
    "megatron": (
        "GridSearchResult", "MegatronPlan", "enumerate_plans",
        "megatron_grid_search", "plan_to_config",
    ),
    "random_search": ("random_search",),
})
