"""Profiling-based performance model (§3.3 of the paper)."""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "memory": (
        "allocator_reserve", "in_flight_counts", "stage_allocator_reserve",
        "stage_peak_memory",
    ),
    "model": ("PerfModel", "build_perf_model"),
    "report": ("PerfReport", "RESOURCES", "StageCost", "StageReport"),
    "timing": ("iteration_time_1f1b", "stage_totals"),
})
