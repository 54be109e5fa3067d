"""Profiling substrate: cost functions, database, simulated profiler."""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cost": (
        "BWD_BYTES_RATIO", "TP_EFFICIENCY_PENALTY", "effective_tp",
        "op_bwd_time", "op_fwd_bytes", "op_fwd_time", "op_saved_bytes",
        "op_signature", "op_weight_bytes", "option_bias", "tp_efficiency",
    ),
    "database": (
        "CollectiveProfile", "OpProfile", "ProfileDatabase", "ProfiledGraph",
        "tp_level_index", "tp_levels",
    ),
    "profiler": ("SimulatedProfiler",),
})
