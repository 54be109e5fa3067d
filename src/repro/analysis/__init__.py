"""Evaluation metrics and cross-system comparison harness."""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ascii_plots": ("ascii_bar_chart", "ascii_line_plot", "downsample"),
    "compare": (
        "ComparisonResult", "SystemOutcome", "compare_systems",
        "evaluate_config",
    ),
    "metrics": (
        "geometric_mean", "mean_abs_pct_error", "normalize", "speedup",
        "tflops_per_gpu",
    ),
})
