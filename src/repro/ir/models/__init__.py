"""Benchmark model builders (GPT-3, T5, Wide-ResNet)."""

from ...exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "gpt3": (
        "GPT3_SIZES", "GPTSpec", "build_gpt", "build_gpt3",
        "build_gpt3_layers",
    ),
    "registry": ("available_models", "build_model"),
    "synthetic": ("build_synthetic",),
    "t5": ("T5Spec", "T5_SIZES", "build_t5", "build_t5_from_spec"),
    "wide_resnet": (
        "WRN_SIZES", "WideResNetSpec", "build_wide_resnet",
        "build_wide_resnet_from_spec",
    ),
})
