"""Parallel-configuration representation, validation, initialization."""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": ("ParallelConfig", "changed_stages"),
    "initializer": (
        "balanced_config", "imbalanced_gpu_config", "imbalanced_op_config",
        "minimum_microbatch_size", "split_devices", "split_ops_balanced",
    ),
    "serialization": (
        "config_from_dict", "config_to_dict", "load_config", "save_config",
    ),
    "space": (
        "config_space_table", "dp_tp_choices", "log10_configs_2mech",
        "log10_configs_3mech", "log10_configs_4mech",
    ),
    "stage": ("StageConfig", "is_power_of_two"),
    "validation": ("ConfigError", "is_valid", "validate_config"),
})
