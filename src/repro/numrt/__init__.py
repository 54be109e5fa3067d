"""Numeric runtime: real numpy training under each parallel mechanism."""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "data_parallel": (
        "allreduce_grads", "dp_loss_and_grads", "dp_train_step",
        "shard_batch",
    ),
    "hybrid": (
        "dp_pp_loss_and_grads", "dp_pp_rc_loss_and_grads",
        "dp_rc_loss_and_grads", "pp_rc_loss_and_grads",
    ),
    "model": ("LayerParams", "MLP"),
    "pipeline": ("pp_loss_and_grads", "split_stages"),
    "recompute": ("checkpoint_segments", "rc_loss_and_grads"),
    "tensor_ops": (
        "linear_bwd", "linear_fwd", "mse_loss_bwd", "mse_loss_fwd",
        "relu_bwd", "relu_fwd",
    ),
    "tensor_parallel": (
        "column_parallel_bwd", "column_parallel_fwd", "merge_column_grads",
        "merge_row_grads", "row_parallel_bwd", "row_parallel_fwd",
        "split_columns", "split_rows", "tp_loss_and_grads",
    ),
    "trainer": (
        "TrainRun", "dp_fn", "make_dataset", "max_weight_difference", "pp_fn",
        "rc_fn", "runs_equivalent", "serial_fn", "tp_fn", "train",
    ),
})
