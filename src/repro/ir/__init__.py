"""Model intermediate representation: tensors, operators, graphs."""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "graph": ("GraphArrays", "OpGraph"),
    "ops": (
        "OpSpec", "PartitionOption", "attention_core_op", "conv2d_op",
        "elementwise_op", "embedding_op", "layernorm_op", "lm_head_op",
        "loss_op", "matmul_op", "norm2d_op", "pool_op",
    ),
    "tensor": (
        "DTYPE_BYTES", "TensorSpec", "UnknownDtypeError", "dtype_bytes",
    ),
})
