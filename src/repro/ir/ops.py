"""Operator specifications for the model IR.

Every operator records the per-*sample* quantities the planner needs:

* forward FLOPs,
* parameter element count,
* output activation elements (what flows to the next op / next stage),
* saved activation elements (what must be retained for backward when
  recomputation is off),
* the tensor-parallel partition options it supports, each with its
  communication behaviour.

The planner multiplies these per-sample numbers by microbatch sizes and
divides by parallel degrees; the op itself is agnostic of any parallel
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

#: Backward FLOPs are roughly 2x forward for matmul-dominated ops (one
#: matmul for the input gradient, one for the weight gradient).
DEFAULT_BWD_FLOPS_RATIO = 2.0


@dataclass(frozen=True)
class PartitionOption:
    """One way to tensor-parallel partition an operator.

    Attributes:
        name: human-readable dimension name (``"row"``, ``"column"``,
            ``"in_channel"``, ``"out_channel"``, ``"head"``, ...).
        fwd_comm_numel: activation elements all-reduced per sample in the
            forward pass when tp > 1 (e.g. the output of a row-parallel
            matmul).
        bwd_comm_numel: activation-gradient elements all-reduced per
            sample in the backward pass when tp > 1 (e.g. the input
            gradient of a column-parallel matmul).
        shards_output: whether the op's *output* activation is sharded
            across the tp group (column-parallel) or replicated
            (row-parallel after its all-reduce).
    """

    name: str
    fwd_comm_numel: int = 0
    bwd_comm_numel: int = 0
    shards_output: bool = True


@dataclass(frozen=True)
class OpSpec:
    """Per-sample cost description of one model operator.

    All sizes are element counts (not bytes); the precision of the
    enclosing graph decides byte widths.  All FLOPs are forward-pass
    FLOPs per training sample.
    """

    name: str
    kind: str
    flops: float
    params: int
    out_numel: int
    saved_numel: int
    partition_options: Tuple[PartitionOption, ...] = field(
        default_factory=lambda: (PartitionOption("none"),)
    )
    max_tp: int = 1_048_576
    bwd_flops_ratio: float = DEFAULT_BWD_FLOPS_RATIO

    def __post_init__(self) -> None:
        if self.flops < 0 or self.params < 0:
            raise ValueError(f"negative cost in op {self.name!r}")
        if not self.partition_options:
            raise ValueError(f"op {self.name!r} has no partition options")
        if self.max_tp < 1:
            raise ValueError(f"op {self.name!r} has max_tp < 1")

    def renamed(self, name: str) -> "OpSpec":
        """This op under ``name``, sharing every other field; it skips
        ``__init__``, whose checks do not depend on the name."""
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__, name=name)
        return copy

    @property
    def bwd_flops(self) -> float:
        """Backward FLOPs per sample."""
        return self.flops * self.bwd_flops_ratio

    @property
    def total_flops(self) -> float:
        """Forward + backward FLOPs per sample (no recomputation)."""
        return self.flops + self.bwd_flops

    def option(self, index: int) -> PartitionOption:
        """Return partition option ``index`` (validated)."""
        try:
            return self.partition_options[index]
        except IndexError:
            raise IndexError(
                f"op {self.name!r} has {len(self.partition_options)} "
                f"partition options; index {index} out of range"
            ) from None

    @property
    def num_partition_options(self) -> int:
        return len(self.partition_options)


def append_layers(
    ops: List[OpSpec], layer_spans: List[Tuple[int, int]],
    first: Sequence[OpSpec], tag: str, count: int,
) -> None:
    """Append ``count`` layers to ``ops`` and their spans to ``layer_spans``:
    ``first`` (layer 0, op names starting ``f"{tag}0"``), then copies of
    it :meth:`OpSpec.renamed` to ``f"{tag}{i}"``, so a deep model builds
    one layer and every layer shares its partition options."""
    cut = len(f"{tag}0")
    for i in range(count):
        start = len(ops)
        ops.extend(
            first if i == 0
            else [op.renamed(f"{tag}{i}{op.name[cut:]}") for op in first]
        )
        layer_spans.append((start, len(ops)))


def matmul_op(
    name: str,
    in_features: int,
    out_features: int,
    tokens_per_sample: int,
    *,
    parallel_style: str = "column",
    max_tp: int = 1_048_576,
) -> OpSpec:
    """Build a linear/matmul operator.

    ``parallel_style`` selects which partition option comes first (the
    builder's preferred initial dimension, following Megatron-LM):
    ``"column"`` splits the output features, ``"row"`` splits the input
    features.  Both options are always present so fine-tuning can flip
    the dimension (§4.2 of the paper).
    """
    flops = 2.0 * tokens_per_sample * in_features * out_features
    params = in_features * out_features + out_features  # weight + bias
    out_numel = tokens_per_sample * out_features
    in_numel = tokens_per_sample * in_features
    column = PartitionOption(
        "column",
        fwd_comm_numel=0,
        bwd_comm_numel=in_numel,
        shards_output=True,
    )
    row = PartitionOption(
        "row",
        fwd_comm_numel=out_numel,
        bwd_comm_numel=0,
        shards_output=False,
    )
    options = (column, row) if parallel_style == "column" else (row, column)
    return OpSpec(
        name=name,
        kind="matmul",
        flops=flops,
        params=params,
        out_numel=out_numel,
        saved_numel=in_numel,
        partition_options=options,
        max_tp=max_tp,
    )


def attention_core_op(
    name: str,
    seq_len: int,
    kv_seq_len: int,
    hidden: int,
    num_heads: int,
) -> OpSpec:
    """Build the softmax(QK^T)V core of self/cross attention.

    Partitioned along the head dimension; no communication of its own
    (the surrounding projections carry the all-reduces).
    """
    # QK^T and attn @ V, each 2*s*s_kv*h FLOPs per sample.
    flops = 4.0 * seq_len * kv_seq_len * hidden
    out_numel = seq_len * hidden
    # Saved: attention probabilities (s * s_kv * heads) plus q/k/v.
    saved = seq_len * kv_seq_len * num_heads + 3 * seq_len * hidden
    head = PartitionOption("head", shards_output=True)
    return OpSpec(
        name=name,
        kind="attention",
        flops=flops,
        params=0,
        out_numel=out_numel,
        saved_numel=saved,
        partition_options=(head,),
        max_tp=num_heads,
    )


def layernorm_op(name: str, tokens_per_sample: int, hidden: int) -> OpSpec:
    """Build a LayerNorm operator (replicated; cheap)."""
    numel = tokens_per_sample * hidden
    return OpSpec(
        name=name,
        kind="layernorm",
        flops=8.0 * numel,
        params=2 * hidden,
        out_numel=numel,
        saved_numel=numel,
        partition_options=(PartitionOption("replicate", shards_output=False),),
        max_tp=1,
        bwd_flops_ratio=1.0,
    )


def elementwise_op(
    name: str, kind: str, numel: int, flops_per_element: float = 4.0
) -> OpSpec:
    """Build an activation/elementwise op (GeLU, ReLU, residual-add...)."""
    return OpSpec(
        name=name,
        kind=kind,
        flops=flops_per_element * numel,
        params=0,
        out_numel=numel,
        saved_numel=numel,
        partition_options=(PartitionOption("elementwise", shards_output=True),),
        bwd_flops_ratio=1.0,
    )


def embedding_op(
    name: str, vocab_size: int, hidden: int, tokens_per_sample: int
) -> OpSpec:
    """Build a token-embedding lookup (vocab-parallel when tp > 1)."""
    out_numel = tokens_per_sample * hidden
    vocab = PartitionOption(
        "vocab",
        fwd_comm_numel=out_numel,  # masked-lookup partial sums all-reduced
        bwd_comm_numel=0,
        shards_output=False,
    )
    return OpSpec(
        name=name,
        kind="embedding",
        flops=2.0 * out_numel,
        params=vocab_size * hidden,
        out_numel=out_numel,
        saved_numel=tokens_per_sample,  # token ids only
        partition_options=(vocab,),
        bwd_flops_ratio=1.0,
    )


def lm_head_op(
    name: str, vocab_size: int, hidden: int, tokens_per_sample: int
) -> OpSpec:
    """Build the output projection to vocabulary logits."""
    flops = 2.0 * tokens_per_sample * hidden * vocab_size
    out_numel = tokens_per_sample * vocab_size
    column = PartitionOption(
        "vocab_column",
        fwd_comm_numel=0,
        bwd_comm_numel=tokens_per_sample * hidden,
        shards_output=True,
    )
    return OpSpec(
        name=name,
        kind="lm_head",
        flops=flops,
        params=vocab_size * hidden,
        out_numel=out_numel,
        saved_numel=tokens_per_sample * hidden,
        partition_options=(column,),
    )


def loss_op(name: str, logits_numel: int) -> OpSpec:
    """Build a cross-entropy (or similar) loss op."""
    return OpSpec(
        name=name,
        kind="loss",
        flops=6.0 * logits_numel,
        params=0,
        out_numel=1,
        saved_numel=logits_numel,
        partition_options=(PartitionOption("elementwise", shards_output=True),),
        bwd_flops_ratio=1.0,
    )


def conv2d_op(
    name: str,
    in_channels: int,
    out_channels: int,
    kernel_size: int,
    out_hw: int,
    *,
    parallel_style: str = "out_channel",
) -> OpSpec:
    """Build a 2-D convolution operator.

    Partition options follow the paper's Wide-ResNet treatment
    (input-channel and output-channel splits, out-channel first).
    """
    flops = 2.0 * kernel_size * kernel_size * in_channels * out_channels * out_hw * out_hw
    params = kernel_size * kernel_size * in_channels * out_channels + out_channels
    out_numel = out_channels * out_hw * out_hw
    in_numel_approx = in_channels * out_hw * out_hw
    out_channel = PartitionOption(
        "out_channel",
        fwd_comm_numel=0,
        bwd_comm_numel=in_numel_approx,
        shards_output=True,
    )
    in_channel = PartitionOption(
        "in_channel",
        fwd_comm_numel=out_numel,
        bwd_comm_numel=0,
        shards_output=False,
    )
    options = (
        (out_channel, in_channel)
        if parallel_style == "out_channel"
        else (in_channel, out_channel)
    )
    return OpSpec(
        name=name,
        kind="conv2d",
        flops=flops,
        params=params,
        out_numel=out_numel,
        saved_numel=in_numel_approx,
        partition_options=options,
        max_tp=min(in_channels, out_channels),
    )


def norm2d_op(name: str, channels: int, hw: int) -> OpSpec:
    """Build a BatchNorm/GroupNorm over a (C, H, W) activation."""
    numel = channels * hw * hw
    return OpSpec(
        name=name,
        kind="norm2d",
        flops=8.0 * numel,
        params=2 * channels,
        out_numel=numel,
        saved_numel=numel,
        partition_options=(PartitionOption("channel", shards_output=True),),
        max_tp=channels,
        bwd_flops_ratio=1.0,
    )


def pool_op(name: str, channels: int, out_hw: int) -> OpSpec:
    """Build a pooling / downsample op."""
    numel = channels * out_hw * out_hw
    return OpSpec(
        name=name,
        kind="pool",
        flops=9.0 * numel,
        params=0,
        out_numel=numel,
        saved_numel=numel,
        partition_options=(PartitionOption("channel", shards_output=True),),
        max_tp=channels,
        bwd_flops_ratio=1.0,
    )
