"""GPT-3 family model builders.

Sizes follow Table 2 of the paper (0.35B - 13B, FP16, batch 1024,
sequence length 2048) using the standard GPT-3 depth/width ladder from
Brown et al.  ``build_gpt3_layers`` additionally builds N-layer variants
for the 1K-layer scalability experiment (Exp#3), with hyper-parameters
from DeepNet (Wang et al., 2022).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..graph import OpGraph
from ..ops import (
    OpSpec,
    append_layers,
    attention_core_op,
    elementwise_op,
    embedding_op,
    layernorm_op,
    lm_head_op,
    loss_op,
    matmul_op,
)

#: GPT-3 ladder: size name -> (num_layers, hidden, num_heads).
GPT3_SIZES: Dict[str, Tuple[int, int, int]] = {
    "350m": (24, 1024, 16),
    "1.3b": (24, 2048, 32),
    "2.6b": (32, 2560, 32),
    "6.7b": (32, 4096, 32),
    "13b": (40, 5120, 40),
}

DEFAULT_SEQ_LEN = 2048
DEFAULT_VOCAB = 51200
DEFAULT_BATCH = 1024


@dataclass(frozen=True)
class GPTSpec:
    """Hyper-parameters of one GPT variant."""

    num_layers: int
    hidden: int
    num_heads: int
    seq_len: int = DEFAULT_SEQ_LEN
    vocab_size: int = DEFAULT_VOCAB

    def __post_init__(self) -> None:
        if self.hidden % self.num_heads:
            raise ValueError("hidden must be divisible by num_heads")


def decoder_layer_ops(
    spec: GPTSpec, layer_index: int, *, prefix: str = "layer"
) -> List[OpSpec]:
    """Build the op chain of one transformer decoder layer.

    Megatron-style layout: LN -> QKV (column) -> attention core ->
    output projection (row, all-reduce) -> LN -> FC1 h->4h (column) ->
    GeLU -> FC2 4h->h (row, all-reduce).  Residual adds are folded into
    the projections' elementwise cost (negligible for planning).
    """
    s, h, heads = spec.seq_len, spec.hidden, spec.num_heads
    tag = f"{prefix}{layer_index}"
    return [
        layernorm_op(f"{tag}.ln1", s, h),
        matmul_op(f"{tag}.attn_qkv", h, 3 * h, s, parallel_style="column",
                  max_tp=heads),
        attention_core_op(f"{tag}.attn_core", s, s, h, heads),
        matmul_op(f"{tag}.attn_out", h, h, s, parallel_style="row",
                  max_tp=heads),
        layernorm_op(f"{tag}.ln2", s, h),
        matmul_op(f"{tag}.mlp_fc1", h, 4 * h, s, parallel_style="column"),
        elementwise_op(f"{tag}.gelu", "gelu", s * 4 * h),
        matmul_op(f"{tag}.mlp_fc2", 4 * h, h, s, parallel_style="row"),
    ]


def build_gpt(
    name: str,
    spec: GPTSpec,
    *,
    batch_size: int = DEFAULT_BATCH,
    precision: str = "fp16",
) -> OpGraph:
    """Assemble a full GPT graph: embedding, N layers, head, loss."""
    ops: List[OpSpec] = [
        embedding_op("embedding", spec.vocab_size, spec.hidden, spec.seq_len)
    ]
    layer_spans: List[Tuple[int, int]] = []
    append_layers(
        ops, layer_spans, decoder_layer_ops(spec, 0), "layer", spec.num_layers
    )
    ops.append(layernorm_op("final_ln", spec.seq_len, spec.hidden))
    ops.append(
        lm_head_op("lm_head", spec.vocab_size, spec.hidden, spec.seq_len)
    )
    ops.append(loss_op("loss", spec.seq_len * spec.vocab_size))
    return OpGraph(
        name=name,
        ops=ops,
        precision=precision,
        global_batch_size=batch_size,
        layer_spans=layer_spans,
    )


def build_gpt3(size: str, *, batch_size: int = DEFAULT_BATCH) -> OpGraph:
    """Build one of the paper's five GPT-3 sizes (Table 2).

    >>> build_gpt3("1.3b").num_layers
    24
    """
    key = size.lower()
    if key not in GPT3_SIZES:
        raise KeyError(
            f"unknown GPT-3 size {size!r}; choose from {sorted(GPT3_SIZES)}"
        )
    layers, hidden, heads = GPT3_SIZES[key]
    spec = GPTSpec(num_layers=layers, hidden=hidden, num_heads=heads)
    return build_gpt(f"gpt3-{key}", spec, batch_size=batch_size)


def build_gpt3_layers(
    num_layers: int,
    *,
    hidden: int = 1024,
    num_heads: int = 16,
    seq_len: int = 1024,
    batch_size: int = 128,
) -> OpGraph:
    """Build an N-layer GPT for the 1K-layer scalability study (Exp#3).

    Defaults follow the DeepNet-style small-width/deep setting the paper
    cites for this experiment.
    """
    if num_layers < 1:
        raise ValueError("num_layers must be positive")
    spec = GPTSpec(
        num_layers=num_layers,
        hidden=hidden,
        num_heads=num_heads,
        seq_len=seq_len,
    )
    return build_gpt(
        f"gpt-{num_layers}l", spec, batch_size=batch_size
    )
