"""T5 family model builders.

T5 is the paper's heterogeneous/imbalanced model: transformer *encoder*
layers process sequence length 2048 and *decoder* layers process
sequence length 512 with an extra cross-attention block, so op costs
differ markedly between the two halves (Table 2).
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

#: T5 ladder: size name -> (enc_layers, dec_layers, hidden, ff, heads).
T5_SIZES: Dict[str, Tuple[int, int, int, int, int]] = {
    "770m": (24, 24, 1024, 4096, 16),
    "3b": (24, 24, 2048, 8192, 32),
    "6b": (32, 32, 2560, 10240, 32),
    "11b": (24, 24, 4096, 16384, 64),
    "22b": (48, 48, 4096, 16384, 64),
}

ENCODER_SEQ_LEN = 2048
DECODER_SEQ_LEN = 512
DEFAULT_VOCAB = 32128
DEFAULT_BATCH = 1024


@dataclass(frozen=True)
class T5Spec:
    """Hyper-parameters of one T5 variant."""

    enc_layers: int
    dec_layers: int
    hidden: int
    ff: int
    num_heads: int
    enc_seq_len: int = ENCODER_SEQ_LEN
    dec_seq_len: int = DECODER_SEQ_LEN
    vocab_size: int = DEFAULT_VOCAB

    def __post_init__(self) -> None:
        if self.hidden % self.num_heads:
            raise ValueError("hidden must be divisible by num_heads")


def _self_attention_ops(
    tag: str, seq_len: int, hidden: int, heads: int
) -> List[OpSpec]:
    return [
        layernorm_op(f"{tag}.ln_attn", seq_len, hidden),
        matmul_op(f"{tag}.attn_qkv", hidden, 3 * hidden, seq_len,
                  parallel_style="column", max_tp=heads),
        attention_core_op(f"{tag}.attn_core", seq_len, seq_len, hidden, heads),
        matmul_op(f"{tag}.attn_out", hidden, hidden, seq_len,
                  parallel_style="row", max_tp=heads),
    ]


def _cross_attention_ops(
    tag: str, q_seq_len: int, kv_seq_len: int, hidden: int, heads: int
) -> List[OpSpec]:
    return [
        layernorm_op(f"{tag}.ln_xattn", q_seq_len, hidden),
        matmul_op(f"{tag}.xattn_q", hidden, hidden, q_seq_len,
                  parallel_style="column", max_tp=heads),
        matmul_op(f"{tag}.xattn_kv", hidden, 2 * hidden, kv_seq_len,
                  parallel_style="column", max_tp=heads),
        attention_core_op(f"{tag}.xattn_core", q_seq_len, kv_seq_len,
                          hidden, heads),
        matmul_op(f"{tag}.xattn_out", hidden, hidden, q_seq_len,
                  parallel_style="row", max_tp=heads),
    ]


def _mlp_ops(tag: str, seq_len: int, hidden: int, ff: int) -> List[OpSpec]:
    return [
        layernorm_op(f"{tag}.ln_mlp", seq_len, hidden),
        matmul_op(f"{tag}.mlp_fc1", hidden, ff, seq_len,
                  parallel_style="column"),
        elementwise_op(f"{tag}.relu", "relu", seq_len * ff),
        matmul_op(f"{tag}.mlp_fc2", ff, hidden, seq_len,
                  parallel_style="row"),
    ]


def encoder_layer_ops(spec: T5Spec, layer_index: int) -> List[OpSpec]:
    """One T5 encoder layer (self-attention + MLP at seq 2048)."""
    tag = f"enc{layer_index}"
    ops = _self_attention_ops(tag, spec.enc_seq_len, spec.hidden,
                              spec.num_heads)
    ops.extend(_mlp_ops(tag, spec.enc_seq_len, spec.hidden, spec.ff))
    return ops


def decoder_layer_ops(spec: T5Spec, layer_index: int) -> List[OpSpec]:
    """One T5 decoder layer (self + cross attention + MLP at seq 512)."""
    tag = f"dec{layer_index}"
    ops = _self_attention_ops(tag, spec.dec_seq_len, spec.hidden,
                              spec.num_heads)
    ops.extend(
        _cross_attention_ops(tag, spec.dec_seq_len, spec.enc_seq_len,
                             spec.hidden, spec.num_heads)
    )
    ops.extend(_mlp_ops(tag, spec.dec_seq_len, spec.hidden, spec.ff))
    return ops


def build_t5_from_spec(
    name: str,
    spec: T5Spec,
    *,
    batch_size: int = DEFAULT_BATCH,
    precision: str = "fp16",
) -> OpGraph:
    """Assemble the full encoder-decoder graph."""
    ops: List[OpSpec] = [
        embedding_op("enc_embedding", spec.vocab_size, spec.hidden,
                     spec.enc_seq_len)
    ]
    layer_spans: List[Tuple[int, int]] = []
    append_layers(
        ops, layer_spans, encoder_layer_ops(spec, 0), "enc", spec.enc_layers
    )
    ops.append(layernorm_op("enc_final_ln", spec.enc_seq_len, spec.hidden))
    ops.append(
        embedding_op("dec_embedding", spec.vocab_size, spec.hidden,
                     spec.dec_seq_len)
    )
    append_layers(
        ops, layer_spans, decoder_layer_ops(spec, 0), "dec", spec.dec_layers
    )
    ops.append(layernorm_op("dec_final_ln", spec.dec_seq_len, spec.hidden))
    ops.append(
        lm_head_op("lm_head", spec.vocab_size, spec.hidden, spec.dec_seq_len)
    )
    ops.append(loss_op("loss", spec.dec_seq_len * spec.vocab_size))
    return OpGraph(
        name=name,
        ops=ops,
        precision=precision,
        global_batch_size=batch_size,
        layer_spans=layer_spans,
    )


def build_t5(size: str, *, batch_size: int = DEFAULT_BATCH) -> OpGraph:
    """Build one of the paper's five T5 sizes (Table 2).

    >>> build_t5("770m").name
    't5-770m'
    """
    key = size.lower()
    if key not in T5_SIZES:
        raise KeyError(
            f"unknown T5 size {size!r}; choose from {sorted(T5_SIZES)}"
        )
    enc, dec, hidden, ff, heads = T5_SIZES[key]
    spec = T5Spec(enc_layers=enc, dec_layers=dec, hidden=hidden, ff=ff,
                  num_heads=heads)
    return build_t5_from_spec(f"t5-{key}", spec, batch_size=batch_size)
