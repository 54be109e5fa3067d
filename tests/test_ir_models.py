"""Tests for the GPT-3 / T5 / Wide-ResNet builders and registry."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.ir.graph import GraphArrays
from repro.ir.models import (
    GPT3_SIZES,
    T5_SIZES,
    WRN_SIZES,
    available_models,
    build_gpt3,
    build_gpt3_layers,
    build_model,
    build_t5,
    build_wide_resnet,
)
from repro.ir.models import gpt3, t5
from repro.ir.models.gpt3 import GPTSpec
from repro.ir.models.t5 import T5Spec
from repro.ir.ops import embedding_op, layernorm_op, lm_head_op, loss_op


class TestGPT3:
    def test_all_paper_sizes_build(self):
        for size in GPT3_SIZES:
            graph = build_gpt3(size)
            assert graph.num_ops > 0
            assert graph.precision == "fp16"
            assert graph.global_batch_size == 1024

    def test_param_counts_near_labels(self):
        # Labels are approximate; require the right order of magnitude
        # and monotone growth along the ladder.
        sizes = ["350m", "1.3b", "2.6b", "6.7b", "13b"]
        params = [build_gpt3(s).total_params for s in sizes]
        assert params == sorted(params)
        assert 0.2e9 < params[0] < 0.6e9
        assert 9e9 < params[-1] < 17e9

    def test_layer_spans_cover_layers(self):
        graph = build_gpt3("350m")
        assert graph.num_layers == 24
        for start, end in graph.layer_spans:
            assert end > start

    def test_unknown_size_raises(self):
        with pytest.raises(KeyError):
            build_gpt3("9000b")

    def test_hidden_heads_divisibility_enforced(self):
        with pytest.raises(ValueError):
            GPTSpec(num_layers=1, hidden=10, num_heads=3)

    def test_layers_variant(self):
        graph = build_gpt3_layers(128)
        assert graph.num_layers == 128
        assert graph.name == "gpt-128l"

    def test_layers_variant_validates(self):
        with pytest.raises(ValueError):
            build_gpt3_layers(0)


class TestT5:
    def test_all_paper_sizes_build(self):
        for size in T5_SIZES:
            graph = build_t5(size)
            assert graph.num_ops > 0

    def test_heterogeneous_costs(self):
        """Encoder layers (seq 2048) cost more than decoder self-attn
        at seq 512 — the imbalance the paper highlights."""
        graph = build_t5("770m")
        enc_qkv = graph.ops[graph.op_index("enc0.attn_qkv")]
        dec_qkv = graph.ops[graph.op_index("dec0.attn_qkv")]
        assert enc_qkv.flops == 4 * dec_qkv.flops

    def test_decoder_has_cross_attention(self):
        graph = build_t5("770m")
        assert graph.op_index("dec0.xattn_core") > 0

    def test_unknown_size_raises(self):
        with pytest.raises(KeyError):
            build_t5("100t")


class TestWideResNet:
    def test_all_paper_sizes_build(self):
        for size in WRN_SIZES:
            graph = build_wide_resnet(size)
            assert graph.precision == "fp32"
            assert graph.global_batch_size == 1536

    def test_param_monotone(self):
        sizes = ["500m", "2b", "4b", "6.8b", "13b"]
        params = [build_wide_resnet(s).total_params for s in sizes]
        assert params == sorted(params)

    def test_conv_ops_present(self):
        graph = build_wide_resnet("500m")
        kinds = {op.kind for op in graph.ops}
        assert "conv2d" in kinds
        assert "norm2d" in kinds

    def test_unknown_size_raises(self):
        with pytest.raises(KeyError):
            build_wide_resnet("tiny")


class TestRegistry:
    def test_available_models_cover_families(self):
        names = available_models()
        assert "gpt3-1.3b" in names
        assert "t5-3b" in names
        assert "wresnet-6.8b" in names

    def test_build_by_name(self):
        assert build_model("gpt3-350m").name == "gpt3-350m"
        assert build_model("GPT3-350M").name == "gpt3-350m"

    def test_layers_pattern(self):
        assert build_model("gpt-32l").num_layers == 32

    def test_batch_size_override(self):
        assert build_model("gpt3-350m", batch_size=64).global_batch_size == 64

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            build_model("resnet-50")
        with pytest.raises(KeyError):
            build_model("nonsense")


def _append_layer(ops, spans, layer):
    spans.append((len(ops), len(ops) + len(layer)))
    ops.extend(layer)


def _gpt_layer_by_layer(spec):
    s, h, v = spec.seq_len, spec.hidden, spec.vocab_size
    ops, spans = [embedding_op("embedding", v, h, s)], []
    for i in range(spec.num_layers):
        _append_layer(ops, spans, gpt3.decoder_layer_ops(spec, i))
    ops += [layernorm_op("final_ln", s, h), lm_head_op("lm_head", v, h, s),
            loss_op("loss", s * v)]
    return ops, spans


def _t5_layer_by_layer(spec):
    h, v = spec.hidden, spec.vocab_size
    enc, dec = spec.enc_seq_len, spec.dec_seq_len
    ops, spans = [embedding_op("enc_embedding", v, h, enc)], []
    for i in range(spec.enc_layers):
        _append_layer(ops, spans, t5.encoder_layer_ops(spec, i))
    ops += [layernorm_op("enc_final_ln", enc, h),
            embedding_op("dec_embedding", v, h, dec)]
    for i in range(spec.dec_layers):
        _append_layer(ops, spans, t5.decoder_layer_ops(spec, i))
    ops += [layernorm_op("dec_final_ln", dec, h),
            lm_head_op("lm_head", v, h, dec), loss_op("loss", dec * v)]
    return ops, spans


LAYERED_MODELS = (
    [(f"gpt3-{size}", _gpt_layer_by_layer, GPTSpec(*shape))
     for size, shape in GPT3_SIZES.items()]
    + [(f"gpt-{n}l", _gpt_layer_by_layer, GPTSpec(n, 1024, 16, seq_len=1024))
       for n in (1, 2, 24, 1000)]
    + [(f"t5-{size}", _t5_layer_by_layer, T5Spec(*shape))
       for size, shape in T5_SIZES.items()]
)


class TestRepeatedLayers:
    """A builder renames one built layer for the rest; the graph must
    equal one built layer by layer."""

    @pytest.mark.parametrize(
        "name,reference,spec", LAYERED_MODELS,
        ids=[case[0] for case in LAYERED_MODELS],
    )
    def test_graph_equals_one_built_layer_by_layer(
        self, name, reference, spec
    ):
        graph = build_model(name)
        ops, spans = reference(spec)
        assert [op.name for op in graph.ops] == [op.name for op in ops]
        assert graph.ops == ops
        assert [hash(op) for op in graph.ops] == [hash(op) for op in ops]
        assert graph.layer_spans == spans
        fresh = GraphArrays(ops)
        for slot in GraphArrays.__slots__:
            got, want = getattr(graph.arrays, slot), getattr(fresh, slot)
            if slot == "class_ops":
                assert got == want
            else:
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), slot

    def test_renamed_equals_a_fresh_op_and_pickles(self):
        ops = build_model("gpt-1l").ops + list(
            build_model("t5-770m").arrays.class_ops
        )
        for op in ops:
            name = op.name
            copy = op.renamed("other")
            fresh = dataclasses.replace(op, name="other")
            assert type(copy) is type(op)
            assert copy == fresh and hash(copy) == hash(fresh)
            assert op.name == name
            assert pickle.loads(pickle.dumps(copy)) == fresh
            with pytest.raises(dataclasses.FrozenInstanceError):
                copy.name = name
