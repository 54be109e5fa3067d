"""Tests for repro.ir.graph."""

import numpy as np
import pytest

from repro.ir.graph import GraphArrays, OpGraph
from repro.ir.ops import elementwise_op, matmul_op

from conftest import make_tiny_gpt


def two_op_graph():
    return OpGraph(
        name="toy",
        ops=[matmul_op("m", 4, 8, 2), elementwise_op("e", "relu", 16)],
        precision="fp16",
        global_batch_size=8,
    )


class TestOpGraph:
    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            OpGraph(name="x", ops=[])

    def test_bad_batch_raises(self):
        with pytest.raises(ValueError):
            OpGraph(name="x", ops=[matmul_op("m", 2, 2, 1)],
                    global_batch_size=0)

    def test_len_iter_getitem(self):
        graph = two_op_graph()
        assert len(graph) == 2
        assert [op.name for op in graph] == ["m", "e"]
        assert graph[1].kind == "relu"

    def test_total_params(self):
        graph = two_op_graph()
        assert graph.total_params == 4 * 8 + 8

    def test_elem_bytes(self):
        assert two_op_graph().elem_bytes == 2

    def test_op_index(self):
        graph = two_op_graph()
        assert graph.op_index("e") == 1
        with pytest.raises(KeyError):
            graph.op_index("missing")

    def test_describe_mentions_name(self):
        assert "toy" in two_op_graph().describe()

    def test_total_flops_positive(self):
        graph = make_tiny_gpt()
        assert graph.total_fwd_flops_per_sample > 0
        assert (
            graph.total_train_flops_per_sample
            > graph.total_fwd_flops_per_sample
        )


class TestGraphArrays:
    def test_shapes(self):
        graph = make_tiny_gpt()
        arrays = graph.arrays
        n = graph.num_ops
        assert arrays.flops.shape == (n,)
        assert arrays.fwd_comm_numel.shape[0] == n
        assert arrays.num_ops == n

    def test_arrays_cached(self):
        graph = make_tiny_gpt()
        assert graph.arrays is graph.arrays

    def test_arrays_immutable(self):
        graph = make_tiny_gpt()
        with pytest.raises(ValueError):
            graph.arrays.flops[0] = 1.0

    def test_option_padding_repeats_last(self):
        graph = two_op_graph()
        arrays = GraphArrays(graph.ops)
        # op "e" has 1 option; padded column repeats it.
        assert (
            arrays.fwd_comm_numel[1, 0] == arrays.fwd_comm_numel[1, 1]
        )

    def test_values_match_ops(self):
        graph = two_op_graph()
        arrays = graph.arrays
        assert arrays.params[0] == graph.ops[0].params
        assert arrays.max_tp[1] == graph.ops[1].max_tp
        np.testing.assert_allclose(
            arrays.bwd_flops[0], graph.ops[0].bwd_flops
        )
