"""Cost classes: per-op tables gathered from one row per class.

``GraphArrays`` groups ops equal in every ``OpSpec`` field but the name
and builds its tables, ``ProfiledGraph``'s and the profiler's signature
pass from one representative per class.  These tests pin the class key
to the ``OpSpec`` fields and check the gathered tables against their
per-op definitions on generated and benchmark graphs.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import paper_cluster
from repro.ir.graph import COST_FIELDS, GraphArrays
from repro.ir.models import build_model, build_synthetic
from repro.ir.ops import OpSpec, PartitionOption, matmul_op
from repro.profiling import ProfiledGraph, SimulatedProfiler, op_signature

#: The models the end-to-end benchmark plans for.
BENCHMARK_MODELS = (
    "gpt-8l", "gpt-16l", "gpt-24l", "gpt-32l", "gpt3-350m", "t5-770m",
    "wresnet-500m", "gpt-1000l",
)

#: One edit per cost field that changes the op's cost identity.
PERTURB = {
    "kind": lambda v: v + "_x",
    "flops": lambda v: v + 1.0,
    "params": lambda v: v + 1,
    "out_numel": lambda v: v + 1,
    "saved_numel": lambda v: v + 1,
    "partition_options": lambda v: v + (PartitionOption("extra"),),
    "max_tp": lambda v: v + 1,
    "bwd_flops_ratio": lambda v: v + 0.5,
}


def test_class_key_covers_every_opspec_field_but_the_name():
    names = {f.name for f in dataclasses.fields(OpSpec)}
    assert set(COST_FIELDS) == names - {"name"}
    # A new OpSpec field needs an edit here, so the test below proves
    # that two ops differing only in it land in different classes.
    assert set(PERTURB) == set(COST_FIELDS)


def test_ops_differing_in_one_cost_field_split_classes():
    base = matmul_op("a", 64, 128, 16)
    ops = [base, dataclasses.replace(base, name="renamed")]
    ops += [
        dataclasses.replace(base, **{name: edit(getattr(base, name))})
        for name, edit in PERTURB.items()
    ]
    arrays = GraphArrays(ops)
    assert arrays.op_class[0] == arrays.op_class[1] == 0
    assert list(arrays.op_class[2:]) == list(range(1, len(PERTURB) + 1))
    assert arrays.class_ops[0] is base


@lru_cache(maxsize=None)
def _benchmark_graph(name):
    return build_model(name)


graphs = st.one_of(
    st.builds(
        build_synthetic,
        st.integers(min_value=2, max_value=80),
        seed=st.integers(min_value=0, max_value=10_000),
    ),
    st.sampled_from(BENCHMARK_MODELS).map(_benchmark_graph),
)


@settings(max_examples=30, deadline=None)
@given(graph=graphs, gpus=st.sampled_from([1, 4, 8]))
def test_gathered_tables_match_their_per_op_definitions(graph, gpus):
    database = SimulatedProfiler(paper_cluster(gpus)).profile(graph)
    assert set(database.ops) == {op_signature(op) for op in graph.ops}
    profiled = ProfiledGraph(graph, database)
    arrays = graph.arrays
    max_opts = arrays.fwd_comm_numel.shape[1]
    kinds = sorted({op.kind for op in graph.ops})
    for i, op in enumerate(graph.ops):
        assert kinds[arrays.kind_code[i]] == op.kind
        assert arrays.flops[i] == op.flops
        assert arrays.params[i] == op.params
        assert arrays.num_options[i] == op.num_partition_options
        pad = [min(j, op.num_partition_options - 1) for j in range(max_opts)]
        padded = [op.partition_options[j] for j in pad]
        assert list(arrays.fwd_comm_numel[i]) == [
            o.fwd_comm_numel for o in padded
        ]
        assert list(arrays.bwd_comm_numel[i]) == [
            o.bwd_comm_numel for o in padded
        ]
        assert list(arrays.shards_output[i]) == [
            o.shards_output for o in padded
        ]
        record = database.lookup(op_signature(op))
        for mine, theirs in (
            (profiled.fwd_fixed, record.fwd_fixed),
            (profiled.fwd_slope, record.fwd_slope),
            (profiled.bwd_fixed, record.bwd_fixed),
            (profiled.bwd_slope, record.bwd_slope),
        ):
            np.testing.assert_array_equal(mine[i], theirs[:, pad])
