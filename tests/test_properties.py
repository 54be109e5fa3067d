"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CollectiveCostModel, paper_cluster
from repro.ir.tensor import TensorSpec
from repro.numrt import MLP, make_dataset, pp_fn, rc_fn, runs_equivalent, serial_fn, train
from repro.parallel import split_devices, split_ops_balanced
from repro.perfmodel import in_flight_counts, iteration_time_1f1b
from repro.runtime import max_in_flight, simulate_pipeline, stage_schedule
from repro.runtime.memory_trace import activation_kept_mask

from conftest import make_tiny_gpt

powers_of_two = st.integers(0, 6).map(lambda e: 1 << e)


class TestSplitDevicesProperties:
    @given(total_exp=st.integers(0, 7), data=st.data())
    def test_split_always_valid(self, total_exp, data):
        total = 1 << total_exp
        parts = data.draw(st.integers(1, total))
        counts = split_devices(total, parts)
        assert sum(counts) == total
        assert len(counts) == parts
        assert all(c >= 1 and (c & (c - 1)) == 0 for c in counts)

    @given(total_exp=st.integers(1, 7), data=st.data())
    def test_split_reasonably_balanced(self, total_exp, data):
        total = 1 << total_exp
        parts = data.draw(st.integers(1, total))
        counts = split_devices(total, parts)
        # No stage holds more than half the machine unless forced to.
        if parts >= 4:
            assert max(counts) <= total // 2


class TestSplitOpsProperties:
    @given(num_stages=st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_boundaries_partition(self, num_stages):
        graph = make_tiny_gpt()
        bounds = split_ops_balanced(graph, num_stages)
        assert bounds[0] == 0
        assert bounds[-1] == graph.num_ops
        assert all(b > a for a, b in zip(bounds, bounds[1:]))
        assert len(bounds) == num_stages + 1


class TestScheduleProperties:
    @given(
        num_stages=st.integers(1, 8),
        num_microbatches=st.integers(1, 32),
    )
    @settings(max_examples=50, deadline=None)
    def test_1f1b_invariants(self, num_stages, num_microbatches):
        for stage in range(num_stages):
            tasks = stage_schedule(stage, num_stages, num_microbatches)
            assert len(tasks) == 2 * num_microbatches
            # Forward of each microbatch precedes its backward.
            seen = set()
            for task in tasks:
                if task.direction == "B":
                    assert task.microbatch in seen
                else:
                    seen.add(task.microbatch)
            # In-flight never exceeds Eq. 1's bound.
            assert (
                max_in_flight(stage, num_stages, num_microbatches)
                <= min(num_stages - stage, num_microbatches)
            )

    @given(
        num_stages=st.integers(1, 6),
        num_microbatches=st.integers(1, 16),
        fwd=st.floats(0.1, 10.0),
        bwd=st.floats(0.1, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_simulator_at_least_analytic(
        self, num_stages, num_microbatches, fwd, bwd
    ):
        """The event simulation can never beat the Eq. 2 lower-ish
        bound for homogeneous stages (they coincide exactly there)."""
        analytic = iteration_time_1f1b(
            [fwd] * num_stages, [bwd] * num_stages, num_microbatches
        )
        simulated = simulate_pipeline(
            [fwd] * num_stages, [bwd] * num_stages, num_microbatches
        ).makespan
        assert simulated >= analytic * 0.999
        assert simulated <= analytic * 1.001


class TestMemoryProperties:
    @given(
        num_stages=st.integers(1, 10),
        num_microbatches=st.integers(1, 64),
    )
    def test_in_flight_monotone_decreasing(
        self, num_stages, num_microbatches
    ):
        counts = in_flight_counts(num_stages, num_microbatches)
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 1 or num_microbatches == counts[-1]

    @given(st.lists(st.booleans(), min_size=1, max_size=64))
    def test_kept_mask_bounds(self, flags):
        rc = np.array(flags)
        sid = np.zeros(len(flags), dtype=np.int64)
        kept = activation_kept_mask(rc, sid)
        # Non-recomputed ops always keep activations.
        assert np.all(kept[~rc] == 1.0)
        # Total kept never exceeds op count; at least segment starts.
        assert kept.sum() <= len(flags)
        if rc.any():
            assert kept[np.argmax(rc)] == 1.0  # first recomputed op


class TestTensorSpecProperties:
    @given(
        dims=st.lists(st.integers(1, 64), min_size=1, max_size=4),
        ways_exp=st.integers(0, 3),
    )
    def test_split_conserves_elements(self, dims, ways_exp):
        ways = 1 << ways_exp
        dims = list(dims)
        dims[0] *= ways  # make divisible
        spec = TensorSpec(tuple(dims))
        shard = spec.split(0, ways)
        assert shard.numel * ways == spec.numel


class TestCollectiveProperties:
    @given(
        bytes_exp=st.integers(10, 28),
        group_exp=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_allreduce_at_least_allgather(self, bytes_exp, group_exp):
        model = CollectiveCostModel(paper_cluster(32))
        num_bytes = 1 << bytes_exp
        group = 1 << group_exp
        assert model.allreduce_time(num_bytes, group) >= model.allgather_time(
            num_bytes, group
        )

    @given(group_exp=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_allreduce_monotone_in_bytes(self, group_exp):
        model = CollectiveCostModel(paper_cluster(32))
        group = 1 << group_exp
        times = [
            model.allreduce_time(1 << e, group) for e in range(16, 26, 2)
        ]
        assert times == sorted(times)


class TestNumrtProperties:
    @given(
        stages=st.sampled_from([1, 2, 4]),
        microbatches=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=12, deadline=None)
    def test_pipeline_always_serial_equivalent(self, stages, microbatches):
        model = MLP([8, 16, 8, 16, 4], seed=5)
        x, target = make_dataset(16, 8, 4, seed=6)
        reference = train(model, x, target, serial_fn, steps=2)
        run = train(model, x, target, pp_fn(stages, microbatches), steps=2)
        assert runs_equivalent(reference, run)

    @given(segment=st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_recompute_always_serial_equivalent(self, segment):
        model = MLP([8, 16, 8, 16, 4], seed=5)
        x, target = make_dataset(16, 8, 4, seed=6)
        reference = train(model, x, target, serial_fn, steps=2)
        run = train(model, x, target, rc_fn(segment), steps=2)
        assert runs_equivalent(reference, run)
