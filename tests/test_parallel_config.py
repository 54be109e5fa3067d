"""Tests for repro.parallel.config."""

import multiprocessing
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import ParallelConfig, StageConfig


def two_stage_config():
    return ParallelConfig(
        stages=[
            StageConfig.uniform(0, 4, 2, tp=2),
            StageConfig.uniform(4, 10, 2, tp=1),
        ],
        microbatch_size=4,
    )


class TestStructure:
    def test_basics(self):
        config = two_stage_config()
        assert config.num_stages == 2
        assert config.num_ops == 10
        assert config.total_devices == 4

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ParallelConfig(stages=[])

    def test_bad_microbatch_raises(self):
        with pytest.raises(ValueError):
            ParallelConfig(
                stages=[StageConfig.uniform(0, 2, 1)], microbatch_size=0
            )

    def test_num_microbatches(self):
        config = two_stage_config()
        assert config.num_microbatches(64) == 16
        with pytest.raises(ValueError):
            config.num_microbatches(63)

    def test_stage_of_op(self):
        config = two_stage_config()
        assert config.stage_of_op(0) == 0
        assert config.stage_of_op(4) == 1
        assert config.stage_of_op(9) == 1
        with pytest.raises(IndexError):
            config.stage_of_op(10)

    def test_stage_first_device(self):
        config = two_stage_config()
        assert config.stage_first_device(0) == 0
        assert config.stage_first_device(1) == 2


class TestIdentity:
    def test_clone_independent(self):
        config = two_stage_config()
        copy = config.clone()
        copy.stages[0].tp[0] = 1
        assert config.stages[0].tp[0] == 2

    def test_signature_equal_for_equal_configs(self):
        assert two_stage_config().signature() == two_stage_config().signature()

    def test_signature_differs_on_microbatch(self):
        a = two_stage_config()
        b = two_stage_config()
        b.microbatch_size = 8
        assert a.signature() != b.signature()

    def test_signature_differs_on_op_setting(self):
        a = two_stage_config()
        b = two_stage_config()
        b.stages[1].recompute[0] = True
        assert a.signature() != b.signature()

    def test_clone_drops_signature_cache(self):
        config = two_stage_config()
        sig = config.signature()
        copy = config.clone()
        copy.stages[0].tp_dim[0] = 1
        assert copy.signature() != sig

    def test_cache_key_equal_for_equal_configs(self):
        assert two_stage_config().cache_key() == two_stage_config().cache_key()

    def test_cache_key_differs_on_microbatch(self):
        a = two_stage_config()
        b = two_stage_config()
        b.microbatch_size = 8
        assert a.cache_key() != b.cache_key()

    def test_cache_key_differs_on_op_setting(self):
        a = two_stage_config()
        b = two_stage_config()
        b.stages[1].recompute[0] = True
        assert a.cache_key() != b.cache_key()

    def test_cache_key_tracks_signature_equality(self):
        # cache_key is the perf-model's fast stand-in for signature():
        # the two must agree on whether any pair of configs is equal.
        base = two_stage_config()
        variants = [base, two_stage_config()]
        mutated = base.mutated_copy(dirty_stages=[1])
        mutated.stages[1].recompute[:] = True
        variants.append(mutated)
        resized = two_stage_config()
        resized.microbatch_size = 4
        variants.append(resized)
        for a in variants:
            for b in variants:
                same_sig = a.signature() == b.signature()
                same_key = a.cache_key() == b.cache_key()
                assert same_sig == same_key

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_cache_key_equality_iff_signature_equality(self, data):
        """Config pairs that differ only in recompute flags, only in the
        microbatch size, only in one stage boundary, or not at all: the
        dedup key and the signature agree on equality."""
        num_stages = data.draw(st.integers(1, 4), label="stages")
        num_ops = data.draw(st.integers(num_stages + 1, 12), label="ops")
        cuts = sorted(data.draw(st.sets(
            st.integers(1, num_ops - 1),
            min_size=num_stages - 1, max_size=num_stages - 1,
        ), label="cuts"))
        bounds = [0] + cuts + [num_ops]
        tps = [data.draw(st.sampled_from([1, 2, 4])) for _ in cuts + [0]]
        mbs = data.draw(st.sampled_from([1, 2, 4]), label="mbs")
        a = config_from_bounds(bounds, tps, mbs)
        a.cache_key()  # hashed stages, as in the search

        kind = data.draw(st.sampled_from(
            ["none", "recompute", "mbs", "boundary"]
        ))
        if kind == "none":
            b = a.clone()
        elif kind == "recompute":
            index = data.draw(st.integers(0, num_stages - 1))
            b = a.mutated_copy([index])
            stage = b.stages[index]
            op = data.draw(st.integers(0, stage.num_ops - 1))
            stage.recompute[op] = data.draw(st.booleans())
        elif kind == "mbs":
            b = a.mutated_copy()
            b.microbatch_size = data.draw(st.sampled_from([1, 2, 4]))
        else:
            moved = list(bounds)
            if num_stages > 1:
                cut = data.draw(st.integers(1, num_stages - 1))
                moved[cut] = data.draw(st.integers(
                    moved[cut - 1] + 1, moved[cut + 1] - 1
                ))
            b = config_from_bounds(moved, tps, mbs)
        assert (a.cache_key() == b.cache_key()) == (
            a.signature() == b.signature()
        )


def config_from_bounds(bounds, tps, mbs):
    return ParallelConfig(
        stages=[
            StageConfig.uniform(lo, hi, 4, tp=tp)
            for lo, hi, tp in zip(bounds, bounds[1:], tps)
        ],
        microbatch_size=mbs,
    )


class TestPickleHygiene:
    def test_chained_clones_pickle_like_a_fresh_stage(self):
        """No digest rides along in a pickle, so nothing a search chain
        built crosses the worker-pool pipe."""
        rng = np.random.default_rng(0)
        fresh = StageConfig.uniform(0, 16, 4, tp=2)
        stage = fresh.clone()
        for step in range(50):
            stage = stage.clone()
            ops = rng.random(stage.num_ops) < 0.3
            if step % 3:
                stage.recompute[ops] = ~stage.recompute[ops]
            else:
                stage.tp_dim[ops] = 1 - stage.tp_dim[ops]
            stage.digest()
        assert len(pickle.dumps(stage)) == len(pickle.dumps(fresh))
        restored = pickle.loads(pickle.dumps(stage.clone()))
        assert restored._digest is None and restored._base_digest is None
        assert restored.digest() == stage.digest()

    def test_shared_pair_unpickles_writable_and_unshared(self):
        """A config and its ``with_recompute`` child share stage 0's
        tp/dp/tp_dim read-only; sent together through a pool pipe they
        arrive with private writable arrays and the same digests."""
        config = two_stage_config()
        child = config.with_recompute(0, np.array([1, 0, 1, 1], bool))
        assert child.stages[0].tp is config.stages[0].tp
        assert child.stages[1] is config.stages[1]
        keys = (config.cache_key(), child.cache_key())
        send, receive = multiprocessing.Pipe()
        with send, receive:
            send.send((config, child))
            parent_copy, child_copy = receive.recv()
        assert (parent_copy.cache_key(), child_copy.cache_key()) == keys
        ours, theirs = parent_copy.stages[0], child_copy.stages[0]
        for name in ("tp", "dp", "tp_dim", "recompute"):
            assert getattr(ours, name).flags.writeable
            assert getattr(theirs, name).flags.writeable
            assert not np.shares_memory(
                getattr(ours, name), getattr(theirs, name)
            )
        theirs.tp[0] = 1
        assert ours.tp[0] == 2
        assert not config.stages[0].tp.flags.writeable

    def test_copies_of_a_shared_config_are_writable(self):
        config = two_stage_config()
        child = config.with_recompute(0, True)
        for either in (config, child):
            for copy in (either.clone(), either.mutated_copy([0])):
                stage = copy.stages[0]
                assert stage.tp.flags.writeable
                stage.tp[0] = 1
                assert copy.cache_key() != either.cache_key()
        assert np.all(config.stages[0].tp == 2)
        assert np.all(child.stages[0].tp == 2)


class TestViews:
    def test_gather_arrays(self):
        tp, dp, tp_dim, rc, stage_id = two_stage_config().gather_arrays()
        assert tp.shape == (10,)
        assert np.all(tp[:4] == 2)
        assert np.all(stage_id[:4] == 0)
        assert np.all(stage_id[4:] == 1)
        assert not rc.any()

    def test_describe(self):
        text = two_stage_config().describe()
        assert "2-stage pipeline" in text
        assert "microbatch=4" in text

    def test_summary_tuple(self):
        summary = two_stage_config().summary_tuple()
        assert summary == ((0, 4, 2), (4, 10, 2), 4)
