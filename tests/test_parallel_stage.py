"""Tests for repro.parallel.stage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import StageConfig, is_power_of_two


class TestIsPowerOfTwo:
    def test_powers(self):
        for v in (1, 2, 4, 1024):
            assert is_power_of_two(v)

    def test_non_powers(self):
        for v in (0, 3, 6, -4):
            assert not is_power_of_two(v)


class TestStageConfig:
    def test_uniform_basics(self):
        stage = StageConfig.uniform(0, 4, 8, tp=2)
        assert stage.num_ops == 4
        assert list(stage.op_indices) == [0, 1, 2, 3]
        assert np.all(stage.tp == 2)
        assert np.all(stage.dp == 4)
        assert not np.any(stage.recompute)

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            StageConfig.uniform(4, 4, 2)  # empty span
        with pytest.raises(ValueError):
            StageConfig.uniform(0, 4, 3)  # non-pow2 devices
        with pytest.raises(ValueError):
            StageConfig.uniform(0, 4, 2, tp=4)  # tp > devices
        with pytest.raises(ValueError):
            StageConfig.uniform(0, 4, 4, tp=3)  # non-pow2 tp

    def test_array_shape_validated(self):
        with pytest.raises(ValueError):
            StageConfig(
                start=0, end=2, num_devices=2,
                tp=np.ones(3, dtype=np.int64),
                dp=np.ones(2, dtype=np.int64),
                tp_dim=np.zeros(2, dtype=np.int64),
                recompute=np.zeros(2, dtype=bool),
            )

    def test_clone_is_deep(self):
        stage = StageConfig.uniform(0, 4, 4)
        copy = stage.clone()
        copy.tp[0] = 4
        assert stage.tp[0] == 1

    def test_slice_arrays(self):
        stage = StageConfig.uniform(2, 8, 4, tp=2)
        part = stage.slice_arrays(1, 3)
        assert part.start == 3 and part.end == 5
        assert np.all(part.tp == 2)
        with pytest.raises(ValueError):
            stage.slice_arrays(3, 3)

    def test_set_uniform_parallel(self):
        stage = StageConfig.uniform(0, 4, 8)
        stage.set_uniform_parallel(4)
        assert np.all(stage.tp == 4)
        assert np.all(stage.dp == 2)
        with pytest.raises(ValueError):
            stage.set_uniform_parallel(16)

    def test_with_devices_rescales(self):
        stage = StageConfig.uniform(0, 4, 8, tp=4)
        grown = stage.with_devices(16)
        assert np.all(grown.dp == 4)
        shrunk = stage.with_devices(2)
        assert np.all(shrunk.tp == 2)
        assert np.all(shrunk.dp == 1)

    def test_signature_bytes_changes_with_settings(self):
        a = StageConfig.uniform(0, 4, 4, tp=1)
        b = StageConfig.uniform(0, 4, 4, tp=2)
        assert a.signature_bytes() != b.signature_bytes()
        assert a.signature_bytes() == a.clone().signature_bytes()


def rebuilt(stage):
    """A stage built from scratch out of ``stage``'s header and arrays."""
    return StageConfig(
        start=stage.start,
        end=stage.end,
        num_devices=stage.num_devices,
        tp=stage.tp.copy(),
        dp=stage.dp.copy(),
        tp_dim=stage.tp_dim.copy(),
        recompute=stage.recompute.copy(),
    )


def assert_hashes_like_rebuilt(stage):
    fresh = rebuilt(stage)
    assert stage.base_digest() == fresh.base_digest()
    assert stage.digest() == fresh.digest()


def writable(stage):
    """Whether each of the stage's four arrays accepts writes."""
    return [
        getattr(stage, name).flags.writeable
        for name in ("tp", "dp", "tp_dim", "recompute")
    ]


def assert_base_arrays_read_only(stage):
    for name in ("tp", "dp", "tp_dim"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(stage, name)[0] = 1


class TestDigestInheritance:
    """A recompute-only edit (``with_recompute``) shares the stage's
    tp/dp/tp_dim arrays and base digest; every other edit goes through a
    writable ``clone()`` and re-hashes."""

    def test_with_recompute_reuses_the_base_digest(self):
        stage = StageConfig.uniform(0, 6, 4, tp=2)
        base = stage.base_digest()
        mask = np.zeros(6, dtype=bool)
        mask[2:5] = True
        shared = stage.with_recompute(mask)
        assert shared.base_digest() is base
        assert shared.recompute is mask
        assert all(
            getattr(shared, name) is getattr(stage, name)
            for name in ("tp", "dp", "tp_dim")
        )
        assert shared.digest() != stage.digest()
        assert_hashes_like_rebuilt(shared)
        assert_hashes_like_rebuilt(stage.with_recompute(True))

    def test_with_recompute_hashes_an_unhashed_parent_once(self):
        stage = StageConfig.uniform(0, 6, 4, tp=2)
        shared = stage.with_recompute(False)
        assert shared._base_digest is stage._base_digest is not None
        assert shared.digest() == stage.digest()
        assert_hashes_like_rebuilt(shared)

    def test_shared_arrays_are_read_only_in_both_stages(self):
        stage = StageConfig.uniform(0, 6, 4, tp=2)
        shared = stage.with_recompute(True)
        assert writable(stage) == writable(shared) == [
            False, False, False, True
        ]
        for either in (stage, shared):
            assert_base_arrays_read_only(either)
            with pytest.raises(ValueError, match="read-only"):
                either.set_uniform_parallel(1)
            assert_hashes_like_rebuilt(either)
        assert np.all(stage.tp == 2) and not stage.recompute.any()

    def test_copies_of_shared_stages_are_writable(self):
        stage = StageConfig.uniform(0, 6, 4, tp=2)
        shared = stage.with_recompute(True)
        for either in (stage, shared):
            for copy in (either.clone(), either.with_devices(8),
                         either.slice_arrays(1, 4)):
                assert all(writable(copy))
                copy.tp[0] = 1
                copy.dp[0] = copy.num_devices
                assert_hashes_like_rebuilt(copy)
        assert np.all(stage.tp == 2) and np.all(shared.tp == 2)

    def test_edited_clone_rehashes(self):
        stage = StageConfig.uniform(0, 6, 4, tp=2)
        stage.digest()
        copy = stage.clone()
        copy.tp_dim[0] = 1
        assert copy.base_digest() != stage.base_digest()
        assert_hashes_like_rebuilt(copy)

    def test_source_reset_after_clone_is_not_trusted(self):
        stage = StageConfig.uniform(0, 6, 4, tp=2)
        stage.digest()
        copy = stage.clone()
        stage.set_uniform_parallel(4)
        stage.digest()
        assert_hashes_like_rebuilt(copy)
        assert copy.base_digest() != stage.base_digest()

    def test_invalidate_clears_both_digests(self):
        stage = StageConfig.uniform(0, 6, 4, tp=2)
        before = (stage.base_digest(), stage.digest())
        stage.set_uniform_parallel(1)
        assert (stage.base_digest(), stage.digest()) != before
        assert_hashes_like_rebuilt(stage)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_clone_edit_chains_hash_like_fresh_stages(self, data):
        """Random chains of clones, recompute-only shares and in-place
        edits: after every step each live stage hashes exactly like one
        rebuilt from its arrays, an in-place edit of a stage whose
        arrays are shared raises and changes nothing, and digests agree
        with ``signature_bytes`` equality."""
        num_ops = data.draw(st.integers(1, 10), label="num_ops")
        devices = data.draw(st.sampled_from([1, 2, 4, 8]), label="devices")
        pool = [StageConfig.uniform(0, num_ops, devices)]
        pool[0].digest()

        def draw_tp(stage):
            return data.draw(st.sampled_from(
                [t for t in (1, 2, 4, 8) if t <= stage.num_devices]
            ))

        def draw_span(stage):
            lo = data.draw(st.integers(0, stage.num_ops - 1))
            return lo, data.draw(st.integers(lo + 1, stage.num_ops))

        def set_uniform(stage):
            if stage.tp.flags.writeable:
                stage.set_uniform_parallel(draw_tp(stage))
                return
            before = stage.signature_bytes()
            with pytest.raises(ValueError, match="read-only"):
                stage.set_uniform_parallel(draw_tp(stage))
            assert stage.signature_bytes() == before

        for _ in range(data.draw(st.integers(1, 20), label="steps")):
            src = pool[data.draw(st.integers(0, len(pool) - 1))]
            kind = data.draw(st.sampled_from([
                "tp", "tp_dim", "recompute", "rewrite", "uniform",
                "devices", "slice", "reset_source", "share",
            ]))
            stage = src.clone()
            lo, hi = draw_span(stage)
            if kind == "tp":
                tp = draw_tp(stage)
                stage.tp[lo:hi] = tp
                stage.dp[lo:hi] = stage.num_devices // tp
            elif kind == "tp_dim":
                stage.tp_dim[lo:hi] = data.draw(st.integers(0, 2))
            elif kind == "recompute":
                stage.recompute[lo:hi] = data.draw(st.booleans())
            elif kind == "rewrite":  # an edit that changes nothing
                stage.tp[lo:hi] = src.tp[lo:hi]
                stage.recompute[lo:hi] = src.recompute[lo:hi]
            elif kind == "uniform":  # in place, on a hashed stage
                stage = src
                set_uniform(stage)
            elif kind == "devices":
                stage = src.with_devices(
                    data.draw(st.sampled_from([1, 2, 4, 8]))
                )
            elif kind == "slice":
                stage = src.slice_arrays(lo, hi)
            elif kind == "share":
                mask = src.recompute.copy()
                mask[lo:hi] = data.draw(st.booleans())
                stage = src.with_recompute(mask)
            else:  # the source moves on before the clone hashes
                set_uniform(src)
                if data.draw(st.booleans()):
                    src.digest()
            if stage is not src:
                pool.append(stage)
            for live in pool:
                assert_hashes_like_rebuilt(live)

        for a in pool:
            for b in pool:
                assert (a.digest() == b.digest()) == (
                    a.signature_bytes() == b.signature_bytes()
                )


#: Values on both sides of the one-byte encoding's range, and far out.
EDGE_VALUES = [-1, 0, 1, 255, 256, 2**40]


def raw_stage(start, num_devices, tp, dp, tp_dim, recompute):
    """A stage built from raw (possibly invalid) per-op values."""
    return StageConfig(
        start=start,
        end=start + len(tp),
        num_devices=num_devices,
        tp=np.array(tp, dtype=np.int64),
        dp=np.array(dp, dtype=np.int64),
        tp_dim=np.array(tp_dim, dtype=np.int64),
        recompute=np.array(recompute, dtype=bool),
    )


def base_bytes(stage):
    """What :meth:`StageConfig.base_digest` identifies: the header and
    the tp/dp/tp_dim bytes."""
    return stage._header_bytes() + b"".join(
        a.tobytes() for a in (stage.tp, stage.dp, stage.tp_dim)
    )


@st.composite
def edge_stages(draw, num_ops):
    def values():
        return draw(st.lists(
            st.sampled_from(EDGE_VALUES), min_size=num_ops, max_size=num_ops
        ))

    return raw_stage(
        draw(st.sampled_from([0, 1])),
        draw(st.sampled_from([1, 256])),
        values(), values(), values(),
        draw(st.lists(st.booleans(), min_size=num_ops, max_size=num_ops)),
    )


class TestDigestEncodings:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_digests_are_injective_at_the_encoding_edges(self, data):
        """Stages whose values straddle the one-byte range (negative,
        255, 256, 2**40) and whose recompute flags pack into a partial
        last byte (1-17 ops): ``base_digest`` is equal exactly when the
        header and tp/dp/tp_dim bytes are, ``digest`` exactly when
        ``signature_bytes`` are."""
        lengths = data.draw(st.lists(
            st.integers(1, 17), min_size=2, max_size=4
        ), label="lengths")
        pool = [data.draw(edge_stages(n)) for n in lengths]
        # Near twins: one value or one flag changed.
        for stage in list(pool):
            twin = stage.clone()
            op = data.draw(st.integers(0, stage.num_ops - 1))
            name = data.draw(st.sampled_from(
                ["tp", "dp", "tp_dim", "recompute"]
            ))
            array = getattr(twin, name)
            if name == "recompute":
                array[op] = not array[op]
            else:
                array[op] = data.draw(st.sampled_from(EDGE_VALUES))
            pool.append(twin)
        for a in pool:
            for b in pool:
                assert (a.base_digest() == b.base_digest()) == (
                    base_bytes(a) == base_bytes(b)
                )
                assert (a.digest() == b.digest()) == (
                    a.signature_bytes() == b.signature_bytes()
                )

    @pytest.mark.parametrize("wide,narrow", [(256, 0), (-1, 255)])
    def test_values_that_share_a_low_byte_differ(self, wide, narrow):
        """256 and -1 hash as int64, 0 and 255 as one byte each: same
        low byte, different digests, on every array."""
        for name in ("tp", "dp", "tp_dim"):
            values = {"tp": [1, 2], "dp": [2, 1], "tp_dim": [0, 0]}
            values[name] = [values[name][0], wide]
            a = raw_stage(0, 2, recompute=[False, False], **values)
            values[name] = [values[name][0], narrow]
            b = raw_stage(0, 2, recompute=[False, False], **values)
            assert a.base_digest() != b.base_digest()
            assert a.digest() != b.digest()

    @pytest.mark.parametrize("num_ops", [1, 7, 8, 9, 16, 17])
    def test_last_recompute_flag_counts(self, num_ops):
        """Stages that differ only in their last recompute flag share a
        base digest and differ in digest, whether that flag sits in a
        full or a padded byte."""
        a = StageConfig.uniform(0, num_ops, 4, tp=2)
        b = a.clone()
        b.recompute[-1] = True
        assert a.base_digest() == b.base_digest()
        assert a.digest() != b.digest()
        # One more op packs into the same bytes when the flags are all
        # off; the header's length still tells the stages apart.
        longer = StageConfig.uniform(0, num_ops + 1, 4, tp=2)
        assert longer.digest() != a.digest()
