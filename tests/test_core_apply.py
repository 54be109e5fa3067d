"""Tests for primitive application."""

import functools
import operator
import pickle
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import paper_cluster
from repro.core import (
    ApplyContext,
    apply_primitive,
    identify_bottleneck,
    move_ops,
)
from repro.parallel import (
    ParallelConfig,
    StageConfig,
    balanced_config,
    is_valid,
    validate_config,
)
from repro.core import apply as apply_module
from repro.perfmodel import model as perfmodel_module

from conftest import make_tiny_gpt


@pytest.fixture()
def ctx(tiny_graph, small_cluster, tiny_perf_model):
    config = balanced_config(tiny_graph, small_cluster, 4)
    report = tiny_perf_model.estimate(config)
    return ApplyContext(
        graph=tiny_graph,
        cluster=small_cluster,
        perf_model=tiny_perf_model,
        config=config,
        report=report,
        bottleneck=identify_bottleneck(report),
    )


def _ctx_for(graph, cluster, perf_model, config, stage=None):
    report = perf_model.estimate(config)
    bottleneck = identify_bottleneck(report)
    if stage is not None:
        from repro.core.bottleneck import Bottleneck

        bottleneck = Bottleneck(
            stage=stage, resources=bottleneck.resources, is_oom=False
        )
    return ApplyContext(
        graph=graph,
        cluster=cluster,
        perf_model=perf_model,
        config=config,
        report=report,
        bottleneck=bottleneck,
    )


class TestMoveOps:
    def test_adjacent_move(self, tiny_graph, small_cluster):
        config = balanced_config(tiny_graph, small_cluster, 4)
        before = [s.num_ops for s in config.stages]
        moved = move_ops(config, tiny_graph, 0, 1, 2)
        after = [s.num_ops for s in moved.stages]
        assert after[0] == before[0] - 2
        assert after[1] == before[1] + 2
        validate_config(moved, tiny_graph, small_cluster)

    def test_relay_move(self, tiny_graph, small_cluster):
        config = balanced_config(tiny_graph, small_cluster, 4)
        before = [s.num_ops for s in config.stages]
        moved = move_ops(config, tiny_graph, 0, 3, 1)
        after = [s.num_ops for s in moved.stages]
        assert after[0] == before[0] - 1
        assert after[1] == before[1]
        assert after[2] == before[2]
        assert after[3] == before[3] + 1
        validate_config(moved, tiny_graph, small_cluster)

    def test_backward_move(self, tiny_graph, small_cluster):
        config = balanced_config(tiny_graph, small_cluster, 4)
        moved = move_ops(config, tiny_graph, 3, 0, 2)
        assert moved.stages[3].num_ops == config.stages[3].num_ops - 2
        assert moved.stages[0].num_ops == config.stages[0].num_ops + 2
        validate_config(moved, tiny_graph, small_cluster)

    def test_refuses_emptying_stage(self, tiny_graph, small_cluster):
        config = balanced_config(tiny_graph, small_cluster, 4)
        span = config.stages[0].num_ops
        assert move_ops(config, tiny_graph, 0, 1, span) is None

    def test_same_stage_is_noop(self, tiny_graph, small_cluster):
        config = balanced_config(tiny_graph, small_cluster, 4)
        assert move_ops(config, tiny_graph, 1, 1, 1) is None

    def test_moved_ops_adopt_new_stage_settings(
        self, tiny_graph, small_cluster
    ):
        config = balanced_config(tiny_graph, small_cluster, 2)
        config.stages[1].set_uniform_parallel(2)
        moved = move_ops(config, tiny_graph, 0, 1, 3)
        # Ops arriving in stage 1 adopt tp=2.
        assert np.all(moved.stages[1].tp == 2)
        validate_config(moved, tiny_graph, small_cluster)


@functools.lru_cache(maxsize=None)
def _relay_graph():
    return make_tiny_gpt()


@st.composite
def _relay_case(draw):
    """A 2-4 stage config with random per-op settings, plus a move."""
    graph = _relay_graph()
    num_ops = graph.num_ops
    num_options = graph.arrays.num_options
    num_stages = draw(st.integers(2, 4), label="stages")
    cuts = sorted(draw(st.lists(
        st.integers(1, num_ops - 1), min_size=num_stages - 1,
        max_size=num_stages - 1, unique=True,
    ), label="cuts"))
    bounds = [0] + cuts + [num_ops]
    stages = []
    for lo, hi in zip(bounds, bounds[1:]):
        devices = draw(st.sampled_from([1, 2, 4]))
        n = hi - lo
        tp = np.array(draw(st.lists(
            st.sampled_from([t for t in (1, 2, 4) if t <= devices]),
            min_size=n, max_size=n,
        )), dtype=np.int64)
        tp_dim = np.array([
            draw(st.integers(0, int(num_options[op]) - 1))
            for op in range(lo, hi)
        ], dtype=np.int64)
        recompute = np.array(draw(st.lists(
            st.booleans(), min_size=n, max_size=n,
        )), dtype=bool)
        stages.append(StageConfig(
            start=lo, end=hi, num_devices=devices, tp=tp,
            dp=devices // tp, tp_dim=tp_dim, recompute=recompute,
        ))
    src, dst = draw(st.lists(
        st.integers(0, num_stages - 1), min_size=2, max_size=2,
        unique=True,
    ), label="src/dst")
    count = draw(st.integers(1, num_ops), label="count")
    config = ParallelConfig(stages=stages, microbatch_size=1)
    return graph, config, src, dst, count


@settings(max_examples=200, deadline=None)
@given(case=_relay_case())
def test_relay_rule_on_non_uniform_stages(case):
    """Every stage of a relay, against ops located by global index: a
    stage whose span did not move is shared; native ops keep their
    settings; ops entering a stage take the tp/dp of its anchor (its
    first native op when its start moved right, its last otherwise),
    partition option 0 and no recompute; the option clamp covers the
    whole segment; arrays stay int64/bool; and the relay fails exactly
    when some stage keeps no native op."""
    graph, config, src, dst, count = case
    tp, dp, tp_dim, rc, owner = config.gather_arrays()
    num_options = graph.arrays.num_options
    bounds = [s.start for s in config.stages] + [config.num_ops]
    shift = -count if src < dst else count
    for j in range(min(src, dst) + 1, max(src, dst) + 1):
        bounds[j] += shift
    spans = list(zip(bounds, bounds[1:]))
    no_native = any(
        min(hi, old.end) <= max(lo, old.start)
        for (lo, hi), old in zip(spans, config.stages)
    )

    moved = move_ops(config, graph, src, dst, count)

    assert (moved is None) == no_native
    if moved is None:
        return
    assert moved.microbatch_size == config.microbatch_size
    for i, ((lo, hi), old, new) in enumerate(
        zip(spans, config.stages, moved.stages)
    ):
        assert (new.start, new.end) == (lo, hi)
        assert new.num_devices == old.num_devices
        if (lo, hi) == (old.start, old.end):
            assert new is old
            continue
        ops = np.arange(lo, hi)
        native = ops[owner[lo:hi] == i]
        anchor = native[0] if lo > old.start else native[-1]
        entering = owner[lo:hi] != i
        want_tp = np.where(entering, tp[anchor], tp[lo:hi])
        want_dp = np.where(entering, dp[anchor], dp[lo:hi])
        want_dim = np.minimum(
            np.where(entering, 0, tp_dim[lo:hi]), num_options[lo:hi] - 1
        )
        want_rc = np.where(entering, False, rc[lo:hi])
        for got, want in (
            (new.tp, want_tp), (new.dp, want_dp),
            (new.tp_dim, want_dim), (new.recompute, want_rc),
        ):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert new.tp.dtype == new.dp.dtype == new.tp_dim.dtype == np.int64
        assert new.recompute.dtype == bool


def _relay_setup(num_stages=4):
    """A fresh graph (so an empty relay table) and a balanced config."""
    graph = make_tiny_gpt()
    return graph, balanced_config(graph, paper_cluster(4), num_stages)


class TestRelayTable:
    """``move_ops`` reuses a re-spanned stage it already built, keyed by
    the source stage's digest and the new span."""

    def test_same_relay_returns_the_identical_stage(self):
        graph, config = _relay_setup()
        first = move_ops(config, graph, 0, 3, 2)
        again = move_ops(config, graph, 0, 3, 2)
        # A content-equal source in new objects hits the table too.
        cloned = config.mutated_copy(range(config.num_stages))
        for moved in (again, move_ops(cloned, graph, 0, 3, 2)):
            assert all(a is b for a, b in zip(moved.stages, first.stages))
        # Another span is another stage.
        other = move_ops(config, graph, 0, 3, 1)
        assert not any(a is b for a, b in zip(other.stages, first.stages))

    def test_reused_stage_arrays_are_read_only(self):
        graph, config = _relay_setup()
        moved = move_ops(config, graph, 0, 1, 2)
        for name in ("tp", "dp", "tp_dim", "recompute"):
            with pytest.raises(ValueError):
                getattr(moved.stages[0], name)[0] = 1
        # A mutated copy clones the stage it may write.
        copy = moved.mutated_copy([0])
        copy.stages[0].tp[0] = 2
        assert moved.stages[0].tp[0] == 1

    @pytest.mark.parametrize("max_ops", [1, 10**6])
    def test_table_stays_within_its_bounds(self, monkeypatch, max_ops):
        """It evicts oldest first, and only while it holds more than
        ``STAGE_BASE_CACHE_SIZE`` entries *and* more than
        ``STAGE_BASE_CACHE_OPS`` ops."""
        monkeypatch.setattr(perfmodel_module, "STAGE_BASE_CACHE_SIZE", 2)
        monkeypatch.setattr(perfmodel_module, "STAGE_BASE_CACHE_OPS", max_ops)
        built = []
        respan = apply_module._respan
        monkeypatch.setattr(
            apply_module, "_respan",
            lambda *args: built.append(respan(*args)) or built[-1],
        )
        graph, config = _relay_setup()
        rng = np.random.default_rng(0)
        for _ in range(40):
            src, dst = rng.choice(config.num_stages, size=2, replace=False)
            moved = move_ops(config, graph, int(src), int(dst), 1)
            if moved is None:
                continue
            table = graph.relay_stages
            held = list(table.values())
            assert table.ops == sum(stage.num_ops for stage in held)
            assert len(held) == (2 if max_ops == 1 else len(built))
            # The last relay's stages are the most recent entries.
            fresh = [s for s, old in zip(moved.stages, config.stages)
                     if s is not old]
            tail = min(len(held), len(fresh))
            assert all(map(operator.is_, held[-tail:], fresh[-tail:]))
            config = moved
        assert len(built) > 2

    @pytest.mark.parametrize(
        "dumps", [pickle.dumps, ForkingPickler.dumps,
                  functools.partial(pickle.dumps, protocol=5)],
    )
    def test_pickled_reused_stage_arrives_writable_and_unshared(self, dumps):
        """A worker-pool pickle copies every read-only array, so a
        reused stage and a recompute variant sharing its tp, dp and
        tp_dim arrive with writable arrays that share no memory."""
        graph, config = _relay_setup()
        moved = move_ops(config, graph, 0, 1, 2)
        variant = moved.with_recompute(0, True)
        again = move_ops(config, graph, 0, 1, 2)
        assert again.stages[0] is moved.stages[0]
        configs = pickle.loads(dumps([moved, variant, again]))
        sent = [c.stages[0] for c in configs]
        for stage in sent:
            for name in ("tp", "dp", "tp_dim", "recompute"):
                assert getattr(stage, name).flags.writeable
        for name in ("tp", "dp", "tp_dim"):
            assert not np.shares_memory(
                getattr(sent[0], name), getattr(sent[1], name)
            )
        assert sent[0].digest() == moved.stages[0].digest()
        assert pickle.loads(dumps(graph)).relay_stages is None


class TestAppliers:
    @pytest.mark.parametrize(
        "name",
        [
            "inc-op#", "dec-op#", "inc-mbs", "dec-mbs",
            "inc-dp", "dec-dp", "inc-tp", "dec-tp", "inc-rc", "dec-rc",
        ],
    )
    def test_all_candidates_valid(self, ctx, name):
        for candidate in apply_primitive(name, ctx):
            validate_config(candidate, ctx.graph, ctx.cluster)
            assert candidate.signature() != ctx.config.signature()

    def test_unknown_primitive_raises(self, ctx):
        with pytest.raises(KeyError):
            apply_primitive("inc-zz", ctx)

    def test_inc_mbs_doubles(self, ctx):
        candidates = apply_primitive("inc-mbs", ctx)
        assert candidates
        assert candidates[0].microbatch_size == ctx.config.microbatch_size * 2

    def test_dec_mbs_blocked_at_minimum(
        self, tiny_graph, small_cluster, tiny_perf_model
    ):
        config = balanced_config(tiny_graph, small_cluster, 4)
        assert config.microbatch_size == 1
        ctx = _ctx_for(tiny_graph, small_cluster, tiny_perf_model, config)
        assert apply_primitive("dec-mbs", ctx) == []

    def test_inc_tp_swaps_dp_for_tp(
        self, tiny_graph, small_cluster, tiny_perf_model
    ):
        config = balanced_config(tiny_graph, small_cluster, 2)  # dp=2/stage
        ctx = _ctx_for(tiny_graph, small_cluster, tiny_perf_model, config, 0)
        candidates = apply_primitive("inc-tp", ctx)
        assert candidates
        swap = candidates[0]
        assert np.all(swap.stages[0].tp == 2)
        assert np.all(swap.stages[0].dp == 1)
        # Devices unchanged.
        assert swap.stages[0].num_devices == 2

    def test_inc_dp_swaps_tp_for_dp(
        self, tiny_graph, small_cluster, tiny_perf_model
    ):
        config = balanced_config(tiny_graph, small_cluster, 2, tp=2,
                                 microbatch_size=4)
        ctx = _ctx_for(tiny_graph, small_cluster, tiny_perf_model, config, 0)
        candidates = apply_primitive("inc-dp", ctx)
        assert candidates
        assert np.all(candidates[0].stages[0].dp == 2)

    def test_device_transfer_needs_double_partner(
        self, tiny_graph, small_cluster, tiny_perf_model
    ):
        # (1, 1, 2) split: stage 0 can double by taking from stage 2.
        from repro.parallel import ParallelConfig, StageConfig

        n = tiny_graph.num_ops
        config = ParallelConfig(
            stages=[
                StageConfig.uniform(0, n // 3, 1),
                StageConfig.uniform(n // 3, 2 * n // 3, 1),
                StageConfig.uniform(2 * n // 3, n, 2),
            ],
            microbatch_size=2,
        )
        validate_config(config, tiny_graph, small_cluster)
        ctx = _ctx_for(tiny_graph, small_cluster, tiny_perf_model, config, 0)
        grown = [
            c for c in apply_primitive("inc-dp", ctx)
            if c.stages[0].num_devices == 2
        ]
        assert grown
        assert grown[0].stages[2].num_devices == 1
        assert grown[0].total_devices == 4

    def test_inc_rc_enables_recompute(self, ctx):
        candidates = apply_primitive("inc-rc", ctx)
        assert candidates
        stage = ctx.bottleneck.stage
        assert any(c.stages[stage].recompute.any() for c in candidates)

    def test_dec_rc_noop_without_recompute(self, ctx):
        # The balanced init has no recomputation and plenty of memory,
        # so dec-rc has nothing to do.
        assert apply_primitive("dec-rc", ctx) == []

    def test_dec_rc_disables(self, tiny_graph, small_cluster,
                             tiny_perf_model):
        config = balanced_config(tiny_graph, small_cluster, 2)
        config.stages[0].recompute[:] = True
        ctx = _ctx_for(tiny_graph, small_cluster, tiny_perf_model, config, 0)
        candidates = apply_primitive("dec-rc", ctx)
        assert candidates
        assert any(
            c.stages[0].recompute.sum() < config.stages[0].num_ops
            for c in candidates
        )

    def test_single_stage_op_moves_empty(
        self, tiny_graph, small_cluster, tiny_perf_model
    ):
        config = balanced_config(tiny_graph, small_cluster, 1)
        ctx = _ctx_for(tiny_graph, small_cluster, tiny_perf_model, config)
        assert apply_primitive("dec-op#", ctx) == []
        assert apply_primitive("inc-op#", ctx) == []
