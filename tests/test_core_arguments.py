"""Tests for greedy argument selection (§4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DeviceSpec, a100, mixed_cluster
from repro.core import (
    greedy_recompute,
    greedy_unrecompute,
    op_move_counts,
    tune_recompute,
)
from repro.core.arguments import _cannot_cover
from repro.ir.models.registry import build_model
from repro.parallel import balanced_config
from repro.perfmodel import PerfModel, build_perf_model
from repro.profiling import SimulatedProfiler

from conftest import (
    make_activation_heavy_gpt,
    make_tight_cluster,
    make_tiny_gpt,
)


@pytest.fixture(scope="module")
def tight_setup():
    """A model that does NOT fit its cluster without recomputation."""
    graph = make_activation_heavy_gpt()
    cluster = make_tight_cluster(num_gpus=4, memory_mb=64)
    database = SimulatedProfiler(cluster, seed=0).profile(graph)
    perf_model = PerfModel(graph, cluster, database)
    config = balanced_config(graph, cluster, 2, microbatch_size=16)
    report = perf_model.estimate(config)
    assert report.is_oom, "fixture must start out-of-memory"
    return graph, cluster, perf_model, config


class TestStageActivationBytes:
    def test_shape_and_positive(self, tiny_graph, small_cluster,
                                tiny_perf_model, tiny_config):
        """The activations the greedy recompute ranks are the ones the
        estimator charges: the stage base's vector, whose sum is Eq. 1's
        activation term when nothing is recomputed."""
        stage = tiny_config.stages[0]
        mbs = tiny_config.microbatch_size
        act = tiny_perf_model.stage_activation_bytes(stage, mbs)
        assert act.shape == (stage.num_ops,)
        assert np.all(act >= 0)
        assert act.sum() > 0
        base_act = tiny_perf_model._cost_stage_base(stage, mbs).act_bytes
        assert act.tobytes() == base_act.tobytes()
        assert not stage.recompute.any()
        cost = tiny_perf_model._cost_stage_uncached(stage, mbs, fresh=True)
        assert cost.activation_bytes == float(act.sum())


class TestGreedyRecompute:
    def test_fixes_oom(self, tight_setup):
        graph, cluster, perf_model, config = tight_setup
        report = perf_model.estimate(config)
        oom_stage = report.oom_stages[0]
        fixed = greedy_recompute(
            perf_model, config, oom_stage, report.eq1()
        )
        assert fixed is not None
        new_report = perf_model.estimate(fixed)
        assert (
            new_report.stages[oom_stage].peak_memory
            <= new_report.memory_limit
        )

    def test_recomputes_subset_not_everything(self, tight_setup):
        graph, cluster, perf_model, config = tight_setup
        report = perf_model.estimate(config)
        oom_stage = report.oom_stages[0]
        fixed = greedy_recompute(
            perf_model, config, oom_stage, report.eq1()
        )
        stage = fixed.stages[oom_stage]
        assert 0 < stage.recompute.sum() <= stage.num_ops

    def test_noop_when_already_fits(self, tiny_perf_model, tiny_config):
        report = tiny_perf_model.estimate(tiny_config)
        assert greedy_recompute(
            tiny_perf_model, tiny_config, 0, report.eq1()
        ) is None

    @staticmethod
    def _hopeless():
        """A stage that cannot fit its 1 MB budget fully recomputed."""
        graph = make_tiny_gpt(num_layers=6, batch_size=64)
        cluster = make_tight_cluster(num_gpus=2, memory_mb=1)
        db = SimulatedProfiler(cluster, seed=0).profile(graph)
        pm = PerfModel(graph, cluster, db)
        config = balanced_config(graph, cluster, 2, microbatch_size=32)
        return pm, config

    def test_returns_none_when_hopeless(self):
        pm, config = self._hopeless()
        eq1 = pm.estimate(config).eq1()
        assert greedy_recompute(pm, config, 0, eq1) is None


    @staticmethod
    def _fits_only_fully_recomputed():
        """A one-stage config over its 24 MB budget whose fully
        recomputed stage fits, while the probe ladder (an eighth of its
        36 ops per step) steps from below full recomputation to past
        it."""
        graph = make_activation_heavy_gpt(num_layers=4)
        cluster = make_tight_cluster(num_gpus=4, memory_mb=24)
        db = SimulatedProfiler(cluster, seed=0).profile(graph)
        pm = PerfModel(graph, cluster, db)
        config = balanced_config(graph, cluster, 1, microbatch_size=16)
        return pm, config

    def test_full_recomputation_example_holds(self):
        pm, config = self._fits_only_fully_recomputed()
        report = pm.estimate(config)
        assert report.peak_memories[0] > report.memory_limit
        full = pm.estimate(config.with_recompute(0, True))
        assert full.peak_memories[0] <= report.memory_limit

    @pytest.mark.xfail(
        strict=True,
        reason="the probe ladder can step past full recomputation "
        "without trying it",
    )
    def test_tries_full_recomputation_before_giving_up(self):
        pm, config = self._fits_only_fully_recomputed()
        report = pm.estimate(config)
        assert greedy_recompute(pm, config, 0, report.eq1()) is not None


class TestRecomputeEarlyExit:
    """``greedy_recompute`` returns ``None`` before sorting a stage that
    cannot fit fully recomputed (``_cannot_cover``); it may fire only
    where the sorted cumulative savings already give ``k > total``."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 9000),
        seed=st.integers(0, 2**32 - 1),
        low=st.integers(-3, 8),
        span=st.integers(0, 11),
        distinct=st.integers(1, 9000),
        zero_share=st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0]),
        in_flight=st.integers(1, 64),
        ulps=st.integers(-4, 4),
    )
    def test_exit_implies_the_probe_path_gives_up(
        self, n, seed, low, span, distinct, zero_share, in_flight, ulps
    ):
        rng = np.random.default_rng(seed)
        pool = 10.0 ** rng.uniform(low, min(8, low + span), min(n, distinct))
        sizes = rng.choice(pool, size=n)
        sizes[rng.random(n) < zero_share] = 0.0
        savings = np.cumsum(sizes[np.argsort(sizes)[::-1]]) * in_flight
        total = savings[-1]
        pairwise = float(sizes.sum()) * in_flight
        for anchor in (total, pairwise):
            overflow = anchor
            for _ in range(abs(ulps)):
                overflow = np.nextafter(overflow, np.copysign(np.inf, ulps))
            if overflow <= 0:
                continue
            if _cannot_cover(sizes, in_flight, overflow):
                assert int(np.searchsorted(savings, overflow)) + 1 > n
        # The bound is tight: an overflow a millionth past the total
        # exits without sorting.
        assert _cannot_cover(sizes, in_flight, max(total * 1.000001, 1.0))

    def test_hopeless_stage_exits_before_sorting(self, monkeypatch):
        pm, config = TestGreedyRecompute._hopeless()
        report = pm.estimate(config)

        def no_sort(*args, **kwargs):
            raise AssertionError("sorted a stage that cannot fit")

        monkeypatch.setattr(np, "argsort", no_sort)
        assert greedy_recompute(pm, config, 0, report.eq1()) is None


class TestGreedyUnrecompute:
    def test_releases_when_slack(self, tiny_perf_model, tiny_config):
        config = tiny_config.clone()
        config.stages[0].recompute[:] = True
        eq1 = tiny_perf_model.estimate(config).eq1()
        relaxed = greedy_unrecompute(tiny_perf_model, config, 0, eq1)
        assert relaxed is not None
        assert relaxed.stages[0].recompute.sum() < config.stages[0].num_ops
        report = tiny_perf_model.estimate(relaxed)
        assert report.stages[0].peak_memory <= report.memory_limit

    def test_noop_without_recompute(self, tiny_perf_model, tiny_config):
        report = tiny_perf_model.estimate(tiny_config)
        assert greedy_unrecompute(
            tiny_perf_model, tiny_config, 0, report.eq1()
        ) is None

    def test_improves_objective(self, tiny_perf_model, tiny_config):
        config = tiny_config.clone()
        config.stages[0].recompute[:] = True
        eq1 = tiny_perf_model.estimate(config).eq1()
        relaxed = greedy_unrecompute(tiny_perf_model, config, 0, eq1)
        assert (
            tiny_perf_model.objective(relaxed)
            < tiny_perf_model.objective(config)
        )


class TestTuneRecompute:
    def test_fixes_all_oom_stages(self, tight_setup):
        graph, cluster, perf_model, config = tight_setup
        tuned = tune_recompute(
            perf_model, config, list(range(config.num_stages))
        )
        report = perf_model.estimate(tuned)
        assert not report.is_oom

    def test_out_of_range_stage_ignored(self, tiny_perf_model, tiny_config):
        tuned = tune_recompute(tiny_perf_model, tiny_config, [99, -1])
        assert tuned.signature() == tiny_config.signature()


class TestOpMoveCounts:
    def test_ladder_bounded(self, tiny_graph, tiny_config):
        counts = op_move_counts(
            tiny_graph, tiny_config, 0, 1, from_front=False
        )
        assert counts
        span = tiny_config.stages[0].num_ops
        assert all(1 <= k < span for k in counts)
        assert counts == sorted(counts)

    def test_single_op_stage_empty(self, tiny_graph, small_cluster):
        from repro.parallel import ParallelConfig, StageConfig

        n = tiny_graph.num_ops
        config = ParallelConfig(
            stages=[
                StageConfig.uniform(0, 1, 2),
                StageConfig.uniform(1, n, 2),
            ],
            microbatch_size=2,
        )
        assert op_move_counts(tiny_graph, config, 0, 1, from_front=False) == []


class TestMixedMemoryCluster:
    """On a heterogeneous cluster each stage is held to its own devices'
    capacity (``PerfReport.stage_limits``), not the reference device's.
    Stage 1 of gpt3-350m at batch 64 peaks at 5.57 GiB on 4 GiB
    devices, far under the 40 GiB A100s of stage 0."""

    @pytest.fixture(scope="class")
    def setup(self):
        cluster = mixed_cluster(
            [a100(), DeviceSpec(name="small", memory_bytes=4 * 2**30)],
            gpus_per_node=2,
            reference=a100(),
        )
        graph = build_model("gpt3-350m", batch_size=64)
        perf_model = build_perf_model(graph, cluster)
        config = balanced_config(graph, cluster, 2)
        report = perf_model.estimate(config)
        assert report.oom_stages == [1]
        assert report.peak_memories[1] < report.memory_limit
        return perf_model, config, report

    def test_greedy_recompute_fits_the_stage_limit(self, setup):
        perf_model, config, report = setup
        fixed = greedy_recompute(perf_model, config, 1, report.eq1())
        assert fixed is not None and fixed.stages[1].recompute.any()
        peak = perf_model.estimate(fixed).peak_memories[1]
        assert peak <= report.stage_limit(1)

    def test_tune_recompute_clears_the_oom(self, setup):
        perf_model, config, _ = setup
        tuned = tune_recompute(perf_model, config, [0, 1])
        assert tuned.stages[1].recompute.any()
        assert not perf_model.estimate(tuned).is_oom

    def test_greedy_unrecompute_keeps_the_stage_limit(self, setup):
        perf_model, config, _ = setup
        full = config.with_recompute(1, True)
        report = perf_model.estimate(full)
        assert not report.is_oom
        relaxed = greedy_unrecompute(perf_model, full, 1, report.eq1())
        assert relaxed is not None
        assert 0 < relaxed.stages[1].recompute.sum() < full.stages[1].num_ops
        assert not perf_model.estimate(relaxed).is_oom
