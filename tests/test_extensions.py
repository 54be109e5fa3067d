"""Tests for the primitive extension registry (§3.2.1's extensibility)."""

import pytest

from repro.core import (
    ApplyContext,
    Granularity,
    PrimitiveSpec,
    Trend,
    all_primitives,
    apply_primitive,
    candidate_groups,
    eligible_primitives,
    get_primitive,
    identify_bottleneck,
    register_primitive,
    unregister_primitive,
)
from repro.core.bandit import _arms_for
from repro.core.bottleneck import Bottleneck
from repro.core.mcmc import _proposal_primitives
from repro.parallel import balanced_config


@pytest.fixture()
def spec():
    return PrimitiveSpec(
        primitive_id=11,
        name="swap-mbs-x4",
        mechanism="pipeline",
        compute=Trend.DOWN,
        communication=Trend.FLAT,
        memory=Trend.UP,
        granularity=Granularity.MODEL,
    )


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


def quadruple_mbs(ctx):
    """Example extension: jump the microbatch size by 4x at once."""
    mbs = ctx.config.microbatch_size * 4
    if ctx.graph.global_batch_size % mbs:
        return []
    candidate = ctx.config.clone()
    candidate.microbatch_size = mbs
    return [candidate]


@pytest.fixture()
def registered(spec):
    register_primitive(spec, quadruple_mbs)
    yield spec
    unregister_primitive(spec.name)


class TestRegistry:
    def test_registered_visible(self, registered):
        assert get_primitive("swap-mbs-x4") is registered
        assert registered in all_primitives()

    def test_eligibility_includes_extension(self, registered):
        names = [p.name for p in eligible_primitives("compute")]
        assert "swap-mbs-x4" in names

    def test_apply_extension_validates(self, registered, ctx):
        candidates = apply_primitive("swap-mbs-x4", ctx)
        assert len(candidates) == 1
        assert candidates[0].microbatch_size == 4 * ctx.config.microbatch_size

    def test_apply_extension_drops_invalid_candidates(self, spec, ctx):
        """Only built-in appliers are valid by construction: an
        extension's candidates each pass one ``is_valid`` gate."""
        def mixed(ctx):
            bad_tp = ctx.config.mutated_copy([0])
            bad_tp.stages[0].tp[0] = 3  # not a power of two
            bad_mbs = ctx.config.clone()
            bad_mbs.microbatch_size = ctx.graph.global_batch_size + 1
            valid = quadruple_mbs(ctx)
            return [bad_tp, None, bad_mbs] + valid

        register_primitive(spec, mixed)
        try:
            candidates = apply_primitive(spec.name, ctx)
        finally:
            unregister_primitive(spec.name)
        assert [c.cache_key() for c in candidates] == [
            c.cache_key() for c in quadruple_mbs(ctx)
        ]

    def test_candidate_groups_pick_up_extension(self, registered, ctx):
        groups = candidate_groups(ctx)
        assert any(g.primitive == "swap-mbs-x4" for g in groups)

    def test_mcmc_proposals_pick_up_extension(self, registered):
        bottleneck = Bottleneck(
            0, ("communication", "compute", "memory"), is_oom=False
        )
        assert "swap-mbs-x4" in _proposal_primitives(bottleneck)

    def test_bandit_arms_pick_up_extension(self, registered):
        bottleneck = Bottleneck(
            0, ("compute", "memory", "communication"), is_oom=False
        )
        arms = _arms_for(bottleneck)
        assert "swap-mbs-x4" in arms
        assert arms == sorted(arms)

    def test_duplicate_name_rejected(self, registered, spec):
        with pytest.raises(ValueError):
            register_primitive(spec, quadruple_mbs)
        with pytest.raises(ValueError):
            register_primitive(get_primitive("inc-tp"), quadruple_mbs)

    def test_builtin_protected(self):
        with pytest.raises(ValueError):
            unregister_primitive("inc-tp")

    def test_unregister_is_idempotent(self, spec):
        unregister_primitive(spec.name)  # not registered: no error

    def test_cleanup_after_fixture(self):
        assert len(all_primitives()) == 10
        with pytest.raises(KeyError):
            get_primitive("swap-mbs-x4")
