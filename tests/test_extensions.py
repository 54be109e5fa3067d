"""Tests for the primitive extension registry (§3.2.1's extensibility)."""

import numpy as np
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
    has_applier,
    identify_bottleneck,
    register_applier,
    register_primitive,
    unregister_applier,
    unregister_primitive,
)
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
    register_primitive(spec)
    register_applier(spec.name, quadruple_mbs)
    yield spec
    unregister_applier(spec.name)
    unregister_primitive(spec.name)


class TestRegistry:
    def test_registered_visible(self, registered):
        assert get_primitive("swap-mbs-x4") is registered
        assert registered in all_primitives()
        assert has_applier("swap-mbs-x4")

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

        register_primitive(spec)
        register_applier(spec.name, mixed)
        try:
            candidates = apply_primitive(spec.name, ctx)
        finally:
            unregister_applier(spec.name)
            unregister_primitive(spec.name)
        assert [c.cache_key() for c in candidates] == [
            c.cache_key() for c in quadruple_mbs(ctx)
        ]

    def test_candidate_groups_pick_up_extension(self, registered, ctx):
        groups = candidate_groups(ctx)
        assert any(g.primitive == "swap-mbs-x4" for g in groups)

    def test_spec_without_applier_skipped(self, spec, ctx):
        register_primitive(spec)
        try:
            # No applier registered: ranking must skip, not crash.
            groups = candidate_groups(ctx)
            assert all(g.primitive != spec.name for g in groups)
            with pytest.raises(KeyError):
                apply_primitive(spec.name, ctx)
        finally:
            unregister_primitive(spec.name)

    def test_duplicate_name_rejected(self, registered, spec):
        with pytest.raises(ValueError):
            register_primitive(spec)
        with pytest.raises(ValueError):
            register_primitive(get_primitive("inc-tp"))

    def test_builtin_protected(self):
        with pytest.raises(ValueError):
            unregister_primitive("inc-tp")
        with pytest.raises(ValueError):
            register_applier("inc-tp", lambda ctx: [])
        with pytest.raises(ValueError):
            unregister_applier("inc-tp")

    def test_unregister_is_idempotent(self, spec):
        unregister_primitive(spec.name)  # not registered: no error
        unregister_applier(spec.name)

    def test_cleanup_after_fixture(self):
        assert len(all_primitives()) == 10
        with pytest.raises(KeyError):
            get_primitive("swap-mbs-x4")
