"""Tests for the Table 1 primitive definitions."""

import numpy as np
import pytest

from repro.core import (
    PRIMITIVE_TABLE,
    PRIMITIVES_BY_NAME,
    Trend,
    eligibility_walk,
    eligible_primitives,
    get_primitive,
)


class TestTable:
    def test_ten_rows(self):
        assert len(PRIMITIVE_TABLE) == 10
        assert [p.primitive_id for p in PRIMITIVE_TABLE] == list(range(1, 11))

    def test_pairs(self):
        names = {p.name for p in PRIMITIVE_TABLE}
        for base in ("op#", "mbs", "dp", "tp", "rc"):
            assert f"inc-{base}" in names
            assert f"dec-{base}" in names

    def test_inc_dec_opposite_trends(self):
        """Every inc/dec pair has mirrored non-flat trends."""
        for base in ("op#", "mbs", "dp", "tp", "rc"):
            inc = get_primitive(f"inc-{base}")
            dec = get_primitive(f"dec-{base}")
            for resource in ("compute", "communication", "memory"):
                a, b = inc.trend_for(resource), dec.trend_for(resource)
                if a is Trend.FLAT:
                    assert b is Trend.FLAT
                else:
                    assert {a, b} == {Trend.UP, Trend.DOWN}

    def test_no_free_lunch(self):
        """No primitive decreases everything (§3.2.1)."""
        for spec in PRIMITIVE_TABLE:
            trends = [
                spec.trend_for(r)
                for r in ("compute", "communication", "memory")
            ]
            assert trends.count(Trend.DOWN) < 3

    def test_partner_primitives(self):
        assert get_primitive("inc-op#").partner == "dec-op#"
        assert get_primitive("inc-dp").partner == "dec-dp/tp"
        assert get_primitive("inc-tp").partner == "dec-dp/tp"
        assert get_primitive("inc-rc").partner is None
        assert get_primitive("inc-mbs").partner is None

    def test_partner_specs_name_known_primitives(self):
        """Every partner spec, ``"dec-dp/tp"`` read as "dec-dp or
        dec-tp", names a Table 1 primitive."""
        for spec in PRIMITIVE_TABLE:
            if spec.partner is None:
                continue
            prefix, _, alternatives = spec.partner.partition("-")
            for alternative in alternatives.split("/"):
                assert f"{prefix}-{alternative}" in PRIMITIVES_BY_NAME


class TestEligibility:
    def test_memory_relievers(self):
        names = [p.name for p in eligible_primitives("memory")]
        assert names == ["dec-op#", "dec-mbs", "inc-dp", "inc-tp", "inc-rc"]

    def test_compute_relievers(self):
        names = [p.name for p in eligible_primitives("compute")]
        assert "dec-op#" in names
        assert "inc-mbs" in names
        assert "dec-rc" in names
        assert "inc-dp" in names and "inc-tp" in names

    def test_communication_relievers(self):
        names = [p.name for p in eligible_primitives("communication")]
        assert names == ["dec-dp", "dec-tp"]

    def test_unknown_resource_raises(self):
        with pytest.raises(KeyError):
            PRIMITIVE_TABLE[0].trend_for("power")

    @pytest.mark.parametrize("field", ["name", "granularity", "partner"])
    def test_non_resource_field_raises(self, field):
        with pytest.raises(KeyError):
            PRIMITIVE_TABLE[0].trend_for(field)
        with pytest.raises(KeyError):
            eligible_primitives(field)

    def test_get_primitive_unknown(self):
        with pytest.raises(KeyError):
            get_primitive("inc-zz")


class TestEligibilityWalk:
    def test_each_primitive_once_under_first_resource(self):
        walk = list(eligibility_walk(["memory", "compute"]))
        names = [name for _, name in walk]
        assert len(names) == len(set(names))
        memory = [p.name for p in eligible_primitives("memory")]
        assert walk[: len(memory)] == [("memory", n) for n in memory]
        assert {n for r, n in walk if r == "compute"} == {
            p.name for p in eligible_primitives("compute")
        } - set(memory)

    def test_shuffles_lazily(self):
        """With ``rng`` the walk draws each resource's shuffle only when
        it reaches that resource, so a caller's draws interleave."""
        resources = ["compute", "memory", "communication"]
        rng = np.random.default_rng(7)
        walk = eligibility_walk(resources, rng)
        first = next(walk)
        state = rng.bit_generator.state
        replay = np.random.default_rng(7)
        order = list(resources)
        replay.shuffle(order)
        specs = eligible_primitives(order[0])
        replay.shuffle(specs)
        assert first == (order[0], specs[0].name)
        assert replay.bit_generator.state == state
