"""Verdicts of ``scripts/e2e_pairs.py`` on hand-made pairs."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "e2e_pairs.py"
_spec = importlib.util.spec_from_file_location("e2e_pairs", _SCRIPT)
e2e_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_pairs)


def _pairs(parent, change):
    return list(zip(parent, change))


PARENT = [2.20, 2.22, 2.24, 2.25, 2.26, 2.24, 2.23, 2.21, 2.25, 2.22]


@pytest.mark.parametrize("better,sign", [("lower", 1.0), ("higher", -1.0)])
def test_gain_needs_nine_wins_and_a_gap_above_the_iqr(better, sign):
    parent = [sign * v for v in PARENT]
    faster = [sign * (v - 0.2) for v in PARENT]
    assert e2e_pairs.verdict(_pairs(parent, faster), better, 0.25) == "gain"
    # Eight wins in ten is not a claim.
    mixed = faster[:8] + parent[8:]
    assert e2e_pairs.verdict(_pairs(parent, mixed), better, 0.25) == "same"
    # Ten wins by less than the parent's IQR is not one either.
    tiny = [sign * (v - 0.001) for v in PARENT]
    assert e2e_pairs.verdict(_pairs(parent, tiny), better, 0.25) == "same"


def test_worse_past_the_relative_bound():
    slower = [v * 1.3 for v in PARENT]
    assert e2e_pairs.verdict(_pairs(PARENT, slower), "lower", 0.25) == "worse"
    assert e2e_pairs.verdict(_pairs(PARENT, slower), "lower", 0.5) == "same"
    fewer = [v / 1.5 for v in PARENT]
    assert e2e_pairs.verdict(_pairs(PARENT, fewer), "higher", 0.25) == "worse"


def test_unresolved_when_the_parent_spreads_past_the_bound():
    noisy = [1.0, 2.7, 1.2, 2.5, 1.1, 2.6, 1.3, 2.4, 1.0, 2.8]
    change = [v * 1.05 for v in noisy]
    assert e2e_pairs.verdict(_pairs(noisy, change), "lower", 0.25) == (
        "unresolved"
    )
    # Every change run beating every parent run resolves it, even with
    # a median gap (1.35) inside the parent's IQR (1.45).
    clear = [0.5] * len(noisy)
    assert e2e_pairs.verdict(_pairs(noisy, clear), "lower", 0.25) == "same"
