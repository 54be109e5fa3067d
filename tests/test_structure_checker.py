"""The vectorized structural checker against the per-stage original.

``analyze_structure`` checks every per-op invariant over all stages'
ops at once.  The property below corrupts configurations at random —
spans (shifted, empty, broken), device counts, tp/dp degrees, tp_dims
and the microbatch size — and requires the exact diagnostics, in the
exact order, that a frozen verbatim copy of the per-stage checker it
replaced reports.

The second half pins the search's verdict memo: along chains of
primitive-like edits, ``is_valid`` with one verdict set per chain must
agree with a full ``analyze_structure`` at every step.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import paper_cluster
from repro.core.apply import move_ops
from repro.ir.models.synthetic import build_synthetic
from repro.lint import config_rules
from repro.lint.config_rules import analyze_structure
from repro.lint.diagnostics import Diagnostic
from repro.parallel import (
    StageConfig,
    balanced_config,
    imbalanced_gpu_config,
    is_valid,
)
from repro.parallel.stage import is_power_of_two

from conftest import make_tiny_gpt


# ----------------------------------------------------------------------
# frozen copy of the per-stage checker (do not edit)
# ----------------------------------------------------------------------
def _stage_loc(i: int) -> str:
    return f"stage {i}"


def legacy_analyze_structure(config, graph, cluster):
    out = []
    _check_spans(config, graph, out)
    _check_devices(config, cluster, out)
    _check_parallel_degrees(config, cluster, out)
    _check_tp_dims(config, graph, out)
    _check_microbatch(config, graph, out)
    return out


def _check_spans(config, graph, out) -> None:
    expected = 0
    for i, stage in enumerate(config.stages):
        if stage.start != expected:
            out.append(Diagnostic(
                "ACE101",
                f"stage {i} starts at op {stage.start}, expected {expected}",
                location=_stage_loc(i),
                hint="stage spans must tile the op chain contiguously",
            ))
        if stage.end <= stage.start:
            out.append(Diagnostic(
                "ACE102",
                f"stage {i} has empty span",
                location=_stage_loc(i),
                hint="every stage must own at least one op",
            ))
        expected = stage.end
    if expected != graph.num_ops:
        out.append(Diagnostic(
            "ACE103",
            f"stages cover {expected} ops but the graph has "
            f"{graph.num_ops}",
            hint="the last stage must end at num_ops",
        ))


def _check_devices(config, cluster, out) -> None:
    total = 0
    for i, stage in enumerate(config.stages):
        n = stage.num_devices
        if n < 1 or (n & (n - 1)):
            out.append(Diagnostic(
                "ACE110",
                f"stage {i} device count {stage.num_devices} is not a "
                f"power of two",
                location=_stage_loc(i),
            ))
        total += stage.num_devices
    if total != cluster.num_gpus:
        out.append(Diagnostic(
            "ACE111",
            f"stages use {total} devices but the cluster has "
            f"{cluster.num_gpus}",
            hint="device counts must sum to the cluster size",
        ))


def _check_parallel_degrees(config, cluster, out) -> None:
    for i, stage in enumerate(config.stages):
        for name, arr in (("tp", stage.tp), ("dp", stage.dp)):
            if np.any(arr < 1):
                out.append(Diagnostic(
                    "ACE120",
                    f"stage {i} has non-positive {name}",
                    location=_stage_loc(i),
                ))
            bad = arr & (arr - 1)
            if np.any(bad):
                out.append(Diagnostic(
                    "ACE121",
                    f"stage {i} has non-power-of-two {name} values",
                    location=_stage_loc(i),
                ))
        if np.any(stage.tp * stage.dp != stage.num_devices):
            out.append(Diagnostic(
                "ACE122",
                f"stage {i}: tp * dp != num_devices ({stage.num_devices})",
                location=_stage_loc(i),
            ))
        if np.any(stage.tp > cluster.num_gpus):
            out.append(Diagnostic(
                "ACE123",
                f"stage {i} tp exceeds cluster size",
                location=_stage_loc(i),
            ))


def _check_tp_dims(config, graph, out) -> None:
    num_options = graph.arrays.num_options
    for i, stage in enumerate(config.stages):
        if np.any(stage.tp_dim < 0):
            out.append(Diagnostic(
                "ACE130",
                f"stage {i} has negative tp_dim",
                location=_stage_loc(i),
            ))
        limit = num_options[stage.start:stage.end]
        # When the span itself is broken the slice can be the wrong
        # length; the span diagnostics above already cover that case.
        if limit.shape == stage.tp_dim.shape and np.any(
            stage.tp_dim >= limit
        ):
            out.append(Diagnostic(
                "ACE131",
                f"stage {i} has tp_dim beyond an op's partition options",
                location=_stage_loc(i),
            ))


def _check_microbatch(config, graph, out) -> None:
    mbs = config.microbatch_size
    if graph.global_batch_size % mbs:
        out.append(Diagnostic(
            "ACE140",
            f"microbatch {mbs} does not divide global batch "
            f"{graph.global_batch_size}",
        ))
    for i, stage in enumerate(config.stages):
        if np.any(mbs % stage.dp):
            out.append(Diagnostic(
                "ACE141",
                f"stage {i}: microbatch {mbs} not divisible by some op dp",
                location=_stage_loc(i),
                hint="every op's per-GPU share mbs/dp must be integral",
            ))


# ----------------------------------------------------------------------
# corruption generator
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _problem():
    return make_tiny_gpt(), paper_cluster(8)


def _empty_like(stage: StageConfig) -> StageConfig:
    """A stage with a genuinely empty op span (zero-length arrays)."""
    empty = np.zeros(0, dtype=np.int64)
    return StageConfig(
        start=stage.start,
        end=stage.start,
        num_devices=stage.num_devices,
        tp=empty.copy(),
        dp=empty.copy(),
        tp_dim=empty.copy(),
        recompute=np.zeros(0, dtype=bool),
    )


_DEGREES = [-2, 0, 1, 2, 3, 4, 6, 8, 16, 32]

_CORRUPTIONS = st.one_of(
    st.tuples(st.just("start"), st.integers(0, 7), st.integers(-3, 3)),
    st.tuples(st.just("end"), st.integers(0, 7), st.integers(-3, 3)),
    st.tuples(st.just("empty"), st.integers(0, 7), st.just(0)),
    st.tuples(st.just("devices"), st.integers(0, 7),
              st.sampled_from([0, 1, 2, 3, 4, 6, 8, 16])),
    st.tuples(st.just("tp"), st.integers(0, 7),
              st.tuples(st.integers(0, 99), st.sampled_from(_DEGREES))),
    st.tuples(st.just("dp"), st.integers(0, 7),
              st.tuples(st.integers(0, 99), st.sampled_from(_DEGREES))),
    st.tuples(st.just("tp_dim"), st.integers(0, 7),
              st.tuples(st.integers(0, 99), st.integers(-2, 4))),
    st.tuples(st.just("mbs"), st.just(0),
              st.sampled_from([1, 2, 3, 4, 5, 8, 16, 64])),
)


def _corrupt(config, corruptions):
    stages = config.stages
    for kind, index, value in corruptions:
        i = index % len(stages)
        stage = stages[i]
        if kind == "start":
            stage.start += value
        elif kind == "end":
            stage.end += value
        elif kind == "empty":
            stages[i] = _empty_like(stage)
        elif kind == "devices":
            stage.num_devices = value
        elif kind == "mbs":
            config.microbatch_size = value
        elif len(stage.tp):
            op, degree = value
            getattr(stage, kind)[op % len(stage.tp)] = degree
    return config


@settings(max_examples=300, deadline=None)
@given(
    num_stages=st.sampled_from([1, 2, 4, 8]),
    mbs=st.sampled_from([1, 2, 4, 8]),
    corruptions=st.lists(_CORRUPTIONS, min_size=0, max_size=6),
)
def test_matches_per_stage_checker(num_stages, mbs, corruptions):
    graph, cluster = _problem()
    config = _corrupt(
        balanced_config(graph, cluster, num_stages, microbatch_size=mbs),
        corruptions,
    )
    with np.errstate(divide="ignore"):  # dp == 0 in mbs % dp
        expected = legacy_analyze_structure(config, graph, cluster)
        actual = analyze_structure(config, graph, cluster)
    assert actual == expected


def test_empty_span_next_to_a_bad_stage():
    """An empty segment reports its span, never its neighbour's flags."""
    graph, cluster = _problem()
    config = balanced_config(graph, cluster, 4)
    config.stages[1] = _empty_like(config.stages[1])
    config.stages[2].tp[0] = 3
    config.stages[3].dp[-1] = 0
    with np.errstate(divide="ignore"):
        expected = legacy_analyze_structure(config, graph, cluster)
        actual = analyze_structure(config, graph, cluster)
    assert actual == expected
    assert [d.location for d in actual if d.code.startswith("ACE12")] == [
        "stage 2", "stage 2", "stage 3", "stage 3",
    ]


# ----------------------------------------------------------------------
# memoized verdicts
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _synthetic(seed: int):
    return build_synthetic(24, seed=seed), paper_cluster(8)


def _full_verdict(config, graph, cluster) -> bool:
    with np.errstate(divide="ignore"):  # dp == 0 in mbs % dp
        return analyze_structure(config, graph, cluster) == []


def _memo_verdict(config, graph, cluster, verified) -> bool:
    with np.errstate(divide="ignore"):
        return is_valid(config, graph, cluster, verified)


def _swap_tp_dp(stage: StageConfig, op: int, toward_tp: bool) -> None:
    """Double tp and halve dp (or the reverse) on a suffix of ops."""
    suffix = slice(op % stage.num_ops, None)
    tp, dp = stage.tp[suffix], stage.dp[suffix]
    movable = (dp >= 2) if toward_tp else (tp >= 2)
    if toward_tp:
        tp[movable] *= 2
        dp[movable] //= 2
    else:
        tp[movable] //= 2
        dp[movable] *= 2


def _edit(config, graph, edit):
    """A copy of ``config`` with one edit applied, or ``None``.

    Only the stages an edit touches are cloned (``mutated_copy``), so
    every other stage keeps its identity and cached digests, as in the
    search.
    """
    kind, index, value = edit
    n = config.num_stages
    i = index % n
    if kind == "shift":
        count, toward_next = value
        step = 1 if toward_next else -1
        return move_ops(config, graph, i, (i + step) % n, count)
    if kind == "mbs":
        out = config.mutated_copy()
        out.microbatch_size = value
        return out
    if kind in ("devices_move", "devices_relabel"):
        j = value % n
        if i == j:
            return None
        out = config.mutated_copy([i, j])
        a, b = out.stages[i], out.stages[j]
        if kind == "devices_relabel":
            # Header-only edit: the per-op arrays keep their bytes.
            a.num_devices, b.num_devices = b.num_devices, a.num_devices
        elif not (
            is_power_of_two(a.num_devices) and is_power_of_two(b.num_devices)
        ):
            # A corrupted device count has no per-op rescaling
            # (``with_devices`` raises); the search moves devices only
            # between valid stages.
            return None
        else:
            out.stages[i] = a.with_devices(b.num_devices)
            out.stages[j] = b.with_devices(a.num_devices)
        return out
    out = config.mutated_copy([i])
    stage = out.stages[i]
    if kind == "tp_dp":
        op, toward_tp = value
        _swap_tp_dp(stage, op, toward_tp)
    elif kind == "recompute":
        flips = np.arange(stage.num_ops) % (value + 1) == 0
        stage.recompute[flips] = ~stage.recompute[flips]
    else:  # one corruption from the generator above
        _corrupt(out, [(kind, i, value)])
    return out


_EDITS = st.one_of(
    st.tuples(st.just("shift"), st.integers(0, 7),
              st.tuples(st.integers(1, 4), st.booleans())),
    st.tuples(st.just("tp_dp"), st.integers(0, 7),
              st.tuples(st.integers(0, 99), st.booleans())),
    st.tuples(st.just("devices_move"), st.integers(0, 7), st.integers(0, 7)),
    st.tuples(st.just("devices_relabel"), st.integers(0, 7),
              st.integers(0, 7)),
    st.tuples(st.just("mbs"), st.just(0),
              st.sampled_from([1, 2, 3, 4, 8, 16, 32])),
    st.tuples(st.just("recompute"), st.integers(0, 7), st.integers(0, 3)),
    _CORRUPTIONS,
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 3),
    num_stages=st.sampled_from([1, 2, 3, 4, 5, 8]),
    hoard=st.booleans(),
    mbs=st.sampled_from([1, 2, 4, 8]),
    # Span corruptions break the array shapes a clone checks, so the
    # chain never starts from one.
    initial=st.lists(
        _CORRUPTIONS.filter(lambda c: c[0] not in ("start", "end", "empty")),
        max_size=1,
    ),
    edits=st.lists(_EDITS, min_size=1, max_size=25),
)
def test_memoized_verdicts_match_a_full_check(
    seed, num_stages, hoard, mbs, initial, edits
):
    """Walk a chain of edits with one verdict set: every candidate's
    memoized verdict equals a full check.  Like the search, the chain
    moves on only from valid candidates, and starts from a possibly
    invalid configuration; ``hoard`` starts it from uneven device
    counts (Exp#7's imbalance-GPU layout)."""
    graph, cluster = _synthetic(seed)
    layout = imbalanced_gpu_config if hoard else balanced_config
    config = _corrupt(
        layout(graph, cluster, num_stages, microbatch_size=mbs), initial
    )
    verified = set()
    assert _memo_verdict(config, graph, cluster, verified) == _full_verdict(
        config, graph, cluster
    )
    for edit in edits:
        candidate = _edit(config, graph, edit)
        if candidate is None:
            continue
        expected = _full_verdict(candidate, graph, cluster)
        assert _memo_verdict(candidate, graph, cluster, verified) == expected
        if expected:
            config = candidate


def test_verdict_is_per_microbatch_size():
    """A stage verified at mbs 4 is re-checked at mbs 2, where its
    dp of 4 no longer divides the microbatch."""
    graph, cluster = _synthetic(0)
    config = balanced_config(graph, cluster, 2, microbatch_size=4)
    assert set(config.stages[0].dp) == {4}
    verified = set()
    assert is_valid(config, graph, cluster, verified)
    smaller = config.mutated_copy()
    smaller.microbatch_size = 2
    assert not is_valid(smaller, graph, cluster, verified)
    assert not _full_verdict(smaller, graph, cluster)


def test_shared_bad_stage_is_never_accepted():
    """An invalid initial config never verifies its bad stage, so no
    candidate sharing that stage is accepted either."""
    graph, cluster = _synthetic(1)
    config = balanced_config(graph, cluster, 4, microbatch_size=2)
    config.stages[1].tp[0] = 3  # not a power of two
    verified = set()
    assert not is_valid(config, graph, cluster, verified)
    for index in (0, 2, 3):
        candidate = config.mutated_copy([index])
        candidate.stages[index].recompute[:] = True
        assert candidate.stages[1] is config.stages[1]
        assert not is_valid(candidate, graph, cluster, verified)
    assert (config.stages[1].base_digest(), 2) not in verified


def test_relabelled_devices_are_rechecked():
    """Swapping two stages' device counts keeps every per-op array's
    bytes but not the stage headers, which the verdict key covers."""
    graph, cluster = _synthetic(2)
    config = balanced_config(graph, cluster, 3, microbatch_size=4)
    assert [s.num_devices for s in config.stages] == [2, 2, 4]
    verified = set()
    assert is_valid(config, graph, cluster, verified)
    relabelled = _edit(config, graph, ("devices_relabel", 1, 2))
    assert not is_valid(relabelled, graph, cluster, verified)
    moved = _edit(config, graph, ("devices_move", 1, 2))
    assert is_valid(moved, graph, cluster, verified)


def test_recompute_only_edit_runs_no_per_op_check(monkeypatch):
    """A recompute-only candidate hits the memo for every stage; a
    tp/dp edit checks only the stage it cloned."""
    graph, cluster = _synthetic(3)
    config = balanced_config(graph, cluster, 4, microbatch_size=2)
    verified = set()
    assert is_valid(config, graph, cluster, verified)
    checked = []
    original = config_rules._op_check_hits

    def spy(stages, *args):
        checked.append(len(stages))
        return original(stages, *args)

    monkeypatch.setattr(config_rules, "_op_check_hits", spy)
    candidate = config.mutated_copy([2])
    candidate.stages[2].recompute[::2] = True
    assert is_valid(candidate, graph, cluster, verified)
    assert checked == []
    candidate = config.mutated_copy([2])
    _swap_tp_dp(candidate.stages[2], 0, toward_tp=True)
    assert is_valid(candidate, graph, cluster, verified)
    assert checked == [1]
