"""The vectorized structural checker against the per-stage original.

``analyze_structure`` checks every per-op invariant over all stages'
ops at once.  The property below corrupts configurations at random —
spans (shifted, empty, broken), device counts, tp/dp degrees, tp_dims
and the microbatch size — and requires the exact diagnostics, in the
exact order, that a frozen verbatim copy of the per-stage checker it
replaced reports.  The corruptions include degrees whose ``tp * dp``
wraps around int64, and uniform degrees whose product matches a device
count that is not a power of two or exceeds the cluster.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import paper_cluster
from repro.lint.config_rules import analyze_structure
from repro.lint.diagnostics import Diagnostic
from repro.parallel import StageConfig, balanced_config

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


#: Huge degrees whose product with 4 wraps around int64 to 8.
_WRAPPING = [2**62 + 2, -(2**62) + 2]

_DEGREES = [-2, 0, 1, 2, 3, 4, 6, 8, 16, 32] + _WRAPPING

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
    st.tuples(st.just("degrees"), st.integers(0, 7),
              st.tuples(st.sampled_from(_DEGREES),
                        st.sampled_from(_DEGREES))),
    # Products that match a device count that is not a power of two
    # or exceeds the cluster.
    st.tuples(st.just("uniform"), st.integers(0, 7),
              st.tuples(st.sampled_from([0, 3, 6, 8, 16]),
                        st.sampled_from([1, 2, 3, 4, 8, 16]))),
    st.tuples(st.just("mbs"), st.just(0),
              st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 16, 64])),
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
        elif kind == "degrees":
            stage.tp[:], stage.dp[:] = value
        elif kind == "uniform":
            stage.num_devices, tp = value
            stage.tp[:], stage.dp[:] = tp, stage.num_devices // tp
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
@example(num_stages=1, mbs=8,
         corruptions=[("degrees", 0, (_WRAPPING[0], 4))])
@example(num_stages=1, mbs=8,
         corruptions=[("degrees", 0, (4, _WRAPPING[1]))])
@example(num_stages=1, mbs=8,
         corruptions=[("degrees", 0, (_WRAPPING[1], 4))])
@example(num_stages=2, mbs=8,
         corruptions=[("uniform", 0, (3, 3))])
@example(num_stages=2, mbs=8,
         corruptions=[("uniform", 0, (6, 3))])
@example(num_stages=2, mbs=8,
         corruptions=[("uniform", 0, (16, 16))])
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
