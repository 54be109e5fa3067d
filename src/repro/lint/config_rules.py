"""Tier-A domain analyzers over in-memory planning objects.

``analyze_structure`` is the collect-all twin of the historical
``validate_config`` raise-on-first checker: same invariants (§3.1 and
§5.1 of the paper), same check order, byte-identical message text —
``validate_config`` now wraps this analyzer's first error, so the two
can never drift.  It checks configurations at the edges (lint, plan
loading, baselines, extension appliers); the search's own candidates
are valid by construction and never pass through it.
``analyze_memory`` is the static Eq. 1 feasibility
pass: it prices every stage with the performance model and reports
which stages would OOM and by how much.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .diagnostics import Diagnostic


def _stage_loc(i: int) -> str:
    return f"stage {i}"


# ----------------------------------------------------------------------
# structural invariants (ACE1xx)
# ----------------------------------------------------------------------
def analyze_structure(config, graph, cluster) -> List[Diagnostic]:
    """Collect every violated structural invariant of ``config``.

    Diagnostics appear in the exact order the legacy raise-on-first
    checker tested them (spans, devices, parallel degrees, tp_dims,
    microbatch), so ``diagnostics[0]`` is always the violation
    ``validate_config`` historically raised.
    """
    out: List[Diagnostic] = []
    _check_spans(config, graph, out)
    _check_devices(config, cluster, out)
    _check_ops(config, graph, cluster, out)
    return out


def _check_spans(config, graph, out: List[Diagnostic]) -> None:
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


def _check_devices(config, cluster, out: List[Diagnostic]) -> None:
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


#: Per-op checks ``(code, message, hint)``, one flag row each, in the
#: order ``_check_ops`` fills and reports them.
_OP_CHECKS = (
    ("ACE120", "stage {i} has non-positive tp", ""),
    ("ACE121", "stage {i} has non-power-of-two tp values", ""),
    ("ACE120", "stage {i} has non-positive dp", ""),
    ("ACE121", "stage {i} has non-power-of-two dp values", ""),
    ("ACE122", "stage {i}: tp * dp != num_devices ({n})", ""),
    ("ACE123", "stage {i} tp exceeds cluster size", ""),
    ("ACE130", "stage {i} has negative tp_dim", ""),
    ("ACE131", "stage {i} has tp_dim beyond an op's partition options",
     ""),
    ("ACE141", "stage {i}: microbatch {mbs} not divisible by some op dp",
     "every op's per-GPU share mbs/dp must be integral"),
)


def _check_ops(config, graph, cluster, out: List[Diagnostic]) -> None:
    """Every per-op check over all stages' ops at once: a stage fails a
    check when its segment of that check's flag row has a set flag."""
    mbs = config.microbatch_size
    stages = config.stages
    hits = _op_check_hits(stages, mbs, graph, cluster) if stages else None

    def report(lo: int, hi: int) -> None:
        if hits is None:
            return
        # Stage-major: nonzero walks the [stage, check] view in C order.
        for i, row in zip(*np.nonzero(hits[lo:hi].T)):
            i = int(i)
            code, message, hint = _OP_CHECKS[lo + int(row)]
            out.append(Diagnostic(
                code,
                message.format(i=i, n=stages[i].num_devices, mbs=mbs),
                location=_stage_loc(i),
                hint=hint,
            ))

    report(0, 6)  # parallel degrees
    report(6, 8)  # tp_dims
    if graph.global_batch_size % mbs:
        out.append(Diagnostic(
            "ACE140",
            f"microbatch {mbs} does not divide global batch "
            f"{graph.global_batch_size}",
        ))
    report(8, 9)  # microbatch share per op


def _op_check_hits(stages, mbs, graph, cluster) -> Optional[np.ndarray]:
    """``[check, stage]`` verdicts of ``_OP_CHECKS`` over ``stages``,
    or ``None`` when no op fails any check."""
    num_options = graph.arrays.num_options
    lengths = [len(stage.tp) for stage in stages]
    limits = [num_options[s.start:s.end] for s in stages]
    # A broken span can slice the wrong number of limits; the span
    # diagnostics already cover that case, so ACE131 skips it.
    checkable = [lim.shape == s.tp_dim.shape for lim, s in zip(limits, stages)]
    tp = np.concatenate([stage.tp for stage in stages])
    dp = np.concatenate([stage.dp for stage in stages])
    tp_dim = np.concatenate([stage.tp_dim for stage in stages])
    devices = np.repeat([stage.num_devices for stage in stages], lengths)
    flags = np.empty((len(_OP_CHECKS), len(tp)), dtype=bool)
    np.less(tp, 1, out=flags[0])
    np.not_equal(tp & (tp - 1), 0, out=flags[1])
    np.less(dp, 1, out=flags[2])
    np.not_equal(dp & (dp - 1), 0, out=flags[3])
    np.not_equal(tp * dp, devices, out=flags[4])
    np.greater(tp, cluster.num_gpus, out=flags[5])
    np.less(tp_dim, 0, out=flags[6])
    np.greater_equal(tp_dim, np.concatenate([
        lim if ok else np.zeros_like(s.tp_dim)
        for lim, ok, s in zip(limits, checkable, stages)
    ]), out=flags[7])
    np.not_equal(mbs % dp, 0, out=flags[8])
    if not flags.any():
        return None
    # Flag counts before each op, so an empty segment reads 0.
    before = np.zeros((len(flags), len(tp) + 1), dtype=np.int64)
    np.cumsum(flags, axis=1, out=before[:, 1:])
    bounds = np.cumsum([0] + lengths)
    hits = before[:, bounds[1:]] > before[:, bounds[:-1]]
    hits[7] &= checkable
    return hits


# ----------------------------------------------------------------------
# memory feasibility (ACE2xx, Eq. 1)
# ----------------------------------------------------------------------
def analyze_memory(
    config, graph, cluster, *, perf_model=None, seed: int = 0
) -> List[Diagnostic]:
    """Static Eq. 1 feasibility: which stages would OOM, and by how much,
    each against its own device limit on a heterogeneous cluster.

    Requires a structurally valid config (run :func:`analyze_structure`
    first); builds a performance model when none is supplied.
    """
    if perf_model is None:
        from ..perfmodel.model import build_perf_model

        perf_model = build_perf_model(graph, cluster, seed=seed)
    report = perf_model.estimate(config)
    out: List[Diagnostic] = []
    for i, peak in enumerate(report.peak_memories):
        limit = report.stage_limit(i)
        if peak > limit:
            overage = peak - limit
            out.append(Diagnostic(
                "ACE201",
                f"stage {i} peak memory {peak / 2**30:.2f} GiB exceeds "
                f"device capacity {limit / 2**30:.2f} GiB by "
                f"{overage / 2**30:.2f} GiB",
                location=_stage_loc(i),
                hint=(
                    "apply a memory-decreasing primitive to this stage "
                    "(dec-op#, dec-mbs, inc-dp, inc-tp, inc-rc)"
                ),
                attrs={
                    "peak_bytes": float(peak),
                    "limit_bytes": float(limit),
                    "overage_bytes": float(overage),
                },
            ))
    return out


def weight_state_lower_bound(graph, cluster) -> float:
    """Per-GPU lower bound on resident weight+optimizer bytes.

    Weights and optimizer state shard only across tensor-parallel (and
    for the optimizer, dp replicas each keep a copy), so even a perfect
    plan keeps at least ``total_params * (elem + optimizer_bytes) /
    num_gpus`` on some device.  A request whose bound already exceeds
    device capacity cannot be planned at all.
    """
    per_param = graph.elem_bytes + float(graph.optimizer_bytes_per_param)
    return float(graph.total_params) * per_param / cluster.num_gpus


def analyze_weight_state(graph, cluster) -> List[Diagnostic]:
    """Request-level ACE202 check: can the weights fit at all?"""
    bound = weight_state_lower_bound(graph, cluster)
    limit = float(cluster.device.memory_bytes)
    if bound <= limit:
        return []
    return [Diagnostic(
        "ACE202",
        f"weights + optimizer state need at least "
        f"{bound / 2**30:.2f} GiB per GPU but devices have "
        f"{limit / 2**30:.2f} GiB",
        hint="request more GPUs or a smaller model",
        attrs={
            "lower_bound_bytes": bound,
            "limit_bytes": limit,
            "num_gpus": cluster.num_gpus,
        },
    )]


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------
def analyze_config(
    config,
    graph,
    cluster,
    *,
    perf_model=None,
    memory: bool = True,
    seed: int = 0,
) -> List[Diagnostic]:
    """Full Tier-A analysis of one configuration.

    Structural diagnostics come first; the Eq. 1 memory pass only runs
    on structurally clean configs (the performance model assumes valid
    spans and degrees).
    """
    out = analyze_structure(config, graph, cluster)
    if memory and not out:
        out.extend(analyze_memory(
            config, graph, cluster, perf_model=perf_model, seed=seed
        ))
    return out
