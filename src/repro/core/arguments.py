"""Greedy primitive-argument selection (§4.1).

Primitives like inc/dec-op# and inc/dec-rc have large argument ranges
("how many and which operators"), so Aceso chooses values greedily with
the performance model instead of enumerating.  Recompute selection
targets the largest activations first; op movement proposes a small
ladder of counts plus a FLOPs-balancing count, letting Heuristic-2's
best-performance-first ranking pick among them.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig
from ..perfmodel.model import PerfModel
from ..perfmodel.report import Eq1View

_EPS = float(np.finfo(np.float64).eps)


def greedy_recompute(
    perf_model: PerfModel,
    config: ParallelConfig,
    stage_index: int,
    eq1: Eq1View,
) -> Optional[ParallelConfig]:
    """Enable recomputation on a stage until it fits in memory.

    Ops are recomputed largest-activation-first (§4.1).  The count is
    seeded analytically from the overflow past the stage's own limit in
    ``eq1`` (``config``'s Eq. 1 view) and each op's activation savings,
    then verified (and grown if short) against the performance model —
    one or two probes of one :meth:`PerfModel.recompute_probe` instead
    of a full scan.  Only the fitting mask is built, and its peak
    replaces the stage's in ``eq1``, which so becomes the result's view.
    Returns ``None`` when no probed count fits, when the stage already
    fits without changes, or, before sorting, when even recomputing
    every candidate cannot cover the overflow (:func:`_cannot_cover`).
    The probes step by an eighth of the candidates and may step past
    full recomputation without trying it.
    """
    limit = eq1.limits[stage_index]
    overflow = eq1.peaks[stage_index] - limit
    if overflow <= 0:
        return None
    stage = config.stages[stage_index]
    act = perf_model.stage_activation_bytes(stage, config.microbatch_size)
    candidates = np.where(~stage.recompute)[0]
    if candidates.size == 0:
        return None
    sizes = act[candidates]
    in_flight = max(1, eq1.in_flight[stage_index])
    if _cannot_cover(sizes, in_flight, overflow):
        return None
    order = candidates[np.argsort(sizes)[::-1]]
    savings = np.cumsum(act[order]) * in_flight

    total = len(order)
    k = int(np.searchsorted(savings, overflow)) + 1
    step = max(1, total // 8)
    probe = perf_model.recompute_probe(config, stage_index, eq1)
    while k <= total:
        mask = stage.recompute.copy()
        mask[order[:min(k, total)]] = True
        peak, digest = probe(mask)
        if peak <= limit:
            eq1.peaks[stage_index] = peak
            return config.with_recompute(stage_index, mask, digest)
        k += step
    return None


def _cannot_cover(sizes: np.ndarray, in_flight: int, overflow: float) -> bool:
    """Whether recomputing all of ``sizes`` (activation bytes, >= 0)
    provably saves less than ``overflow``, so that the sorted
    ``cumsum(...)[-1] * in_flight`` is below it too.  Any summation order
    of n non-negative terms is within (n-1)u / (1-(n-1)u) of the exact
    sum (u = 2**-53; Higham, *Accuracy and Stability*, §4.2): widening
    the pairwise ``sum`` by 2n * eps = 4nu covers both sums' error and
    the three products' roundings for n below 2**40."""
    widen = 1.0 + 2 * sizes.size * _EPS
    return bool(float(sizes.sum()) * in_flight * widen < overflow)


def greedy_unrecompute(
    perf_model: PerfModel,
    config: ParallelConfig,
    stage_index: int,
    eq1: Eq1View,
) -> Optional[ParallelConfig]:
    """Disable recomputation where memory slack allows.

    Recomputed ops are released in ascending activation order (big
    activations are the riskiest to re-materialize).  The release count
    is seeded from the slack under the stage's own limit in ``eq1``
    (``config``'s Eq. 1 view) and trimmed against one
    :meth:`PerfModel.recompute_probe`; only the count that fits is
    built, and ``eq1`` is updated as in :func:`greedy_recompute`.
    Returns ``None`` when nothing can change (no recomputed ops, the
    stage is already over budget, or no probed count fits).
    """
    stage = config.stages[stage_index]
    recomputed = np.where(stage.recompute)[0]
    if recomputed.size == 0:
        return None
    limit = eq1.limits[stage_index]
    slack = limit - eq1.peaks[stage_index]
    if slack < 0:
        return None
    act = perf_model.stage_activation_bytes(stage, config.microbatch_size)
    order = recomputed[np.argsort(act[recomputed])]
    growth = np.cumsum(act[order]) * max(1, eq1.in_flight[stage_index])

    k = int(np.searchsorted(growth, slack, side="right"))
    if k < 1:
        return None
    step = max(1, len(order) // 8)
    probe = perf_model.recompute_probe(config, stage_index, eq1)
    while k >= 1:
        mask = stage.recompute.copy()
        mask[order[:k]] = False
        peak, digest = probe(mask)
        if peak <= limit:
            eq1.peaks[stage_index] = peak
            return config.with_recompute(stage_index, mask, digest)
        k -= step
    return None


def tune_recompute(
    perf_model: PerfModel,
    config: ParallelConfig,
    stage_indices: List[int],
) -> ParallelConfig:
    """Re-fit recomputation after another primitive changed memory.

    This is §4.3's "attaching inc/dec-rc to all other primitives":
    stages pushed over their memory limit gain recomputation; stages
    with new slack shed it.  The config's Eq. 1 view is read once
    (:meth:`PerfModel.eq1`, never a report); a recompute-only edit
    changes only its stage's Eq. 1 peak, which the greedy functions
    update in the carried :class:`~repro.perfmodel.report.Eq1View`.
    Each stage calls only the one that can change it: an over-budget
    stage :func:`greedy_recompute`, a fitting stage that recomputes
    something :func:`greedy_unrecompute`, and a fitting stage that
    recomputes nothing neither.
    """
    current, eq1 = config, None
    for stage_index in stage_indices:
        if not 0 <= stage_index < current.num_stages:
            continue
        if eq1 is None:
            eq1 = perf_model.eq1(current)
        args = (perf_model, current, stage_index, eq1)
        if eq1.peaks[stage_index] > eq1.limits[stage_index]:
            tuned = greedy_recompute(*args)
        elif np.count_nonzero(current.stages[stage_index].recompute):
            tuned = greedy_unrecompute(*args)
        else:
            continue
        if tuned is not None:
            current = tuned
    return current


def op_move_counts(
    graph: OpGraph,
    config: ParallelConfig,
    stage_index: int,
    neighbor_index: int,
    *,
    from_front: bool,
) -> List[int]:
    """Candidate counts of ops to move out of a stage (§4.1).

    Returns a small ladder of counts — 1, span/8, span/4, span/2 — plus
    the FLOPs-balancing count that would equalize the two stages'
    training FLOPs (the "tight goal"), all deduplicated and capped so
    the stage keeps at least one op.
    """
    stage = config.stages[stage_index]
    span = stage.num_ops
    if span <= 1:
        return []
    limit = span - 1
    ladder = {1, max(1, span // 8), max(1, span // 4), max(1, span // 2)}
    balance = _flops_balance_count(
        graph, config, stage_index, neighbor_index, from_front
    )
    if balance is not None:
        ladder.add(balance)
    return sorted(k for k in ladder if 1 <= k <= limit)


def _flops_balance_count(
    graph: OpGraph,
    config: ParallelConfig,
    stage_index: int,
    neighbor_index: int,
    from_front: bool,
) -> Optional[int]:
    arrays = graph.arrays
    stage = config.stages[stage_index]
    own, other = (
        arrays.flops[s.start:s.end] + arrays.bwd_flops[s.start:s.end]
        for s in (stage, config.stages[neighbor_index])
    )
    gap = (float(own.sum()) - float(other.sum())) / 2.0
    if gap <= 0:
        return None
    moved = own if from_front else own[::-1]
    cumulative = np.cumsum(moved)
    k = int(np.searchsorted(cumulative, gap)) + 1
    if k >= stage.num_ops:
        return None
    return k
