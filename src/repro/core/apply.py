"""Primitive application: turning a Table 1 row into candidate configs.

Every ``apply_*`` function takes the current search context and returns
a (possibly empty) list of *valid* successor configurations.  Argument
values follow the greedy strategies of §4.1 (via
:mod:`repro.core.arguments`); the §4.3 optimizations are built in:
inc/dec-rc is re-fitted after every memory-affecting primitive, and
op movement relays through intermediate stages when the bottleneck and
the idlest stage are not adjacent.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional

import numpy as np

from ..cluster.topology import ClusterSpec
from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig
from ..parallel.stage import StageConfig
from ..parallel.validation import is_valid
from ..perfmodel.model import PerfModel, StageLRU
from ..perfmodel.report import PerfReport
from .arguments import op_move_counts, tune_recompute
from .bottleneck import Bottleneck
from .primitives import APPLIERS, PRIMITIVES_BY_NAME, primitive_applier


@dataclass
class ApplyContext:
    """Everything a primitive needs to propose successors.

    ``attach_recompute`` enables §4.3's "attach inc/dec-rc to every
    primitive" combination; the ablation benches turn it off.
    """

    graph: OpGraph
    cluster: ClusterSpec
    perf_model: PerfModel
    config: ParallelConfig
    report: PerfReport
    bottleneck: Bottleneck
    attach_recompute: bool = True

    @property
    def stage_index(self) -> int:
        return self.bottleneck.stage

    def retune(self, config, stage_indices):
        """Re-fit recomputation when the combination is enabled."""
        if not self.attach_recompute:
            return config
        return tune_recompute(self.perf_model, config, stage_indices)


# ----------------------------------------------------------------------
# op movement (inc-op# / dec-op#), with §4.3 relay combination
# ----------------------------------------------------------------------
def move_ops(
    config: ParallelConfig,
    graph: OpGraph,
    src: int,
    dst: int,
    count: int,
) -> Optional[ParallelConfig]:
    """Relay ``count`` ops from stage ``src`` toward stage ``dst``.

    When the stages are not adjacent, every boundary along the path
    shifts by ``count`` (§4.3's combined inc/dec-op#): the net effect
    moves ``count`` ops out of ``src`` and into ``dst`` while the
    intermediate stages trade an equal number through.  Ops that change
    stage adopt the parallel settings of a native op of their new stage
    and drop their recompute flag (re-fitted later).  A re-spanned
    stage comes from the graph's relay table, keyed by its source
    stage's digest and new span, when an earlier relay built it.

    Returns ``None`` when any stage would become empty.
    """
    if src == dst or count < 1:
        return None
    num_stages = config.num_stages
    bounds = [s.start for s in config.stages] + [config.stages[-1].end]
    if src < dst:
        for j in range(src + 1, dst + 1):
            bounds[j] -= count
    else:
        for j in range(dst + 1, src + 1):
            bounds[j] += count
    for i in range(num_stages):
        if bounds[i + 1] - bounds[i] < 1:
            return None
    relays = graph.relay_stages
    if relays is None:
        relays = graph.relay_stages = StageLRU(attrgetter("num_ops"))
    stages: List[StageConfig] = []
    for i, old in enumerate(config.stages):
        lo, hi = bounds[i], bounds[i + 1]
        if lo == old.start and hi == old.end:
            # Span untouched by the relay: share the stage object so
            # its cached digest (and stage-level cost) stays valid.
            stages.append(old)
        elif min(hi, old.end) <= max(lo, old.start):
            return None  # no native op would stay
        else:
            stages.append(relays.fetch(
                (old.digest(), lo, hi),
                lambda: _respan(old, lo, hi, graph.arrays.num_options),
            ))
    return ParallelConfig(
        stages=stages, microbatch_size=config.microbatch_size
    )


def _respan(old: StageConfig, lo: int, hi: int, num_options) -> StageConfig:
    """``old`` re-spanned to ``[lo, hi)``, which keeps some of its ops,
    with read-only arrays, since the relay table shares it.

    Native ops keep their settings: local slice [k0, k1) of the old
    stage.  Both boundaries shift the same way, so ops enter at the
    front or at the back, never at both.  Entering ops adopt the
    anchor's tp/dp, the first partition option and no recompute.
    """
    k0 = max(lo, old.start) - old.start
    k1 = min(hi, old.end) - old.start
    front, back = old.start - lo, hi - old.end
    anchor = k0 if lo > old.start else k1 - 1
    seg_tp = _relay_segment(old.tp, k0, k1, front, back, old.tp[anchor])
    seg_dp = _relay_segment(old.dp, k0, k1, front, back, old.dp[anchor])
    seg_dim = _relay_segment(old.tp_dim, k0, k1, front, back, 0)
    seg_rc = _relay_segment(old.recompute, k0, k1, front, back, False)
    # Clamp partition-option indices for ops new to this setting.
    seg_dim = np.minimum(seg_dim, num_options[lo:hi] - 1)
    for values in (seg_tp, seg_dp, seg_dim, seg_rc):
        values.flags.writeable = False
    return StageConfig(
        lo, hi, old.num_devices, seg_tp, seg_dp, seg_dim, seg_rc
    )


def _relay_segment(values, k0, k1, front, back, fill):
    """``values[k0:k1]`` plus ``front`` (or ``back``) entering ops set
    to ``fill``, in ``values``' dtype; a copy either way."""
    native = values[k0:k1]
    if front > 0:
        return np.concatenate((np.full(front, fill, values.dtype), native))
    if back > 0:
        return np.concatenate((native, np.full(back, fill, values.dtype)))
    return native.copy()


def _idlest_stage(ctx: ApplyContext, exclude: int) -> Optional[int]:
    times = ctx.report.stage_times()
    order = np.argsort(times)
    for stage in order:
        if int(stage) != exclude:
            return int(stage)
    return None


def _move_candidates(ctx: ApplyContext, src: int, dst: int, neighbor: int):
    """Each ``op_move_counts`` relay of ops from ``src`` to ``dst``
    (balanced against ``neighbor``), retuned over the stages between."""
    candidates = []
    for count in op_move_counts(
        ctx.graph, ctx.config, src, neighbor, from_front=dst < src
    ):
        moved = move_ops(ctx.config, ctx.graph, src, dst, count)
        if moved is not None:
            affected = list(range(min(src, dst), max(src, dst) + 1))
            candidates.append(ctx.retune(moved, affected))
    return _finalize(ctx, candidates)


def apply_dec_op(ctx: ApplyContext) -> List[ParallelConfig]:
    """Shrink the bottleneck stage's op span toward the idlest stage."""
    src = ctx.stage_index
    if ctx.config.num_stages < 2:
        return []
    if ctx.bottleneck.is_oom:
        # Send ops to the stage with the most memory headroom.
        memories = ctx.report.peak_memories
        order = np.argsort(memories)
        dst = next((int(s) for s in order if int(s) != src), None)
    else:
        dst = _idlest_stage(ctx, exclude=src)
    if dst is None:
        return []
    return _move_candidates(ctx, src, dst, src - 1 if dst < src else src + 1)


def apply_inc_op(ctx: ApplyContext) -> List[ParallelConfig]:
    """Grow the bottleneck stage by pulling ops from a busy neighbour."""
    dst = ctx.stage_index
    if ctx.config.num_stages < 2:
        return []
    times = ctx.report.stage_times()
    order = np.argsort(times)[::-1]
    src = next((int(s) for s in order if int(s) != dst), None)
    if src is None:
        return []
    # Balance against the receiving stage.
    return _move_candidates(ctx, src, dst, dst)


# ----------------------------------------------------------------------
# microbatch size (inc-mbs / dec-mbs), model-level
# ----------------------------------------------------------------------
def apply_inc_mbs(ctx: ApplyContext) -> List[ParallelConfig]:
    """Double the aggregated microbatch size (fewer, fatter kernels)."""
    mbs = ctx.config.microbatch_size * 2
    if ctx.graph.global_batch_size % mbs:
        return []
    new = ctx.config.mutated_copy()
    new.microbatch_size = mbs
    new = ctx.retune(new, list(range(new.num_stages)))
    return _finalize(ctx, [new])


def apply_dec_mbs(ctx: ApplyContext) -> List[ParallelConfig]:
    """Halve the aggregated microbatch size (less activation memory)."""
    mbs = ctx.config.microbatch_size // 2
    if mbs < 1 or ctx.graph.global_batch_size % mbs:
        return []
    for stage in ctx.config.stages:
        if np.any(mbs % stage.dp):
            return []
    new = ctx.config.mutated_copy()
    new.microbatch_size = mbs
    new = ctx.retune(new, list(range(new.num_stages)))
    return _finalize(ctx, [new])


# ----------------------------------------------------------------------
# dp / tp concurrency (inc/dec-dp, inc/dec-tp)
# ----------------------------------------------------------------------
def _swap_within_stage(
    ctx: ApplyContext, stage_index: int, *, toward: str
) -> Optional[ParallelConfig]:
    """Trade dp for tp (or back) inside a stage, devices unchanged."""
    stage = ctx.config.stages[stage_index]
    if toward == "tp":
        movable = stage.dp >= 2
    else:
        movable = stage.tp >= 2
    if not np.any(movable):
        return None
    new = ctx.config.mutated_copy([stage_index])
    target = new.stages[stage_index]
    if toward == "tp":
        target.tp[movable] *= 2
        target.dp[movable] //= 2
    else:
        new_dp = target.dp[movable] * 2
        if np.any(new.microbatch_size % new_dp):
            return None
        target.dp[movable] = new_dp
        target.tp[movable] //= 2
    return ctx.retune(new, [stage_index])


def _choose_partner(
    ctx: ApplyContext, wanted_devices: int
) -> Optional[int]:
    """Partner stage donating/receiving devices (§3.2.1).

    Picks, among stages with the required device count, the one with
    the most available resources of the bottleneck's kind — lowest
    memory for OOM bottlenecks, lowest busy time otherwise.
    """
    src = ctx.stage_index
    eligible = [
        i for i, stage in enumerate(ctx.config.stages)
        if i != src and stage.num_devices == wanted_devices
    ]
    if not eligible:
        return None
    if ctx.bottleneck.primary_resource == "memory":
        memories = ctx.report.peak_memories
        return min(eligible, key=lambda i: memories[i])
    times = ctx.report.stage_times()
    return min(eligible, key=lambda i: times[i])


def _grow_devices(
    ctx: ApplyContext, *, grow_mechanism: str
) -> Optional[ParallelConfig]:
    """Double the bottleneck stage's devices, partner stage halves.

    Power-of-two accounting requires a partner holding exactly twice
    the bottleneck's devices (it donates half and stays a power of
    two).  The partner applies the paper's dec-dp/tp primitive.
    """
    src = ctx.stage_index
    stage = ctx.config.stages[src]
    partner = _choose_partner(ctx, wanted_devices=stage.num_devices * 2)
    if partner is None:
        return None
    new = ctx.config.mutated_copy([src, partner])
    grown = new.stages[src]
    grown.num_devices *= 2
    if grow_mechanism == "dp":
        new_dp = grown.dp * 2
        if np.any(new.microbatch_size % new_dp):
            return None
        grown.dp = new_dp
    else:
        grown.tp *= 2
    donor = new.stages[partner]
    donor.num_devices //= 2
    shrink_dp = donor.dp >= 2
    donor.dp[shrink_dp] //= 2
    donor.tp[~shrink_dp] //= 2
    if np.any(donor.tp < 1) or np.any(donor.dp < 1):
        return None
    return ctx.retune(new, [src, partner])


def _shrink_devices(
    ctx: ApplyContext, *, shrink_mechanism: str
) -> Optional[ParallelConfig]:
    """Halve the bottleneck stage's devices, donating to a partner."""
    src = ctx.stage_index
    stage = ctx.config.stages[src]
    if stage.num_devices < 2:
        return None
    partner = _choose_partner(ctx, wanted_devices=stage.num_devices // 2)
    if partner is None:
        return None
    new = ctx.config.mutated_copy([src, partner])
    shrunk = new.stages[src]
    shrunk.num_devices //= 2
    if shrink_mechanism == "dp":
        movable = shrunk.dp >= 2
        shrunk.dp[movable] //= 2
        shrunk.tp[~movable] //= 2
    else:
        movable = shrunk.tp >= 2
        shrunk.tp[movable] //= 2
        shrunk.dp[~movable] //= 2
    if np.any(shrunk.tp < 1) or np.any(shrunk.dp < 1):
        return None
    receiver = new.stages[partner]
    receiver.num_devices *= 2
    new_dp = receiver.dp * 2
    if np.any(new.microbatch_size % new_dp):
        receiver.tp *= 2
    else:
        receiver.dp = new_dp
    return ctx.retune(new, [src, partner])


def apply_inc_dp(ctx: ApplyContext) -> List[ParallelConfig]:
    """More data parallelism: tp->dp swap, or grow the device group."""
    candidates = [
        _swap_within_stage(ctx, ctx.stage_index, toward="dp"),
        _grow_devices(ctx, grow_mechanism="dp"),
    ]
    return _finalize(ctx, candidates)


def apply_inc_tp(ctx: ApplyContext) -> List[ParallelConfig]:
    """More tensor parallelism: dp->tp swap, or grow the device group."""
    candidates = [
        _swap_within_stage(ctx, ctx.stage_index, toward="tp"),
        _grow_devices(ctx, grow_mechanism="tp"),
    ]
    return _finalize(ctx, candidates)


def apply_dec_dp(ctx: ApplyContext) -> List[ParallelConfig]:
    """Less data parallelism: dp->tp swap, or shed devices."""
    candidates = [
        _swap_within_stage(ctx, ctx.stage_index, toward="tp"),
        _shrink_devices(ctx, shrink_mechanism="dp"),
    ]
    return _finalize(ctx, candidates)


def apply_dec_tp(ctx: ApplyContext) -> List[ParallelConfig]:
    """Less tensor parallelism: tp->dp swap, or shed devices."""
    candidates = [
        _swap_within_stage(ctx, ctx.stage_index, toward="dp"),
        _shrink_devices(ctx, shrink_mechanism="tp"),
    ]
    return _finalize(ctx, candidates)


# ----------------------------------------------------------------------
# recomputation (inc-rc / dec-rc)
# ----------------------------------------------------------------------
def apply_inc_rc(ctx: ApplyContext) -> List[ParallelConfig]:
    """Recompute more ops in the bottleneck stage (memory relief)."""
    from .arguments import greedy_recompute

    stage_index = ctx.stage_index
    candidates = []
    fitted = greedy_recompute(
        ctx.perf_model, ctx.config, stage_index, ctx.report.eq1()
    )
    if fitted is not None:
        candidates.append(fitted)
    stage = ctx.config.stages[stage_index]
    if not np.all(stage.recompute):
        candidates.append(ctx.config.with_recompute(stage_index, True))
        act = ctx.perf_model.stage_activation_bytes(
            stage, ctx.config.microbatch_size
        )
        order = np.argsort(act)[::-1]
        half = stage.recompute.copy()
        half[order[: max(1, stage.num_ops // 2)]] = True
        candidates.append(ctx.config.with_recompute(stage_index, half))
    return _finalize(ctx, candidates)


def apply_dec_rc(ctx: ApplyContext) -> List[ParallelConfig]:
    """Recompute fewer ops in the bottleneck stage (compute relief)."""
    from .arguments import greedy_unrecompute

    stage_index = ctx.stage_index
    candidates = []
    relaxed = greedy_unrecompute(
        ctx.perf_model, ctx.config, stage_index, ctx.report.eq1()
    )
    if relaxed is not None:
        candidates.append(relaxed)
    stage = ctx.config.stages[stage_index]
    if np.any(stage.recompute):
        candidates.append(ctx.config.with_recompute(stage_index, False))
    return _finalize(ctx, candidates)


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
APPLIERS.update({
    "inc-op#": apply_inc_op,
    "dec-op#": apply_dec_op,
    "inc-mbs": apply_inc_mbs,
    "dec-mbs": apply_dec_mbs,
    "inc-dp": apply_inc_dp,
    "dec-dp": apply_dec_dp,
    "inc-tp": apply_inc_tp,
    "dec-tp": apply_dec_tp,
    "inc-rc": apply_inc_rc,
    "dec-rc": apply_dec_rc,
})


def apply_primitive(name: str, ctx: ApplyContext) -> List[ParallelConfig]:
    """Generate valid successor configurations for one primitive.

    Built-in appliers emit only valid configurations (a property in
    ``tests/test_valid_by_construction.py``); an extension applier's
    candidates are checked here, one ``is_valid`` each.
    """
    candidates = primitive_applier(name)(ctx)
    if name in PRIMITIVES_BY_NAME:
        return candidates
    return _finalize(ctx, [
        candidate for candidate in candidates
        if candidate is None or is_valid(candidate, ctx.graph, ctx.cluster)
    ])


def _finalize(
    ctx: ApplyContext, candidates: List[ParallelConfig]
) -> List[ParallelConfig]:
    """Locally dedupe candidate configurations, dropping ``None`` and
    the parent."""
    seen = {ctx.config.cache_key()}
    result = []
    for candidate in candidates:
        if candidate is None:
            continue
        key = candidate.cache_key()
        if key not in seen:
            seen.add(key)
            result.append(candidate)
    return result
