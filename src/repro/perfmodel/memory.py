"""Memory-prediction formulas (Eq. 1 of the paper).

Peak memory of pipeline stage ``i`` under 1F1B scheduling is::

    Memory_i = M_param_i + M_act_i * (p - i) + M_opt_i  (+ reserve)

plus the recomputation adjustment (recomputed segments keep only their
checkpoint inputs) and the deliberately *over-estimated* allocator
reserve (§3.3: under-estimating risks OOM configurations, so Aceso
charges the largest transient op footprint of the stage).
"""

from __future__ import annotations

import numpy as np

#: Safety multiplier on the predicted allocator reserve.  The paper
#: deliberately over-estimates extra memory (an under-estimate risks
#: OOM at deploy time); charging the largest transient twice covers
#: backward-pass workspaces the forward-replay can't see.
RESERVE_SAFETY_FACTOR = 2.0

#: The caching allocator hands out whole blocks of this granularity,
#: so tiny transients still reserve full blocks — the prediction must
#: round the same way or small models under-predict.
ALLOCATOR_BLOCK_BYTES = 2 * 1024 * 1024


def in_flight_counts(num_stages: int, num_microbatches: int) -> np.ndarray:
    """In-flight microbatches per stage under 1F1B.

    Stage ``i`` (0-based) holds activations of ``p - i`` microbatches at
    its peak, capped by the number of microbatches itself.
    """
    if num_stages < 1 or num_microbatches < 1:
        raise ValueError("stage and microbatch counts must be positive")
    counts = num_stages - np.arange(num_stages)
    return np.minimum(counts, num_microbatches)


def activation_kept_mask(
    recompute: np.ndarray, stage_id: np.ndarray
) -> np.ndarray:
    """Fraction (0/1) of each op's saved activation actually kept.

    Non-recomputed ops keep their full saved activation.  A maximal run
    of recomputed ops inside one stage keeps only its *first* op's
    input (the checkpoint the segment restarts from); the rest keep
    nothing until backward regenerates them.
    """
    if recompute.shape != stage_id.shape:
        raise ValueError("recompute and stage_id must have the same shape")
    # Dropped: recomputed ops whose same-stage predecessor recomputes.
    dropped = np.zeros(recompute.shape, dtype=bool)
    dropped[1:] = (
        recompute[1:] & recompute[:-1] & (stage_id[1:] == stage_id[:-1])
    )
    return (~dropped).astype(np.float64)


def allocator_reserve(
    transient_bytes: np.ndarray,
    stage_starts: np.ndarray,
    *,
    safety_factor: float = RESERVE_SAFETY_FACTOR,
) -> np.ndarray:
    """Per-stage allocator reserve: the largest transient op footprint.

    ``stage_starts`` are the first op indices of each (contiguous)
    stage.  Mirrors the paper's over-estimation rule for the PyTorch
    caching allocator; ``safety_factor`` exists for the ablation that
    shows what under-reserving costs.
    """
    if len(transient_bytes) == 0:
        raise ValueError("transient_bytes must be non-empty")
    if safety_factor <= 0:
        raise ValueError("safety_factor must be positive")
    peaks = np.maximum.reduceat(transient_bytes, stage_starts)
    blocks = np.ceil(peaks / ALLOCATOR_BLOCK_BYTES) * ALLOCATOR_BLOCK_BYTES
    return blocks * safety_factor


def stage_allocator_reserve(
    transient_bytes: np.ndarray,
    *,
    safety_factor: float = RESERVE_SAFETY_FACTOR,
) -> float:
    """Allocator reserve of a single stage (scalar form).

    Same rule as :func:`allocator_reserve` applied to one stage's
    transient footprints; used by the per-stage costing path.
    """
    if len(transient_bytes) == 0:
        raise ValueError("transient_bytes must be non-empty")
    if safety_factor <= 0:
        raise ValueError("safety_factor must be positive")
    peak = transient_bytes.max()
    blocks = np.ceil(peak / ALLOCATOR_BLOCK_BYTES) * ALLOCATOR_BLOCK_BYTES
    return float(blocks * safety_factor)


def stage_peak_memory(
    weight_bytes: float,
    optimizer_bytes: float,
    activation_bytes_mb: float,
    in_flight: int,
    reserved_bytes: float,
) -> float:
    """Eq. 1 with the allocator reserve term."""
    return (
        weight_bytes
        + optimizer_bytes
        + activation_bytes_mb * in_flight
        + reserved_bytes
    )
