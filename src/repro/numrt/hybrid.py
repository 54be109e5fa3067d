"""Hybrid parallel execution: the combinations real configs use.

An Aceso configuration is never a single mechanism — it is pipeline
stages *times* per-stage data parallelism *times* recomputation.  This
module composes the numeric runtime's mechanisms the same way a
deployed plan would and shows the composition is still semantics-
preserving (the property §4 of the paper validates against
Megatron-LM outputs).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .data_parallel import allreduce_grads, shard_batch
from .model import MLP, LayerParams
from .pipeline import pp_loss_and_grads
from .recompute import rc_loss_and_grads
from .tensor_ops import mse_loss_bwd, mse_loss_fwd, relu_bwd, relu_fwd


def _data_parallel(
    x: np.ndarray, target: np.ndarray, dp_ways: int, loss_and_grads
) -> Tuple[float, List[LayerParams]]:
    """``loss_and_grads(shard_x, shard_t)`` on each of ``dp_ways`` batch
    shards, then the replica all-reduce.  Each replica normalizes by
    its *shard* batch, so its loss and grads are first rescaled to the
    global mean."""
    batch = x.shape[0]
    per_worker = []
    total_loss = 0.0
    for shard_x, shard_t in shard_batch(x, target, dp_ways):
        fraction = shard_x.shape[0] / batch
        loss, grads = loss_and_grads(shard_x, shard_t)
        total_loss += loss * fraction
        for grad in grads:
            grad.weight *= fraction
            grad.bias *= fraction
        per_worker.append(grads)
    return total_loss, allreduce_grads(per_worker)


def dp_pp_loss_and_grads(
    model: MLP,
    x: np.ndarray,
    target: np.ndarray,
    dp_ways: int,
    num_stages: int,
    num_microbatches: int,
) -> Tuple[float, List[LayerParams]]:
    """Data parallelism over pipeline replicas (Figure 2's hierarchy).

    Each of the ``dp_ways`` workers runs the *pipelined* model over its
    batch shard; gradients all-reduce across replicas.  Equals serial
    full-batch training exactly.
    """
    return _data_parallel(x, target, dp_ways, lambda sx, st: (
        pp_loss_and_grads(model, sx, st, num_stages, num_microbatches)
    ))


def dp_rc_loss_and_grads(
    model: MLP,
    x: np.ndarray,
    target: np.ndarray,
    dp_ways: int,
    segment_size: int,
) -> Tuple[float, List[LayerParams]]:
    """Data parallelism over checkpointed replicas."""
    return _data_parallel(x, target, dp_ways, lambda sx, st: (
        rc_loss_and_grads(model, sx, st, segment_size)
    ))


def pp_rc_loss_and_grads(
    model: MLP,
    x: np.ndarray,
    target: np.ndarray,
    num_stages: int,
    num_microbatches: int,
    segment_size: int,
) -> Tuple[float, List[LayerParams]]:
    """Pipeline stages whose backward passes recompute activations.

    Forward keeps only each stage's *input* checkpoint per microbatch
    (the 1F1B memory regime with recomputation enabled); backward
    re-runs the stage forward in ``segment_size``-layer chunks before
    differentiating.
    """
    from .pipeline import split_stages

    batch = x.shape[0]
    if batch % num_microbatches:
        raise ValueError("batch not divisible into microbatches")
    spans = split_stages(model.num_layers, num_stages)
    size = batch // num_microbatches
    last = model.num_layers - 1
    grads: List[LayerParams] = [None] * model.num_layers
    total_loss = 0.0

    for m in range(num_microbatches):
        mb_x = x[m * size:(m + 1) * size]
        mb_t = target[m * size:(m + 1) * size]
        # Forward: store only per-stage input checkpoints.
        checkpoints = []
        h = mb_x
        for span in spans:
            checkpoints.append(h)
            lo, hi = span
            for i in range(lo, hi):
                layer = model.layers[i]
                h = h @ layer.weight + layer.bias
                if i != last:
                    h = relu_fwd(h)
        fraction = size / batch
        total_loss += mse_loss_fwd(h, mb_t) * fraction
        g = mse_loss_bwd(h, mb_t) * fraction
        # Backward per stage: recompute the stage from its checkpoint
        # in segments, then differentiate.
        for span, checkpoint in zip(reversed(spans), reversed(checkpoints)):
            lo, hi = span
            # Recompute and retain inputs for each layer of the stage
            # segment by segment (bounded extra memory).
            saved = [None] * (hi - lo)
            h_seg = checkpoint
            for seg_lo in range(lo, hi, segment_size):
                seg_hi = min(seg_lo + segment_size, hi)
                for i in range(seg_lo, seg_hi):
                    saved[i - lo] = h_seg
                    layer = model.layers[i]
                    h_seg = h_seg @ layer.weight + layer.bias
                    if i != last:
                        h_seg = relu_fwd(h_seg)
            for i in reversed(range(lo, hi)):
                xin = saved[i - lo]
                layer = model.layers[i]
                pre = xin @ layer.weight + layer.bias
                if i != last:
                    g = relu_bwd(pre, g)
                grad_w = xin.T @ g
                grad_b = g.sum(axis=0)
                if grads[i] is None:
                    grads[i] = LayerParams(grad_w, grad_b)
                else:
                    grads[i].weight += grad_w
                    grads[i].bias += grad_b
                g = g @ layer.weight.T
    return total_loss, grads


def dp_pp_rc_loss_and_grads(
    model: MLP,
    x: np.ndarray,
    target: np.ndarray,
    dp_ways: int,
    num_stages: int,
    num_microbatches: int,
    segment_size: int,
) -> Tuple[float, List[LayerParams]]:
    """The full hierarchy: dp replicas of a recomputing pipeline."""
    return _data_parallel(x, target, dp_ways, lambda sx, st: (
        pp_rc_loss_and_grads(
            model, sx, st, num_stages, num_microbatches, segment_size
        )
    ))
