"""Whole-model parallel configuration.

A :class:`ParallelConfig` is exactly the paper's "configuration": a
pipeline partition of the op chain into stages with device counts, a
global (aggregated) microbatch size, and per-op tensor/data degrees,
partition dimensions, and recompute flags.  It can express every plan
Megatron-LM or Alpa emits (§3.1 "Configuration representation") plus
the op-level refinements only Aceso reaches.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

import numpy as np

from .stage import StageConfig


@dataclass
class ParallelConfig:
    """One point in Aceso's search space.

    Attributes:
        stages: pipeline stages in order; spans must tile the op chain.
        microbatch_size: aggregated samples per microbatch (shared by
            every stage; a stage's per-GPU share is ``mbs / dp``).
    """

    stages: List[StageConfig]
    microbatch_size: int = 1
    _signature: str = field(default="", repr=False, compare=False)
    _cache_key: bytes = field(default=b"", repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("configuration needs at least one stage")
        if self.microbatch_size < 1:
            raise ValueError("microbatch_size must be positive")

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def num_ops(self) -> int:
        return self.stages[-1].end - self.stages[0].start

    @property
    def total_devices(self) -> int:
        return sum(stage.num_devices for stage in self.stages)

    def num_microbatches(self, global_batch_size: int) -> int:
        """Microbatches per iteration for a given global batch."""
        if global_batch_size % self.microbatch_size:
            raise ValueError(
                f"batch {global_batch_size} not divisible by microbatch "
                f"{self.microbatch_size}"
            )
        return global_batch_size // self.microbatch_size

    def stage_of_op(self, op_index: int) -> int:
        """Stage index owning global op ``op_index``."""
        for i, stage in enumerate(self.stages):
            if stage.start <= op_index < stage.end:
                return i
        raise IndexError(f"op {op_index} not covered by any stage")

    def stage_first_device(self, stage_index: int) -> int:
        """First global device id of a stage under contiguous placement."""
        return sum(s.num_devices for s in self.stages[:stage_index])

    # ------------------------------------------------------------------
    # copying / identity
    # ------------------------------------------------------------------
    def clone(self) -> "ParallelConfig":
        """Deep copy; the cached signature is dropped."""
        return ParallelConfig(
            stages=[stage.clone() for stage in self.stages],
            microbatch_size=self.microbatch_size,
        )

    def mutated_copy(
        self, dirty_stages: Iterable[int] = ()
    ) -> "ParallelConfig":
        """Copy that deep-copies only ``dirty_stages``.

        Clean stages are *shared by reference* with this config, which
        keeps their cached signatures/digests (and therefore the
        performance model's per-stage cost cache) valid in the copy.
        Callers must only mutate the stages they declared dirty.
        """
        dirty = set(dirty_stages)
        return ParallelConfig(
            stages=[
                stage.clone() if i in dirty else stage
                for i, stage in enumerate(self.stages)
            ],
            microbatch_size=self.microbatch_size,
        )

    def with_recompute(
        self, stage_index: int, recompute, digest=None
    ) -> "ParallelConfig":
        """:meth:`StageConfig.with_recompute` of one stage; the other
        stages are shared as in :meth:`mutated_copy`."""
        stages = list(self.stages)
        stages[stage_index] = stages[stage_index].with_recompute(
            recompute, digest
        )
        return ParallelConfig(
            stages=stages, microbatch_size=self.microbatch_size
        )

    def signature(self) -> str:
        """Stable hex hash of the configuration's full serialization.

        Two configurations that apply the same settings to the same op
        spans hash identically even when reached via different primitive
        sequences.  It serializes every op of every stage, so the search
        never calls it (dedup keys on :meth:`cache_key`); it identifies
        plans in reports, and the executor seeds its measurement noise
        from its exact value.
        """
        if not self._signature:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(
                np.array([self.microbatch_size], dtype=np.int64).tobytes()
            )
            for stage in self.stages:
                digest.update(stage.signature_bytes())
            self._signature = digest.hexdigest()
        return self._signature

    def cache_key(self) -> bytes:
        """Identity key for deduplication (§4.3) and memoization.

        Semantically equivalent to :meth:`signature` (two configs get
        the same key iff they apply the same settings to the same op
        spans) but composed from the stages' cached 16-byte digests
        instead of their full array serializations, so computing it
        hashes ~100 bytes rather than kilobytes.  Kept separate from
        :meth:`signature` on purpose: the executor seeds its measurement
        noise from the signature's exact value, so the signature's byte
        layout is load-bearing and must not change, while this key only
        needs to be unique.
        """
        if not self._cache_key:
            self._cache_key = config_key(
                self.microbatch_size, [stage.digest() for stage in self.stages]
            )
        return self._cache_key

    # ------------------------------------------------------------------
    # whole-model array views (used by the performance model)
    # ------------------------------------------------------------------
    def gather_arrays(self):
        """Concatenate per-stage op arrays over the whole model.

        Returns ``(tp, dp, tp_dim, recompute, stage_id)`` numpy arrays,
        each with one entry per op in global op order.
        """
        tp = np.concatenate([s.tp for s in self.stages])
        dp = np.concatenate([s.dp for s in self.stages])
        tp_dim = np.concatenate([s.tp_dim for s in self.stages])
        recompute = np.concatenate([s.recompute for s in self.stages])
        stage_id = np.concatenate(
            [np.full(s.num_ops, i, dtype=np.int64)
             for i, s in enumerate(self.stages)]
        )
        return tp, dp, tp_dim, recompute, stage_id

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Compact multi-line human summary of the plan."""
        lines = [
            f"{self.num_stages}-stage pipeline, microbatch={self.microbatch_size}"
        ]
        for i, stage in enumerate(self.stages):
            tps = np.unique(stage.tp)
            dps = np.unique(stage.dp)
            rc = int(stage.recompute.sum())
            tp_text = str(tps[0]) if len(tps) == 1 else f"{{{','.join(map(str, tps))}}}"
            dp_text = str(dps[0]) if len(dps) == 1 else f"{{{','.join(map(str, dps))}}}"
            lines.append(
                f"  stage {i}: ops [{stage.start}, {stage.end}) on "
                f"{stage.num_devices} GPUs, tp={tp_text}, dp={dp_text}, "
                f"recompute {rc}/{stage.num_ops} ops"
            )
        return "\n".join(lines)

    def summary_tuple(self):
        """Hashable compact summary (stage spans + device counts)."""
        return tuple(
            (s.start, s.end, s.num_devices) for s in self.stages
        ) + (self.microbatch_size,)


def config_key(microbatch_size: int, digests: List[bytes]) -> bytes:
    """:meth:`ParallelConfig.cache_key` of a config with this microbatch
    size and these stage digests, in stage order."""
    mbs = int(microbatch_size).to_bytes(8, "little", signed=True)
    return hashlib.blake2b(mbs + b"".join(digests), digest_size=16).digest()


def changed_stages(
    new: ParallelConfig, old: ParallelConfig
) -> Tuple[int, ...]:
    """Stage indices of ``new`` that differ from ``old``.

    Relies on the copy-on-write discipline of
    :meth:`ParallelConfig.mutated_copy`: a stage object shared by
    identity between the two configs is by construction unchanged.
    When the stage counts differ every stage of ``new`` is reported.
    """
    if new.num_stages != old.num_stages:
        return tuple(range(new.num_stages))
    return tuple(
        i
        for i, (a, b) in enumerate(zip(new.stages, old.stages))
        if a is not b
    )
