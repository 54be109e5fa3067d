"""Per-stage parallel configuration.

A pipeline stage owns a contiguous op span ``[start, end)`` and a device
count, and stores *per-op* parallel settings as numpy arrays (tensor
degree, data degree, partition-dimension index, recompute flag).  The
array layout is what lets the performance model cost 1K-layer
configurations with vectorized gathers, and what keeps primitive
application (copy + slice assignment) cheap during search.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    return value >= 1 and (value & (value - 1)) == 0


@dataclass
class StageConfig:
    """Configuration of one pipeline stage.

    Attributes:
        start: first op index (inclusive).
        end: last op index (exclusive).
        num_devices: GPUs assigned to this stage.
        tp: per-op tensor-parallel degree, shape ``(end - start,)``.
        dp: per-op data-parallel degree; ``tp * dp == num_devices``.
        tp_dim: per-op partition-option index.
        recompute: per-op recomputation flag.
    """

    start: int
    end: int
    num_devices: int
    tp: np.ndarray
    dp: np.ndarray
    tp_dim: np.ndarray
    recompute: np.ndarray
    # Lazily computed identity caches.  A stage is semantically frozen
    # once it has been costed/hashed; the mutation helpers that are
    # allowed to edit arrays in place reset these (see
    # ``_invalidate_signature``), and ``clone()`` never copies them.
    _sig_bytes: Optional[bytes] = field(
        default=None, repr=False, compare=False
    )
    _sig_digest: Optional[bytes] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def uniform(
        cls,
        start: int,
        end: int,
        num_devices: int,
        *,
        tp: int = 1,
        tp_dim: int = 0,
        recompute: bool = False,
    ) -> "StageConfig":
        """Build a stage where every op shares one (tp, dp) setting."""
        if end <= start:
            raise ValueError(f"empty stage span [{start}, {end})")
        if not is_power_of_two(num_devices):
            raise ValueError(f"num_devices must be a power of two: {num_devices}")
        if not is_power_of_two(tp) or tp > num_devices:
            raise ValueError(f"invalid tp={tp} for {num_devices} devices")
        n = end - start
        return cls(
            start=start,
            end=end,
            num_devices=num_devices,
            tp=np.full(n, tp, dtype=np.int64),
            dp=np.full(n, num_devices // tp, dtype=np.int64),
            tp_dim=np.full(n, tp_dim, dtype=np.int64),
            recompute=np.full(n, recompute, dtype=bool),
        )

    def __post_init__(self) -> None:
        n = self.end - self.start
        for name in ("tp", "dp", "tp_dim", "recompute"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(
                    f"stage array {name!r} has shape {arr.shape}, "
                    f"expected ({n},)"
                )

    @property
    def num_ops(self) -> int:
        return self.end - self.start

    @property
    def op_indices(self) -> range:
        return range(self.start, self.end)

    def clone(self) -> "StageConfig":
        """Deep copy (arrays copied so mutations stay local)."""
        return StageConfig(
            start=self.start,
            end=self.end,
            num_devices=self.num_devices,
            tp=self.tp.copy(),
            dp=self.dp.copy(),
            tp_dim=self.tp_dim.copy(),
            recompute=self.recompute.copy(),
        )

    def slice_arrays(self, lo: int, hi: int) -> "StageConfig":
        """New stage covering local op range ``[lo, hi)`` of this one."""
        if not 0 <= lo < hi <= self.num_ops:
            raise ValueError(f"bad local slice [{lo}, {hi})")
        return StageConfig(
            start=self.start + lo,
            end=self.start + hi,
            num_devices=self.num_devices,
            tp=self.tp[lo:hi].copy(),
            dp=self.dp[lo:hi].copy(),
            tp_dim=self.tp_dim[lo:hi].copy(),
            recompute=self.recompute[lo:hi].copy(),
        )

    def set_uniform_parallel(self, tp: int) -> None:
        """Reset every op to degree ``tp`` (dp follows)."""
        if not is_power_of_two(tp) or tp > self.num_devices:
            raise ValueError(f"invalid tp={tp} for {self.num_devices} devices")
        self.tp[:] = tp
        self.dp[:] = self.num_devices // tp
        self._invalidate_signature()

    def _invalidate_signature(self) -> None:
        """Drop cached identity after an in-place mutation."""
        self._sig_bytes = None
        self._sig_digest = None

    def with_devices(self, num_devices: int) -> "StageConfig":
        """Copy with a new device count, rescaling per-op dp.

        Ops keep their tensor degree when it still fits; ops whose tp
        exceeds the new device count are clamped down to it.
        """
        if not is_power_of_two(num_devices):
            raise ValueError(f"num_devices must be a power of two: {num_devices}")
        stage = self.clone()
        stage.num_devices = num_devices
        np.minimum(stage.tp, num_devices, out=stage.tp)
        stage.dp = num_devices // stage.tp
        return stage

    def signature_bytes(self) -> bytes:
        """Raw bytes identifying this stage's semantics (for hashing)."""
        if self._sig_bytes is None:
            header = np.array(
                [self.start, self.end, self.num_devices], dtype=np.int64
            )
            self._sig_bytes = b"".join(
                (
                    header.tobytes(),
                    self.tp.tobytes(),
                    self.dp.tobytes(),
                    self.tp_dim.tobytes(),
                    self.recompute.tobytes(),
                )
            )
        return self._sig_bytes

    def digest(self) -> bytes:
        """16-byte stable hash of :meth:`signature_bytes` (cached)."""
        if self._sig_digest is None:
            self._sig_digest = hashlib.blake2b(
                self.signature_bytes(), digest_size=16
            ).digest()
        return self._sig_digest

    def base_digest(self) -> bytes:
        """Like :meth:`digest`, but blind to the recompute flags."""
        sig = self.signature_bytes()  # recompute flags come last
        return hashlib.blake2b(
            memoryview(sig)[:len(sig) - self.recompute.nbytes], digest_size=16
        ).digest()
