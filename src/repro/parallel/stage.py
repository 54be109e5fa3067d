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
from typing import List, Optional

import numpy as np


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    return value >= 1 and (value & (value - 1)) == 0


def powers_of_two(limit: int) -> List[int]:
    """The powers of two from 1 up to ``limit``, ascending."""
    return [1 << k for k in range(max(limit, 0).bit_length())]


def stage_digest(base_digest: bytes, recompute: np.ndarray) -> bytes:
    """:meth:`StageConfig.digest` of a stage with this base digest and
    these recompute flags."""
    digest = hashlib.blake2b(base_digest, digest_size=16)
    digest.update(np.packbits(recompute))
    return digest.digest()


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
    # Neither is pickled.
    _base_digest: Optional[bytes] = field(
        default=None, repr=False, compare=False
    )
    _digest: Optional[bytes] = field(
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

    def __getstate__(self) -> dict:
        """Pickle without identity caches, and with writable copies of
        read-only arrays (:meth:`with_recompute`, relayed stages): a
        stage sent through a worker-pool pipe re-hashes on first use and
        shares nothing with the stages sent beside it."""
        state = self.__dict__.copy()
        state.update(_base_digest=None, _digest=None)
        for name in ("tp", "dp", "tp_dim", "recompute"):
            if not state[name].flags.writeable:
                state[name] = state[name].copy()
        return state

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

    def with_recompute(self, recompute, digest=None) -> "StageConfig":
        """This stage with recompute flags ``recompute``: a bool array
        the new stage takes over (the caller writes it no more), or one
        flag for every op.  The new stage shares this stage's tp, dp and
        tp_dim arrays and base digest, and the shared arrays become
        read-only: a write through either stage raises instead of
        leaving the other with a stale digest (:meth:`clone` copies).
        ``digest``, when given, is the new stage's :meth:`digest`
        (``stage_digest`` of the base digest and ``recompute``)."""
        if np.ndim(recompute) == 0:
            recompute = np.full(self.num_ops, recompute, dtype=bool)
        for values in (self.tp, self.dp, self.tp_dim):
            values.flags.writeable = False
        stage = StageConfig(
            self.start, self.end, self.num_devices,
            self.tp, self.dp, self.tp_dim, recompute,
        )
        stage._base_digest, stage._digest = self.base_digest(), digest
        return stage

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
        self._base_digest = None
        self._digest = None

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

    def _header_bytes(self) -> bytes:
        return np.array(
            [self.start, self.end, self.num_devices], dtype=np.int64
        ).tobytes()

    def signature_bytes(self) -> bytes:
        """Raw bytes identifying this stage's semantics (for hashing)."""
        return b"".join((
            self._header_bytes(),
            self.tp.tobytes(),
            self.dp.tobytes(),
            self.tp_dim.tobytes(),
            self.recompute.tobytes(),
        ))

    def digest(self) -> bytes:
        """16-byte stable hash: :meth:`base_digest` then the recompute
        flags, one bit each (cached; the header fixes the op count, so
        the last byte's padding bits are unambiguous)."""
        if self._digest is None:
            self._digest = stage_digest(self.base_digest(), self.recompute)
        return self._digest

    def base_digest(self) -> bytes:
        """Like :meth:`digest`, but blind to the recompute flags (cached):
        SHA-256 of the header and the tp, dp and tp_dim values, cut to
        16 bytes.  The values are hashed one byte each when all lie in
        [0, 255] and as int64 otherwise; the header fixes the op count,
        so the payload's length (3 or 24 bytes per op) tells the two
        encodings apart.
        """
        if self._base_digest is None:
            digest = hashlib.sha256(self._header_bytes())
            tp, dp, tp_dim = self.tp, self.dp, self.tp_dim
            # Nonzero for any value outside [0, 255], negatives too.
            wide = np.count_nonzero((tp | dp | tp_dim) >> 8)
            for values in (tp, dp, tp_dim):
                digest.update(
                    values.tobytes() if wide else values.astype(np.uint8)
                )
            self._base_digest = digest.digest()[:16]
        return self._base_digest
