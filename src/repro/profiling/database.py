"""Persistable profile database and its vectorized per-graph view.

The database maps *op signatures* to linear time models measured per
tensor-parallel degree, plus collective-communication coefficients per
group size.  ``ProfiledGraph`` gathers a graph's records into dense
numpy arrays so a configuration can be costed with a few vectorized
gathers — the property that lets Aceso evaluate thousands of
configurations per second (§3.3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from ..ir.graph import OpGraph
from .cost import op_signature


def tp_level_index(tp: int) -> int:
    """Index of power-of-two degree ``tp`` into profile arrays."""
    if tp < 1 or tp & (tp - 1):
        raise ValueError(f"tp must be a power of two, got {tp}")
    return tp.bit_length() - 1


def tp_levels(max_tp: int) -> List[int]:
    """All power-of-two degrees up to and including ``max_tp``."""
    if max_tp < 1:
        raise ValueError("max_tp must be positive")
    return [1 << i for i in range(max_tp.bit_length())]


@dataclass
class OpProfile:
    """Linear time model of one op: ``time(mbs) = fixed + mbs * slope``.

    Arrays are indexed ``[tp_level, partition_option]``.
    """

    fwd_fixed: np.ndarray
    fwd_slope: np.ndarray
    bwd_fixed: np.ndarray
    bwd_slope: np.ndarray

    def __post_init__(self) -> None:
        shape = self.fwd_fixed.shape
        for arr in (self.fwd_slope, self.bwd_fixed, self.bwd_slope):
            if arr.shape != shape:
                raise ValueError("OpProfile arrays must share one shape")

    @property
    def num_tp_levels(self) -> int:
        return int(self.fwd_fixed.shape[0])

    @property
    def num_options(self) -> int:
        return int(self.fwd_fixed.shape[1])

    def to_json(self) -> dict:
        return {
            "fwd_fixed": self.fwd_fixed.tolist(),
            "fwd_slope": self.fwd_slope.tolist(),
            "bwd_fixed": self.bwd_fixed.tolist(),
            "bwd_slope": self.bwd_slope.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "OpProfile":
        return cls(
            fwd_fixed=np.asarray(data["fwd_fixed"], dtype=np.float64),
            fwd_slope=np.asarray(data["fwd_slope"], dtype=np.float64),
            bwd_fixed=np.asarray(data["bwd_fixed"], dtype=np.float64),
            bwd_slope=np.asarray(data["bwd_slope"], dtype=np.float64),
        )


@dataclass
class CollectiveProfile:
    """alpha-beta fit of one collective kind per group-size level.

    ``time(bytes, group) = latency[level(group)] + bytes * inv_bw[...]``.
    """

    latency: np.ndarray
    inv_bandwidth: np.ndarray

    def time(self, num_bytes: float, group_size: int) -> float:
        if group_size <= 1 or num_bytes <= 0:
            return 0.0
        level = tp_level_index(group_size)
        if level >= len(self.latency):
            raise ValueError(
                f"group size {group_size} exceeds profiled range"
            )
        return float(
            self.latency[level] + num_bytes * self.inv_bandwidth[level]
        )

    def to_json(self) -> dict:
        return {
            "latency": self.latency.tolist(),
            "inv_bandwidth": self.inv_bandwidth.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CollectiveProfile":
        return cls(
            latency=np.asarray(data["latency"], dtype=np.float64),
            inv_bandwidth=np.asarray(data["inv_bandwidth"], dtype=np.float64),
        )


@dataclass
class ProfileDatabase:
    """All profiled measurements for one (cluster, precision) pair.

    The database is keyed by op *signature*, so it is reusable across
    models sharing operators and across searches over the same model —
    the paper's "profiled database can be reused" property (§3.3).
    """

    max_tp: int
    precision: str
    ops: Dict[str, OpProfile] = field(default_factory=dict)
    collectives: Dict[str, CollectiveProfile] = field(default_factory=dict)

    def has_op(self, signature: str) -> bool:
        return signature in self.ops

    def lookup(self, signature: str) -> OpProfile:
        try:
            return self.ops[signature]
        except KeyError:
            raise KeyError(
                f"op signature not profiled: {signature[:60]}..."
            ) from None

    def collective(self, kind: str) -> CollectiveProfile:
        try:
            return self.collectives[kind]
        except KeyError:
            raise KeyError(f"collective not profiled: {kind!r}") from None

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    def save(self, path: Union[str, Path]) -> None:
        """Persist as JSON (the paper's reusable profile database)."""
        payload = {
            "max_tp": self.max_tp,
            "precision": self.precision,
            "ops": {k: v.to_json() for k, v in self.ops.items()},
            "collectives": {
                k: v.to_json() for k, v in self.collectives.items()
            },
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ProfileDatabase":
        payload = json.loads(Path(path).read_text())
        return cls(
            max_tp=payload["max_tp"],
            precision=payload["precision"],
            ops={
                k: OpProfile.from_json(v)
                for k, v in payload["ops"].items()
            },
            collectives={
                k: CollectiveProfile.from_json(v)
                for k, v in payload["collectives"].items()
            },
        )


class ProfiledGraph:
    """Dense per-op profile arrays for one graph.

    Indexing: ``fwd_fixed[op, tp_level, option]`` etc.  Row ``op`` is
    ``database.lookup(op_signature(op))``, its options beyond the op's
    real option count repeating its last option (same padding as
    :class:`~repro.ir.graph.GraphArrays`).  Rows are looked up once per
    cost class and gathered to the ops.
    """

    __slots__ = (
        "graph",
        "database",
        "fwd_fixed",
        "fwd_slope",
        "bwd_fixed",
        "bwd_slope",
    )

    def __init__(self, graph: OpGraph, database: ProfileDatabase) -> None:
        self.graph = graph
        self.database = database
        arrays = graph.arrays
        options = np.arange(arrays.fwd_comm_numel.shape[1])
        records = [database.lookup(op_signature(op)) for op in arrays.class_ops]
        pads = [np.minimum(options, r.num_options - 1) for r in records]

        def gather(tables) -> np.ndarray:
            rows = np.stack([t[:, pad] for t, pad in zip(tables, pads)])
            table = rows.take(arrays.op_class, axis=0)
            table.setflags(write=False)
            return table

        self.fwd_fixed = gather([r.fwd_fixed for r in records])
        self.fwd_slope = gather([r.fwd_slope for r in records])
        self.bwd_fixed = gather([r.bwd_fixed for r in records])
        self.bwd_slope = gather([r.bwd_slope for r in records])

    @property
    def num_tp_levels(self) -> int:
        return int(self.fwd_fixed.shape[1])
