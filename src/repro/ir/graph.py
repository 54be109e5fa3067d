"""Sequential operator graph and its vectorized view.

Aceso (like Megatron-LM and Alpa's pipeline level) treats the model as a
sequential chain of operators that pipeline stages partition into
contiguous spans.  ``OpGraph`` holds the chain plus model-level training
metadata; ``GraphArrays`` caches per-op quantities as numpy arrays so the
performance model can evaluate thousand-op models in microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .ops import OpSpec
from .tensor import dtype_bytes


@dataclass
class OpGraph:
    """A DNN model as a sequential chain of :class:`OpSpec`.

    Attributes:
        name: model identifier, e.g. ``"gpt3-1.3b"``.
        ops: the operator chain in execution order.
        precision: training dtype of weights/activations.
        global_batch_size: samples per training iteration.
        optimizer_bytes_per_param: bytes of optimizer + master + gradient
            state kept per parameter (Adam mixed precision ~= 16).
        layer_spans: optional (start, end) op-index spans marking the
            model's "layers" (used by layer-grouping baselines).
    """

    name: str
    ops: List[OpSpec]
    precision: str = "fp16"
    global_batch_size: int = 1024
    optimizer_bytes_per_param: int = 16
    layer_spans: List[Tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("OpGraph requires at least one op")
        if self.global_batch_size < 1:
            raise ValueError("global_batch_size must be positive")
        dtype_bytes(self.precision)  # validate
        self._arrays: "GraphArrays" = None  # type: ignore[assignment]
        # move_ops' relay table (repro.core.apply), never pickled.
        self.relay_stages = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "relay_stages": None}

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[OpSpec]:
        return iter(self.ops)

    def __getitem__(self, index: int) -> OpSpec:
        return self.ops[index]

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    @property
    def elem_bytes(self) -> int:
        """Bytes per activation/weight element at the model precision."""
        return dtype_bytes(self.precision)

    @property
    def total_params(self) -> int:
        """Total parameter element count."""
        return int(self.arrays.params.sum())

    @property
    def total_fwd_flops_per_sample(self) -> float:
        """Forward FLOPs for one sample through the whole model."""
        return float(self.arrays.flops.sum())

    @property
    def total_train_flops_per_sample(self) -> float:
        """Forward + backward FLOPs for one sample (no recomputation)."""
        return float(self.arrays.flops.sum() + self.arrays.bwd_flops.sum())

    @property
    def num_layers(self) -> int:
        """Number of declared layer spans (0 when none were declared)."""
        return len(self.layer_spans)

    @property
    def arrays(self) -> "GraphArrays":
        """The cached vectorized view (built lazily, immutable)."""
        if self._arrays is None:
            self._arrays = GraphArrays(self.ops)
        return self._arrays

    def op_index(self, name: str) -> int:
        """Return the index of the (first) op called ``name``."""
        for i, op in enumerate(self.ops):
            if op.name == name:
                return i
        raise KeyError(f"no op named {name!r} in graph {self.name!r}")

    def describe(self) -> str:
        """One-line human summary."""
        params_b = self.total_params / 1e9
        return (
            f"{self.name}: {self.num_ops} ops, {self.num_layers} layers, "
            f"{params_b:.2f}B params, {self.precision}, "
            f"batch={self.global_batch_size}"
        )


#: The :class:`OpSpec` fields that decide an op's cost: all but its name.
COST_FIELDS = tuple(f.name for f in fields(OpSpec) if f.name != "name")
_cost_key = attrgetter(*COST_FIELDS)


class GraphArrays:
    """Immutable numpy views over per-op quantities of an op chain.

    Indexing convention: every array has one entry per op, in op order.
    Partition-option-dependent arrays are 2-D ``(num_ops, max_options)``,
    padded with the last valid option.

    Ops equal in every :data:`COST_FIELDS` value form one *cost class*
    (a 1,000-layer GPT has about ten).  ``class_ops`` holds the first op
    of each class in order of first appearance and ``op_class`` each
    op's class, so every per-op table is a gather of per-class rows.
    ``kind_code`` is each op's index into the sorted distinct kinds.
    """

    __slots__ = (
        "flops", "bwd_flops", "params", "out_numel", "saved_numel",
        "max_tp", "num_options", "fwd_comm_numel", "bwd_comm_numel",
        "shards_output", "kind_code", "op_class", "class_ops",
    )

    def __init__(self, ops: Sequence[OpSpec]) -> None:
        classes: Dict[tuple, int] = {}
        self.op_class = np.fromiter(
            (classes.setdefault(_cost_key(op), len(classes)) for op in ops),
            dtype=np.int64,
            count=len(ops),
        )
        self.op_class.setflags(write=False)
        _, first = np.unique(self.op_class, return_index=True)
        reps = self.class_ops = tuple(ops[i] for i in first)
        max_opts = max(op.num_partition_options for op in reps)
        padded = [
            [op.partition_options[min(j, op.num_partition_options - 1)]
             for j in range(max_opts)]
            for op in reps
        ]
        kinds = sorted({op.kind for op in reps})

        def gather(rows, dtype) -> np.ndarray:
            table = np.array(rows, dtype=dtype).take(self.op_class, axis=0)
            table.setflags(write=False)
            return table

        f64 = np.float64
        self.flops = gather([op.flops for op in reps], f64)
        self.bwd_flops = gather([op.bwd_flops for op in reps], f64)
        self.params = gather([op.params for op in reps], f64)
        self.out_numel = gather([op.out_numel for op in reps], f64)
        self.saved_numel = gather([op.saved_numel for op in reps], f64)
        self.max_tp = gather([op.max_tp for op in reps], np.int64)
        self.num_options = gather(
            [op.num_partition_options for op in reps], np.int64
        )
        self.fwd_comm_numel = gather(
            [[o.fwd_comm_numel for o in row] for row in padded], f64
        )
        self.bwd_comm_numel = gather(
            [[o.bwd_comm_numel for o in row] for row in padded], f64
        )
        self.shards_output = gather(
            [[o.shards_output for o in row] for row in padded], bool
        )
        self.kind_code = gather([kinds.index(op.kind) for op in reps], np.int64)

    @property
    def num_ops(self) -> int:
        return int(self.flops.shape[0])
