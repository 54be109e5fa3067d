"""Simulated kernel profiler.

The paper profiles each operator 50 times on real GPUs under every
partition degree, plus collective times under every group size, and
stores the averages in a reusable database (§3.3, §5.3).  Without GPUs
we *simulate* that measurement: the ground-truth cost functions in
:mod:`repro.profiling.cost` play the hardware, and seeded multiplicative
noise plays measurement jitter.  A linear ``fixed + mbs * slope`` model
is then fitted from two microbatch sizes, exactly the kind of fit a
profile-and-interpolate planner performs.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, Optional

import numpy as np

from ..cluster.collectives import CollectiveCostModel
from ..cluster.topology import ClusterSpec
from ..ir.graph import OpGraph
from ..ir.ops import OpSpec
from .cost import op_bwd_time, op_fwd_time, op_signature
from .database import (
    CollectiveProfile,
    OpProfile,
    ProfileDatabase,
    tp_levels,
)

#: Microbatch sizes the linear time model is fitted from.
FIT_POINTS = (1, 9)
#: Byte sizes the collective alpha-beta model is fitted from.
COLLECTIVE_FIT_BYTES = (1 << 20, 64 << 20)


class SimulatedProfiler:
    """Builds :class:`ProfileDatabase` entries from simulated runs.

    Args:
        cluster: the hardware to profile on.
        seed: measurement-noise seed (deterministic database).
        repeats: averaged measurement count per data point (paper: 50).
        noise: relative std-dev of a single measurement.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        *,
        seed: int = 0,
        repeats: int = 50,
        noise: float = 0.03,
        parallel_workers: int = 1,
    ) -> None:
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        if noise < 0:
            raise ValueError("noise must be non-negative")
        if parallel_workers < 1:
            raise ValueError("parallel_workers must be >= 1")
        self.cluster = cluster
        self.seed = seed
        self.repeats = repeats
        self.noise = noise
        #: The paper runs operator profiling sequentially and names its
        #: parallelization as future work (§5.3); modelling N workers
        #: divides the simulated wall-clock accordingly.
        self.parallel_workers = parallel_workers
        self.profile_seconds = 0.0  # simulated device-time spent profiling

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def profile(
        self,
        graph: OpGraph,
        *,
        database: Optional[ProfileDatabase] = None,
    ) -> ProfileDatabase:
        """Profile every unique op of ``graph`` plus all collectives.

        Passing an existing ``database`` reuses its records (ops already
        profiled are skipped), reproducing the paper's cross-experiment
        database reuse.
        """
        max_tp = self.cluster.num_gpus
        if database is None:
            database = ProfileDatabase(max_tp=max_tp, precision=graph.precision)
        if database.precision != graph.precision:
            raise ValueError(
                f"database precision {database.precision!r} does not match "
                f"graph precision {graph.precision!r}"
            )
        self._profile_ops(graph, database)
        self._profile_collectives(database)
        return database

    @property
    def profile_wall_seconds(self) -> float:
        """Simulated wall-clock cost of the profiling performed so far.

        Sequential profiling (the paper's implementation) equals the
        accumulated device time; ``parallel_workers > 1`` models the
        paper's future-work parallelization with ideal scaling.
        """
        return self.profile_seconds / self.parallel_workers

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------
    def _profile_ops(self, graph: OpGraph, database: ProfileDatabase) -> None:
        unique: Dict[str, OpSpec] = {}
        for op in graph.arrays.class_ops:  # first op of each cost class
            unique.setdefault(op_signature(op), op)
        levels = tp_levels(database.max_tp)
        for signature, op in unique.items():
            if database.has_op(signature):
                continue
            database.ops[signature] = self._measure_op(
                op, graph.precision, levels, signature
            )

    def _measure_op(
        self,
        op: OpSpec,
        precision: str,
        levels: Iterable[int],
        signature: str,
    ) -> OpProfile:
        levels = list(levels)
        num_opts = op.num_partition_options
        shape = (len(levels), num_opts)
        fwd_fixed = np.zeros(shape)
        fwd_slope = np.zeros(shape)
        bwd_fixed = np.zeros(shape)
        bwd_slope = np.zeros(shape)
        rng = np.random.default_rng((self.seed, zlib.crc32(signature.encode())))
        lo, hi = FIT_POINTS
        for li, tp in enumerate(levels):
            for opt in range(num_opts):
                fwd_lo = self._measure(
                    op_fwd_time(op, self.cluster.device, precision, lo, tp, opt),
                    rng,
                )
                fwd_hi = self._measure(
                    op_fwd_time(op, self.cluster.device, precision, hi, tp, opt),
                    rng,
                )
                bwd_lo = self._measure(
                    op_bwd_time(op, self.cluster.device, precision, lo, tp, opt),
                    rng,
                )
                bwd_hi = self._measure(
                    op_bwd_time(op, self.cluster.device, precision, hi, tp, opt),
                    rng,
                )
                fwd_fixed[li, opt], fwd_slope[li, opt] = self._fit(
                    lo, fwd_lo, hi, fwd_hi
                )
                bwd_fixed[li, opt], bwd_slope[li, opt] = self._fit(
                    lo, bwd_lo, hi, bwd_hi
                )
        return OpProfile(
            fwd_fixed=fwd_fixed,
            fwd_slope=fwd_slope,
            bwd_fixed=bwd_fixed,
            bwd_slope=bwd_slope,
        )

    def _measure(self, true_time: float, rng: np.random.Generator) -> float:
        """Average of ``repeats`` noisy observations of ``true_time``."""
        jitter = rng.normal(0.0, self.noise, size=self.repeats)
        observed = true_time * (1.0 + jitter)
        self.profile_seconds += float(observed.sum())
        return float(observed.mean())

    @staticmethod
    def _fit(x0: float, y0: float, x1: float, y1: float) -> tuple:
        """Two-point linear fit clamped to non-negative coefficients."""
        slope = max(0.0, (y1 - y0) / (x1 - x0))
        fixed = max(0.0, y0 - slope * x0)
        return fixed, slope

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _profile_collectives(self, database: ProfileDatabase) -> None:
        model = CollectiveCostModel(self.cluster)
        levels = tp_levels(database.max_tp)
        rng = np.random.default_rng((self.seed, 0xC0))
        lo_b, hi_b = COLLECTIVE_FIT_BYTES

        def fit_kind(kind: str, timer) -> CollectiveProfile:
            latency = np.zeros(len(levels))
            inv_bw = np.zeros(len(levels))
            for li, group in enumerate(levels):
                if group == 1:
                    continue
                t_lo = self._measure(timer(lo_b, group), rng)
                t_hi = self._measure(timer(hi_b, group), rng)
                lat, slope = self._fit(lo_b, t_lo, hi_b, t_hi)
                latency[li] = lat
                inv_bw[li] = slope
            return CollectiveProfile(latency=latency, inv_bandwidth=inv_bw)

        if "allreduce" not in database.collectives:
            database.collectives["allreduce"] = fit_kind(
                "allreduce", model.allreduce_time
            )
        if "allgather" not in database.collectives:
            database.collectives["allgather"] = fit_kind(
                "allgather", model.allgather_time
            )
        if "p2p_intra" not in database.collectives:
            database.collectives["p2p_intra"] = self._fit_p2p(
                rng, self.cluster.intra_node, len(levels)
            )
        if "p2p_inter" not in database.collectives:
            database.collectives["p2p_inter"] = self._fit_p2p(
                rng, self.cluster.inter_node, len(levels)
            )

    def _fit_p2p(
        self, rng: np.random.Generator, link, num_levels: int
    ) -> CollectiveProfile:
        lo_b, hi_b = COLLECTIVE_FIT_BYTES
        t_lo = self._measure(link.transfer_time(lo_b), rng)
        t_hi = self._measure(link.transfer_time(hi_b), rng)
        lat, slope = self._fit(lo_b, t_lo, hi_b, t_hi)
        # p2p cost is group-size independent; replicate across levels so
        # CollectiveProfile.time(bytes, 2) works uniformly.
        return CollectiveProfile(
            latency=np.full(num_levels, lat),
            inv_bandwidth=np.full(num_levels, slope),
        )
