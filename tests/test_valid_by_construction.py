"""The search's candidate generators emit only valid configurations.

The search builds every candidate through the Table 1 appliers
(``core.primitives.primitive_applier`` of each ``PRIMITIVE_TABLE``
row), multi-hop chains of them and the two fine-tune passes, and
prices candidates without a structure check.
These properties are what lets it skip the check: over random
``ir.models.synthetic`` graphs, on single-node clusters of 2, 4 and 8
GPUs and on a mixed-memory cluster whose small devices force OOM
bottlenecks, from random valid start configurations, every candidate
those generators produce gives ``analyze_structure(...) == []``.

Start configurations are ``balanced_config`` or
``imbalanced_gpu_config`` layouts with 1-8 stages, a microbatch size
drawn from every divisor of the global batch, and per-op dp, tp,
partition options and recompute flags varied within what is valid.

A counterexample is a bug in a primitive: fix the primitive.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DeviceSpec, mixed_cluster, single_node, v100
from repro.core.apply import ApplyContext, move_ops
from repro.core.bottleneck import rank_bottlenecks
from repro.core.dedup import UnexploredPool, VisitedSet
from repro.core.finetune import finetune
from repro.core.multihop import MultiHopSearcher
from repro.core.primitives import PRIMITIVE_TABLE, primitive_applier
from repro.ir.models.synthetic import build_synthetic
from repro.lint.config_rules import analyze_structure
from repro.parallel import balanced_config, imbalanced_gpu_config
from repro.perfmodel.model import build_perf_model

_CLUSTERS = ("single-2", "single-4", "single-8", "mixed-8")
_BATCHES = (48, 64)


@functools.lru_cache(maxsize=None)
def _cluster(name: str):
    if name == "mixed-8":
        # One node of 32 GiB devices, one of 6 MiB devices: the random
        # graphs peak at 4-9 MiB per stage, so the small node's stages
        # are often OOM bottlenecks.
        small = DeviceSpec(name="small-6MiB", memory_bytes=6 * 2**20)
        return mixed_cluster([v100(), small], gpus_per_node=4,
                             reference=v100())
    return single_node(int(name.split("-")[1]))


@functools.lru_cache(maxsize=None)
def _problem(cluster_name: str, seed: int, num_ops: int, batch: int):
    graph = build_synthetic(num_ops, seed=seed, batch_size=batch)
    cluster = _cluster(cluster_name)
    return graph, cluster, build_perf_model(graph, cluster)


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


class Start:
    """A valid start configuration on its problem; its repr is the
    draw that rebuilds it, so a shrunk counterexample reads short."""

    def __init__(self, graph, cluster, perf_model, config, label: str):
        self.graph, self.cluster = graph, cluster
        self.perf_model, self.config = perf_model, config
        self.label = label

    def __iter__(self):
        return iter((self.graph, self.cluster, self.perf_model, self.config))

    def __repr__(self) -> str:
        return self.label


@st.composite
def starts(draw):
    """A :class:`Start`, unpacking to ``(graph, cluster, perf_model,
    config)``."""
    cluster_name = draw(st.sampled_from(_CLUSTERS))
    batch = draw(st.sampled_from(_BATCHES))
    seed = draw(st.integers(0, 3))
    num_ops = draw(st.sampled_from([16, 40]))
    graph, cluster, perf_model = _problem(cluster_name, seed, num_ops, batch)
    num_stages = draw(st.integers(1, min(8, cluster.num_gpus)))
    layout = draw(st.sampled_from([balanced_config, imbalanced_gpu_config]))
    mbs = draw(st.sampled_from(_divisors(batch)))
    config = layout(graph, cluster, num_stages, microbatch_size=mbs)
    # Every divisor is a valid microbatch only if each op's dp divides
    # it: dp is drawn as a power of two up to mbs's lowest set bit.
    rng_seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(rng_seed)
    max_dp = config.microbatch_size & -config.microbatch_size
    options = graph.arrays.num_options
    for stage in config.stages:
        n = stage.num_devices
        top = int(np.log2(min(n, max_dp)))
        stage.dp[:] = 2 ** rng.integers(0, top + 1, stage.num_ops)
        stage.tp[:] = n // stage.dp
        stage.tp_dim[:] = rng.integers(0, options[stage.start:stage.end])
        stage.recompute[:] = rng.random(stage.num_ops) < 0.3
    assert analyze_structure(config, graph, cluster) == []
    label = (
        f"{cluster_name}, synthetic({num_ops}, seed={seed}, batch={batch}),"
        f" {layout.__name__}({num_stages}, mbs={mbs}), rng={rng_seed}:"
        f" devices {[s.num_devices for s in config.stages]},"
        f" dp {[s.dp.tolist() for s in config.stages]}"
    )
    return Start(graph, cluster, perf_model, config, label)


def _assert_valid(config, graph, cluster, what: str) -> None:
    diagnostics = analyze_structure(config, graph, cluster)
    assert diagnostics == [], f"{what}: {diagnostics[0].message}"


@settings(deadline=None)
@given(start=starts(), attach_recompute=st.booleans())
def test_builtin_appliers_emit_valid_candidates(start, attach_recompute):
    """Every built-in applier, with the bottleneck on each stage."""
    graph, cluster, perf_model, config = start
    report = perf_model.estimate(config)
    for bottleneck in rank_bottlenecks(report):
        ctx = ApplyContext(
            graph=graph,
            cluster=cluster,
            perf_model=perf_model,
            config=config,
            report=report,
            bottleneck=bottleneck,
            attach_recompute=attach_recompute,
        )
        for spec in PRIMITIVE_TABLE:
            name = spec.name
            for candidate in primitive_applier(name)(ctx):
                _assert_valid(
                    candidate, graph, cluster,
                    f"{name} on stage {bottleneck.stage}",
                )


@contextlib.contextmanager
def _pricing_checked(perf_model, graph, cluster, what: str):
    """Check every config ``perf_model`` prices while the block runs.

    Wraps the instance's ``estimate``/``objective`` and their batch
    forms, so intermediate configs are checked, not only returned ones.
    """
    def wrap(name):
        original = getattr(perf_model, name)

        def checked(configs, *args, **kwargs):
            for config in configs if name.endswith("_batch") else [configs]:
                _assert_valid(config, graph, cluster, f"{what} {name}")
            return original(configs, *args, **kwargs)

        return checked

    names = ("estimate", "objective", "estimate_batch", "objective_batch")
    for name in names:
        setattr(perf_model, name, wrap(name))
    try:
        yield
    finally:
        for name in names:
            delattr(perf_model, name)


@settings(deadline=None)
@given(start=starts())
def test_move_ops_never_empties_a_stage(start):
    """The op-movement primitive returns ``None``, not an invalid
    config, for every stage pair and any count, including counts the
    appliers' ladder (``op_move_counts``) never asks for."""
    graph, cluster, _, config = start
    n = config.num_stages
    for src in range(n):
        for dst in range(n):
            for count in range(1, config.stages[src].num_ops + 1):
                moved = move_ops(config, graph, src, dst, count)
                if moved is not None:
                    _assert_valid(
                        moved, graph, cluster,
                        f"move_ops {src}->{dst} x{count}",
                    )


@settings(deadline=None)
@given(start=starts(), attach_recompute=st.booleans())
def test_multihop_and_finetune_price_only_valid_configs(
    start, attach_recompute
):
    """Every config multi-hop and both fine-tune passes price, and the
    ones they return."""
    graph, cluster, perf_model, config = start
    searcher = MultiHopSearcher(
        graph, cluster, perf_model, attach_recompute=attach_recompute
    )
    with _pricing_checked(perf_model, graph, cluster, "multi-hop"):
        result = searcher.search(
            config, visited=VisitedSet(), unexplored=UnexploredPool()
        )
    if result is not None:
        _assert_valid(result.config, graph, cluster, "multi-hop result")
        config = result.config
    with _pricing_checked(perf_model, graph, cluster, "fine-tune"):
        tuned = finetune(config, graph, perf_model)
    _assert_valid(tuned, graph, cluster, "fine-tune result")
