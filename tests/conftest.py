"""Shared fixtures: tiny models and clusters that keep tests fast."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.cluster import paper_cluster
from repro.ir.models.gpt3 import GPTSpec, build_gpt
from repro.parallel import balanced_config
from repro.perfmodel import PerfModel
from repro.profiling import SimulatedProfiler
from repro.runtime import Executor


#: ``--hypothesis-profile deep``: ten times hypothesis' default example
#: budget, for a deeper search on one module at a time (CI runs
#: ``tests/test_valid_by_construction.py`` under it); tier-1 keeps the
#: default profile.
settings.register_profile("deep", max_examples=1000)


def make_tight_cluster(num_gpus: int = 4, memory_mb: float = 64):
    """A cluster whose devices are small enough to force OOM handling."""
    from repro.cluster import ClusterSpec, DeviceSpec

    device = DeviceSpec(
        name=f"tiny-{memory_mb}MB",
        memory_bytes=int(memory_mb * 1024 * 1024),
    )
    return ClusterSpec(num_nodes=1, gpus_per_node=num_gpus, device=device)


def make_tiny_gpt(num_layers: int = 4, batch_size: int = 32):
    """A miniature GPT whose profiling/estimation is near-instant."""
    spec = GPTSpec(
        num_layers=num_layers,
        hidden=64,
        num_heads=4,
        seq_len=32,
        vocab_size=512,
    )
    return build_gpt(
        f"tiny-gpt-{num_layers}l", spec, batch_size=batch_size
    )


def make_activation_heavy_gpt(num_layers: int = 6, batch_size: int = 64):
    """A tiny GPT whose *activations* dominate memory.

    Paired with :func:`make_tight_cluster` it produces configurations
    that genuinely run out of memory unless recomputation kicks in —
    the scenario the inc-rc machinery exists for.
    """
    spec = GPTSpec(
        num_layers=num_layers,
        hidden=128,
        num_heads=4,
        seq_len=256,
        vocab_size=512,
    )
    return build_gpt(
        f"heavy-gpt-{num_layers}l", spec, batch_size=batch_size
    )


@pytest.fixture(scope="session")
def tiny_graph():
    return make_tiny_gpt()


@pytest.fixture(scope="session")
def small_cluster():
    return paper_cluster(4)


@pytest.fixture(scope="session")
def tiny_database(tiny_graph, small_cluster):
    return SimulatedProfiler(small_cluster, seed=0).profile(tiny_graph)


@pytest.fixture(scope="session")
def tiny_perf_model(tiny_graph, small_cluster, tiny_database):
    return PerfModel(tiny_graph, small_cluster, tiny_database)


@pytest.fixture(scope="session")
def tiny_executor(tiny_graph, small_cluster):
    return Executor(tiny_graph, small_cluster, seed=0)


@pytest.fixture()
def tiny_config(tiny_graph, small_cluster):
    return balanced_config(tiny_graph, small_cluster, 2)
