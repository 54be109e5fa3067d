"""Structural validation of parallel configurations.

The invariants live in the collect-all analyzer
:func:`repro.lint.config_rules.analyze_structure`; ``validate_config``
is a thin raise-on-first wrapper that surfaces the analyzer's first
diagnostic as a :class:`ConfigError` with the historical message text.

The search does not call it per candidate: its built-in primitives,
multi-hop and fine-tuning build only valid configurations, which
``tests/test_valid_by_construction.py`` checks as a property.  It runs
at the edges instead: on a plan ``repro-estimate`` loads (after the
loader's ACE30x schema checks), on a fault-adapted plan, on the
baselines' plans and on every candidate of an extension applier
(:func:`repro.core.apply.apply_primitive`), which the property does
not cover.
"""

from __future__ import annotations

from ..cluster.topology import ClusterSpec
from ..ir.graph import OpGraph
from .config import ParallelConfig


class ConfigError(ValueError):
    """A parallel configuration violates a structural invariant."""


def validate_config(
    config: ParallelConfig, graph: OpGraph, cluster: ClusterSpec
) -> None:
    """Check every invariant of ``config`` against model and hardware.

    Invariants (from §3.1 and §5.1 of the paper):

    1. stage spans tile ``[0, num_ops)`` contiguously;
    2. stage device counts are powers of two summing to the cluster size;
    3. per-op ``tp``/``dp`` are powers of two with ``tp * dp`` equal to
       the stage's device count;
    4. per-op ``tp_dim`` indexes a real partition option;
    5. the aggregated microbatch size divides the global batch and is
       divisible by every op's ``dp`` (integral per-GPU share);
    6. ``tp`` never exceeds the cluster size.

    Raises :class:`ConfigError` with the first violation, in the same
    order (and with the same message) the historical checker used.
    """
    from ..lint.config_rules import analyze_structure

    diagnostics = analyze_structure(config, graph, cluster)
    if diagnostics:
        raise ConfigError(diagnostics[0].message)


def is_valid(
    config: ParallelConfig, graph: OpGraph, cluster: ClusterSpec
) -> bool:
    """Boolean wrapper around :func:`validate_config`."""
    try:
        validate_config(config, graph, cluster)
    except ConfigError:
        return False
    return True
