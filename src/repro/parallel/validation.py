"""Structural validation of parallel configurations.

The search only ever constructs valid configurations, but primitives
are easier to write (and test) against a single authoritative checker.
The invariants themselves now live in the collect-all analyzer
:func:`repro.lint.config_rules.analyze_structure`; ``validate_config``
is a thin raise-on-first wrapper that surfaces the analyzer's first
diagnostic as a :class:`ConfigError` with the historical message text.

``validate_config`` and ``is_valid`` optionally take a verdict set that
memoizes the per-op checks across calls.  It is keyed by
``(stage.base_digest(), microbatch_size)``, which covers everything
those checks read (the stage's span, device count and tp/dp/tp_dim
arrays), and only the stages missing from it are passed as
``analyze_structure``'s ``stages`` subset.  The whole-config checks run
on every call.  A skipped stage is one that passed the per-op checks at
this microbatch size, so it would report nothing: the first violation,
and its message, are the same as a full check's.  Without a set (lint,
the CLI, every caller outside the search) every stage is checked.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..cluster.topology import ClusterSpec
from ..ir.graph import OpGraph
from .config import ParallelConfig

#: Structure verdicts: ``(stage.base_digest(), microbatch_size)`` of
#: stages that passed the per-op checks against one graph and cluster.
Verdicts = Set[Tuple[bytes, int]]


class ConfigError(ValueError):
    """A parallel configuration violates a structural invariant."""


def validate_config(
    config: ParallelConfig,
    graph: OpGraph,
    cluster: ClusterSpec,
    verified: Optional[Verdicts] = None,
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

    ``verified`` is a verdict set shared by calls against one graph and
    cluster: its stages skip the per-op checks, and every stage of a
    config found valid joins it.
    """
    from ..lint.config_rules import analyze_structure

    if verified is None:
        diagnostics = analyze_structure(config, graph, cluster)
    else:
        mbs = config.microbatch_size
        keys = [(stage.base_digest(), mbs) for stage in config.stages]
        fresh = [i for i, key in enumerate(keys) if key not in verified]
        diagnostics = analyze_structure(config, graph, cluster, fresh)
        if not diagnostics:
            verified.update(keys[i] for i in fresh)
    if diagnostics:
        raise ConfigError(diagnostics[0].message)


def is_valid(
    config: ParallelConfig,
    graph: OpGraph,
    cluster: ClusterSpec,
    verified: Optional[Verdicts] = None,
) -> bool:
    """Boolean wrapper around :func:`validate_config`."""
    try:
        validate_config(config, graph, cluster, verified)
    except ConfigError:
        return False
    return True
