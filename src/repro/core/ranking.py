"""Primitive eligibility and exploration ordering (Heuristic-2, §3.2.2).

For a bottleneck, candidates are grouped by primitive and explored

* **highest-consumption first** across resources (the bottleneck's
  resource list is already ordered by consumption proportion), and
* **best-performance first** within a group (candidates sorted by the
  performance model's objective).

Passing ``rng`` disables the heuristic (random resource/primitive/
candidate order) — the Exp#5 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..parallel.config import ParallelConfig
from .apply import ApplyContext, apply_primitive
from .primitives import eligibility_walk


@dataclass
class CandidateGroup:
    """Successors of one primitive, sorted by estimated objective."""

    primitive: str
    resource: str
    candidates: List[ParallelConfig]
    objectives: List[float]


def candidate_groups(
    ctx: ApplyContext,
    *,
    rng: Optional[np.random.Generator] = None,
) -> List[CandidateGroup]:
    """Heuristic-2-ordered candidate groups for the context bottleneck.

    A primitive eligible through several resources appears once, under
    the highest-priority resource that selected it.
    """
    groups: List[CandidateGroup] = []
    for resource, name in eligibility_walk(ctx.bottleneck.resources, rng):
        candidates = apply_primitive(name, ctx)
        if not candidates:
            continue
        objectives = ctx.perf_model.objective_batch(candidates)
        if rng is None:
            order = np.argsort(objectives)
        else:
            order = rng.permutation(len(candidates))
        groups.append(
            CandidateGroup(
                primitive=name,
                resource=resource,
                candidates=[candidates[i] for i in order],
                objectives=[objectives[i] for i in order],
            )
        )
    return groups
