"""Reconfiguration primitives (Table 1 of the paper).

Each primitive is a *one-mechanism* adjustment whose qualitative impact
on the three resources (computation, communication, memory) is known in
advance.  The search queries this table for primitives whose trend
*decreases* the bottleneck's scarce resource — the "resource trading"
idea that prunes ineligible reconfigurations before any estimation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from ..perfmodel.report import RESOURCES

if TYPE_CHECKING:
    from ..parallel.config import ParallelConfig
    from .apply import ApplyContext

#: Turns a primitive into candidate configurations for one context.
Applier = Callable[["ApplyContext"], List["ParallelConfig"]]


class Trend(enum.Enum):
    """Qualitative impact of a primitive on one resource."""

    DOWN = "decrease"
    FLAT = "unchanged"
    UP = "increase"


class Granularity(enum.Enum):
    """Scope a primitive is applied at during the main search (§3.2.1)."""

    STAGE = "stage"
    MODEL = "model"


@dataclass(frozen=True)
class PrimitiveSpec:
    """One row of Table 1.

    Attributes:
        primitive_id: row number in the paper's table.
        name: e.g. ``"inc-tp"``.
        mechanism: owning parallel mechanism.
        compute / communication / memory: resource trends.
        granularity: stage-level or model-level application.
        partner: the primitive applied to the partner stage when this
            one moves resources across stages (``None`` otherwise).
    """

    primitive_id: int
    name: str
    mechanism: str
    compute: Trend
    communication: Trend
    memory: Trend
    granularity: Granularity
    partner: Optional[str] = None

    def trend_for(self, resource: str) -> Trend:
        """Trend of ``resource`` ("compute"/"communication"/"memory")."""
        if resource not in RESOURCES:
            raise KeyError(f"unknown resource {resource!r}")
        return getattr(self, resource)

    def decreases(self, resource: str) -> bool:
        return self.trend_for(resource) is Trend.DOWN


_D, _F, _U = Trend.DOWN, Trend.FLAT, Trend.UP
_S, _M = Granularity.STAGE, Granularity.MODEL

#: Table 1, in paper order.  Partner primitives follow §3.2.1:
#: inc-op# pairs with dec-op# on a neighbour, inc/dec-dp and inc/dec-tp
#: pair with dec/inc of dp-or-tp on the partner stage that donates or
#: receives devices.
PRIMITIVE_TABLE: Tuple[PrimitiveSpec, ...] = (
    PrimitiveSpec(1, "inc-op#", "pipeline", _U, _F, _U, _S, partner="dec-op#"),
    PrimitiveSpec(2, "dec-op#", "pipeline", _D, _F, _D, _S, partner="inc-op#"),
    PrimitiveSpec(3, "inc-mbs", "pipeline", _D, _F, _U, _M),
    PrimitiveSpec(4, "dec-mbs", "pipeline", _U, _F, _D, _M),
    PrimitiveSpec(5, "inc-dp", "data", _D, _U, _D, _S, partner="dec-dp/tp"),
    PrimitiveSpec(6, "dec-dp", "data", _U, _D, _U, _S, partner="inc-dp/tp"),
    PrimitiveSpec(7, "inc-tp", "tensor", _D, _U, _D, _S, partner="dec-dp/tp"),
    PrimitiveSpec(8, "dec-tp", "tensor", _U, _D, _U, _S, partner="inc-dp/tp"),
    PrimitiveSpec(9, "inc-rc", "recompute", _U, _F, _D, _S),
    PrimitiveSpec(10, "dec-rc", "recompute", _D, _F, _U, _S),
)

PRIMITIVES_BY_NAME: Dict[str, PrimitiveSpec] = {
    spec.name: spec for spec in PRIMITIVE_TABLE
}

#: Extension rows registered at runtime (§3.2.1: "Aceso can be
#: extended with new primitives for future research").
_EXTENSIONS: Dict[str, PrimitiveSpec] = {}

#: Every primitive's applier by name: an extension's registers with its
#: row, the built-in rows' when :mod:`repro.core.apply` loads.
APPLIERS: Dict[str, Applier] = {}


def register_primitive(spec: PrimitiveSpec, applier: Applier) -> None:
    """Add a new reconfiguration primitive to the search's table.

    The spec's resource trends drive eligibility exactly like the
    built-in rows; ``applier`` receives an
    :class:`~repro.core.apply.ApplyContext` and returns candidate
    configurations, which :func:`repro.core.apply.apply_primitive`
    checks with one ``is_valid`` each and dedupes.  Names must be
    unique across built-ins and extensions.
    """
    if spec.name in PRIMITIVES_BY_NAME or spec.name in _EXTENSIONS:
        raise ValueError(f"primitive {spec.name!r} already registered")
    _EXTENSIONS[spec.name] = spec
    APPLIERS[spec.name] = applier


def unregister_primitive(name: str) -> None:
    """Remove an extension primitive and its applier (built-ins cannot
    be removed)."""
    if name in PRIMITIVES_BY_NAME:
        raise ValueError(f"cannot unregister built-in primitive {name!r}")
    if _EXTENSIONS.pop(name, None) is not None:
        del APPLIERS[name]


def all_primitives() -> List[PrimitiveSpec]:
    """Built-in table rows followed by registered extensions."""
    return list(PRIMITIVE_TABLE) + list(_EXTENSIONS.values())


def get_primitive(name: str) -> PrimitiveSpec:
    """Look up a primitive row by name (built-in or extension)."""
    spec = PRIMITIVES_BY_NAME.get(name) or _EXTENSIONS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown primitive {name!r}; known: "
            f"{sorted(PRIMITIVES_BY_NAME) + sorted(_EXTENSIONS)}"
        )
    return spec


def primitive_applier(name: str) -> Applier:
    """The applier of primitive ``name`` (built-in or extension)."""
    get_primitive(name)  # a KeyError naming the known primitives
    return APPLIERS[name]


def eligible_primitives(resource: str) -> List[PrimitiveSpec]:
    """Primitives whose table trend decreases ``resource`` (§3.2.2).

    >>> [p.name for p in eligible_primitives("memory")]
    ['dec-op#', 'dec-mbs', 'inc-dp', 'inc-tp', 'inc-rc']
    """
    return [spec for spec in all_primitives() if spec.decreases(resource)]


def eligibility_walk(
    resources: Iterable[str],
    rng=None,
) -> Iterator[Tuple[str, str]]:
    """Heuristic-2's ``(resource, primitive name)`` walk (§3.2.2).

    Yields the primitives that decrease each of ``resources`` in turn,
    each primitive once, under the first resource that selects it.
    Passing a numpy ``rng`` shuffles the resource order up front and
    each resource's primitives only when the walk reaches it (the
    Exp#5 ablation), so a caller's own draws between steps interleave
    with the walk's shuffles.

    >>> [name for _, name in eligibility_walk(["memory", "compute"])]
    ['dec-op#', 'dec-mbs', 'inc-dp', 'inc-tp', 'inc-rc', 'inc-mbs', 'dec-rc']
    """
    resources = list(resources)
    if rng is not None:
        rng.shuffle(resources)
    seen = set()
    for resource in resources:
        specs = eligible_primitives(resource)
        if rng is not None:
            rng.shuffle(specs)
        for spec in specs:
            if spec.name not in seen:
                seen.add(spec.name)
                yield resource, spec.name
