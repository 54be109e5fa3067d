"""The strategy-agnostic search substrate and the ``Searcher`` contract.

The original ``AcesoSearch`` mixed two things: *what* the greedy
bottleneck-alleviation strategy does each iteration, and the machinery
every search strategy needs — telemetry event capture, visited-set
deduplication, the best-first unexplored pool, budget/deadline
accounting, best/top-k tracking, and assembling a
:class:`~repro.core.search.SearchResult` at the end.  This module owns
the second half:

* :class:`SearchContext` — one search run's shared state.  A strategy
  drives its own iteration loop but routes every observation through
  the context, so traces, checkpoints, and budget accounting behave
  identically across strategies (and stay bit-identical for the
  refactored greedy path).
* :class:`Searcher` — the contract all strategies implement:
  ``run(init_config, budget, *, deadline=None) -> SearchResult``,
  seeded and deterministic, anytime under a :class:`Deadline`.
* the strategy registry — ``register_searcher`` /
  ``get_searcher_class`` / ``available_strategies`` — plus
  ``build_options``, which turns a ``strategy_kwargs`` dict into the
  strategy's options dataclass and rejects unknown or mistyped keys
  with a typed ``ACE213`` diagnostic (unknown strategy names get
  ``ACE212``).

Estimate-order discipline: the context never calls the performance
model except where the pre-refactor code did (the initial objective in
:meth:`SearchContext.open`, the final report in
:meth:`SearchContext.finish`).  ``PerfModel`` carries LRU caches and a
``num_estimates`` counter, so *when* a config is estimated is part of
the observable result; strategies own every other model call.
"""

from __future__ import annotations

import importlib
import typing
from dataclasses import fields as dataclass_fields
from typing import ClassVar, Dict, List, Optional, Tuple, Type, Union

from ..cluster.topology import ClusterSpec
from ..ir.graph import OpGraph
from ..lint.diagnostics import Diagnostic
from ..parallel.config import ParallelConfig
from ..perfmodel.model import PerfModel
from ..telemetry import Event, get_bus
from ..telemetry.events import (
    SEARCH_BEGIN,
    SEARCH_DEADLINE,
    SEARCH_END,
    SEARCH_ITERATION,
)
from .budget import Deadline, SearchBudget
from .dedup import UnexploredPool, VisitedSet
from .trace import SearchTrace


class StrategyError(ValueError):
    """An unknown strategy or strategy keyword argument.

    Carries the typed :class:`~repro.lint.diagnostics.Diagnostic`
    records (``ACE212``/``ACE213``) so the planner daemon's admission
    path can return them as HTTP 400 diagnostics instead of a bare
    string, while programmatic callers still get a ``ValueError``.
    """

    def __init__(self, message: str, diagnostics=None) -> None:
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


def _strategy_diagnostic(code: str, message: str, hint: str = "", **attrs):
    return Diagnostic(code=code, message=message, hint=hint, attrs=attrs)


class SearchContext:
    """Shared per-run state: events, dedup, budget, best/top-k.

    Constructing the context snapshots the model's estimate counter and
    starts the budget clock — exactly what the pre-refactor greedy run
    did first — so budgets measure the *delta* this run consumes and a
    fresh per-worker model accounts like a shared serial one.
    """

    def __init__(
        self,
        perf_model: PerfModel,
        budget: SearchBudget,
        *,
        deadline: Optional[Deadline] = None,
        top_k: int = 5,
    ) -> None:
        self.perf_model = perf_model
        self.budget = budget
        self.deadline = deadline
        self.top_k = top_k
        self.bus = get_bus()
        self.events: List[Event] = []
        self.visited = VisitedSet()
        self.unexplored = UnexploredPool()
        self.estimates_start = perf_model.num_estimates
        self.estimates_to_best = 0
        budget.start(self.estimates_start)
        self.best: Optional[ParallelConfig] = None
        self.best_objective = float("inf")
        self.top: List[Tuple[float, ParallelConfig]] = []
        self.iteration = 0
        self.converged = False
        self.partial = False

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def emit(self, name: str, **attrs) -> None:
        """Capture an event locally and publish it if a sink keeps it.

        The local capture is what :meth:`finish` rebuilds the
        :class:`SearchTrace` from, so traces are bit-identical whether
        or not a telemetry sink is attached.
        """
        event = Event(
            name=name,
            ts=self.bus.clock(),
            pid=self.bus.pid,
            source="search",
            attrs=attrs,
        )
        self.events.append(event)
        if self.bus.wants(name):
            self.bus.emit_event(event)

    def record_iteration(
        self,
        *,
        bottlenecks_tried: int,
        hops_used: int,
        improved: bool,
        objective: float,
        **extra,
    ) -> None:
        """Emit the per-iteration event every strategy must produce."""
        self.emit(
            SEARCH_ITERATION,
            index=self.iteration,
            elapsed=self.budget.elapsed(),
            bottlenecks_tried=bottlenecks_tried,
            hops_used=hops_used,
            improved=improved,
            objective=objective,
            best_objective=self.best_objective,
            **extra,
        )

    # ------------------------------------------------------------------
    # budget / deadline accounting
    # ------------------------------------------------------------------
    def deadline_expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired()

    def should_stop(self) -> bool:
        """Mid-iteration cooperative check (deadline or estimate cap)."""
        if self.deadline_expired():
            return True
        return self.budget.exhausted(
            estimates=self.perf_model.num_estimates
        )

    def exhausted(self) -> bool:
        """Iteration-boundary check against every configured limit."""
        return self.budget.exhausted(
            iterations=self.iteration,
            estimates=self.perf_model.num_estimates,
        )

    # ------------------------------------------------------------------
    # best / top-k tracking
    # ------------------------------------------------------------------
    def open(self, init_config: ParallelConfig) -> float:
        """Score the starting point and emit ``search.begin``."""
        self.best = init_config
        self.best_objective = self.perf_model.objective(init_config)
        self.estimates_to_best = (
            self.perf_model.num_estimates - self.estimates_start
        )
        self.top = [(self.best_objective, self.best)]
        self.emit(
            SEARCH_BEGIN,
            best_objective=self.best_objective,
            num_stages=init_config.num_stages,
        )
        return self.best_objective

    def observe(self, objective: float, config: ParallelConfig) -> bool:
        """Fold one scored configuration into best/top-k bookkeeping.

        Returns whether it improved the incumbent best.
        """
        improved = objective < self.best_objective
        if improved:
            self.best, self.best_objective = config, objective
            self.estimates_to_best = (
                self.perf_model.num_estimates - self.estimates_start
            )
        self.top = _update_top(self.top, objective, config, self.top_k)
        return improved

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def finish(self):
        """Emit the terminal events and assemble the result.

        Preserves the pre-refactor operation order exactly: deadline
        event (if partial), end event with the estimate delta *before*
        the final ``estimate(best)`` call, counter emission, then the
        trace rebuilt from the captured event stream.
        """
        from .search import SearchResult

        if self.partial:
            self.emit(
                SEARCH_DEADLINE,
                iterations_completed=self.iteration,
                elapsed=self.budget.elapsed(),
                best_objective=self.best_objective,
            )
        self.emit(
            SEARCH_END,
            iterations=self.iteration,
            converged=self.converged,
            partial=self.partial,
            best_objective=self.best_objective,
            num_estimates=(
                self.perf_model.num_estimates - self.estimates_start
            ),
        )
        self.perf_model.emit_counters(self.bus)
        trace = SearchTrace.from_events(self.events)
        return SearchResult(
            best_config=self.best,
            best_objective=self.best_objective,
            best_report=self.perf_model.estimate(self.best),
            trace=trace,
            top_configs=self.top,
            num_estimates=(
                self.perf_model.num_estimates - self.estimates_start
            ),
            elapsed_seconds=self.budget.elapsed(),
            converged=self.converged,
            visited_signatures=tuple(sorted(self.visited.signatures())),
            partial=self.partial,
            estimates_to_best=self.estimates_to_best,
        )


def _update_top(
    top: List[Tuple[float, ParallelConfig]],
    objective: float,
    config: ParallelConfig,
    k: int,
) -> List[Tuple[float, ParallelConfig]]:
    keys = {c.cache_key() for _, c in top}
    if config.cache_key() not in keys:
        top = top + [(objective, config)]
    top.sort(key=lambda pair: pair[0])
    return top[:k]


class Searcher:
    """Contract every search strategy implements.

    Concrete strategies subclass this, set ``strategy`` (the registry
    name) and ``options_class`` (a dataclass of tunables that must
    include a ``seed`` field), and implement :meth:`run`.  The contract
    the shared test suite enforces:

    * **Seeded determinism** — identical options against a fresh
      performance model reproduce the run bit-for-bit.
    * **Anytime** — an expired :class:`Deadline` returns the
      best-so-far plan flagged ``partial=True`` at the next
      cooperative check; it never raises.
    * **Telemetry** — every run emits ``search.begin``, one
      ``search.iteration`` per counted iteration, and ``search.end``,
      all with registered names, so ``SearchTrace.from_events``
      reconstructs the trace from any strategy's run log.
    """

    strategy: ClassVar[str] = ""
    options_class: ClassVar[Optional[type]] = None

    def __init__(
        self,
        graph: OpGraph,
        cluster: ClusterSpec,
        perf_model: PerfModel,
        *,
        options=None,
    ) -> None:
        self.graph = graph
        self.cluster = cluster
        self.perf_model = perf_model
        if options is None and self.options_class is not None:
            options = self.options_class()
        self.options = options

    def run(
        self,
        init_config: ParallelConfig,
        budget: SearchBudget,
        *,
        deadline: Optional[Deadline] = None,
    ):
        raise NotImplementedError


# ----------------------------------------------------------------------
# strategy registry
# ----------------------------------------------------------------------
#: Strategy name -> class.  A built-in strategy starts as its module's
#: path and becomes its class when that module is first imported (its
#: ``@register_searcher`` runs), so listing strategies imports none.
_SEARCHERS: Dict[str, Union[str, Type[Searcher]]] = {
    "bandit": f"{__package__}.bandit",
    "greedy": f"{__package__}.search",
    "mcmc": f"{__package__}.mcmc",
}


def register_searcher(cls: Type[Searcher]) -> Type[Searcher]:
    """Register a :class:`Searcher` subclass under its strategy name.

    Usable as a class decorator; re-registering a name overwrites it
    (tests swap stub strategies in and out).
    """
    if not cls.strategy:
        raise ValueError(f"{cls.__name__} does not declare a strategy name")
    _SEARCHERS[cls.strategy] = cls
    return cls


def unregister_searcher(name: str) -> None:
    _SEARCHERS.pop(name, None)


def available_strategies() -> List[str]:
    """Registered strategy names, sorted for stable CLI/docs output."""
    return sorted(_SEARCHERS)


def get_searcher_class(name: str) -> Type[Searcher]:
    """Resolve a strategy name, raising a typed ``ACE212`` error."""
    entry = _SEARCHERS.get(name)
    if isinstance(entry, str):
        importlib.import_module(entry)
        entry = _SEARCHERS[name]
    if entry is None:
        known = ", ".join(available_strategies())
        raise StrategyError(
            f"unknown search strategy {name!r}; available: {known}",
            diagnostics=[
                _strategy_diagnostic(
                    "ACE212",
                    f"unknown search strategy {name!r}",
                    hint=f"available strategies: {known}",
                    strategy=name,
                )
            ],
        )
    return entry


def strategy_option_names(name: str) -> Tuple[str, ...]:
    """The keyword arguments a strategy's options dataclass accepts."""
    cls = get_searcher_class(name)
    if cls.options_class is None:
        return ()
    return tuple(f.name for f in dataclass_fields(cls.options_class))


def build_options(name: str, kwargs: Optional[dict] = None):
    """Build a strategy's options from a ``strategy_kwargs`` dict.

    Unknown keys, and values whose type does not fit the options
    field, raise a :class:`StrategyError` carrying one ``ACE213``
    diagnostic per offending key — never silently dropped.
    """
    cls = get_searcher_class(name)
    kwargs = dict(kwargs or {})
    allowed = strategy_option_names(name)
    unknown = sorted(set(kwargs) - set(allowed))
    if unknown:
        raise StrategyError(
            f"unknown {name} strategy argument(s): {', '.join(unknown)}; "
            f"valid keys: {', '.join(allowed)}",
            diagnostics=[
                _strategy_diagnostic(
                    "ACE213",
                    f"unknown {name} strategy argument {key!r}",
                    hint=f"valid keys: {', '.join(allowed)}",
                    strategy=name,
                    argument=key,
                )
                for key in unknown
            ],
        )
    if cls.options_class is None:
        return None
    hints = typing.get_type_hints(cls.options_class)
    mistyped = sorted(
        key for key, value in kwargs.items()
        if not _fits(value, hints[key])
    )
    if mistyped:
        raise StrategyError(
            f"mistyped {name} strategy argument(s): {', '.join(mistyped)}",
            diagnostics=[
                _strategy_diagnostic(
                    "ACE213",
                    f"{name} strategy argument {key!r} must be "
                    f"{_type_name(hints[key])}, got {kwargs[key]!r}",
                    strategy=name,
                    argument=key,
                )
                for key in mistyped
            ],
        )
    return cls.options_class(**kwargs)


def _fits(value, hint) -> bool:
    """Whether ``value`` fits an options field annotated ``hint``: an
    int fits a float field, a bool fits no int or float field."""
    if typing.get_origin(hint) is typing.Union:
        return any(_fits(value, arg) for arg in typing.get_args(hint))
    hint = typing.get_origin(hint) or hint
    if hint in (int, float) and isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def _type_name(hint) -> str:
    if isinstance(hint, type):
        return hint.__name__
    return str(hint).replace("typing.", "")


def make_searcher(
    name: str,
    graph: OpGraph,
    cluster: ClusterSpec,
    perf_model: PerfModel,
    *,
    options=None,
    strategy_kwargs: Optional[dict] = None,
) -> Searcher:
    """Instantiate a registered strategy.

    ``options`` (a ready-made options object) and ``strategy_kwargs``
    (a JSON-shaped dict, validated) are mutually exclusive.
    """
    cls = get_searcher_class(name)
    if options is not None and strategy_kwargs:
        raise ValueError(
            "pass either options or strategy_kwargs, not both"
        )
    if options is None:
        options = build_options(name, strategy_kwargs)
    return cls(graph, cluster, perf_model, options=options)
