"""Tier-A admission analysis of :class:`PlanRequest` payloads.

The planner daemon runs this before spawning any search worker: a
request that is malformed (``ACE330``), names an unknown model
(``ACE204``), asks for a cluster shape that cannot be built
(``ACE203``), or whose model cannot fit the cluster under any plan
(``ACE202``) is rejected with the full diagnostics payload instead of
burning a worker on a search that is guaranteed to crash or OOM.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .config_rules import analyze_weight_state
from .diagnostics import Diagnostic


def analyze_request(data) -> Tuple[Optional[object], List[Diagnostic]]:
    """Analyze a raw request payload (dict) or a parsed ``PlanRequest``.

    Returns ``(request, diagnostics)``; ``request`` is ``None`` when the
    payload does not even parse.  Any error-severity diagnostic means
    the request must not reach a worker.
    """
    from ..service.protocol import PlanRequest
    from .artifacts import check_journal

    if not isinstance(data, PlanRequest):
        # The wire payload shares the journal's schema (ACE330).
        problems = check_journal(data, "request")
        if problems:
            return None, problems
        data = PlanRequest.from_json(data)
    return data, analyze_plan_request(data)


def analyze_plan_request(request) -> List[Diagnostic]:
    """Semantic checks on a well-formed ``PlanRequest``."""
    from ..cluster.topology import paper_cluster
    from ..core.searcher import StrategyError, build_options
    from ..ir.models.registry import available_models, build_model

    out: List[Diagnostic] = []
    try:
        # Resolves the strategy name (ACE212) and validates its kwargs
        # against the strategy's options dataclass (ACE213) in one
        # shot; the typed diagnostics ride the raised error.
        build_options(
            request.strategy, dict(request.strategy_kwargs or {})
        )
    except StrategyError as exc:
        out.extend(exc.diagnostics)
    except (TypeError, ValueError) as exc:
        # Known keys with unbuildable values (e.g. a string where the
        # options dataclass wants a float) still must not reach a
        # worker fork.
        out.append(Diagnostic(
            "ACE213",
            f"invalid strategy_kwargs for {request.strategy!r}: {exc}",
            location="strategy_kwargs",
        ))
    graph = None
    try:
        # The registry accepts both the fixed benchmark names and the
        # parametric ``gpt-<N>l`` scalability models, so resolvability
        # — not list membership — is the real "known model" test.
        graph = build_model(request.model)
    except KeyError:
        out.append(Diagnostic(
            "ACE204",
            f"unknown model {request.model!r}",
            location="model",
            hint=f"available models: {available_models()} or gpt-<N>l",
        ))
    cluster = None
    try:
        cluster = paper_cluster(request.gpus)
    except ValueError as exc:
        out.append(Diagnostic(
            "ACE203",
            f"cannot build a {request.gpus}-GPU cluster: {exc}",
            location="gpus",
            hint="use <= 8 GPUs or a multiple of 8",
        ))
    if cluster is not None and graph is not None:
        out.extend(analyze_weight_state(graph, cluster))
    return out
