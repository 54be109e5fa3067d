"""Continuous rebalancing under churn: the elastic controller.

:class:`ElasticController` consumes a :class:`ChurnTimeline` against a
(possibly heterogeneous) cluster and keeps a *servable plan* alive the
whole way through.  Per debounced event batch it

1. folds the events into its :class:`~repro.faults.plan.Membership`
   (preempted nodes, failed devices, straggling devices, degraded
   link scopes),
2. reads the fold's *planner view* — the surviving cluster snapped to
   the power-of-two invariants, links degraded, and stragglers folded
   into per-node device specs so the heterogeneous performance model
   prices slow nodes honestly,
3. decides whether to re-plan at all (hysteresis: forced when the
   current plan no longer fits the cluster shape; otherwise only when
   the estimated throughput loss crosses a threshold and a cooldown
   window has elapsed), and
4. decides how: a warm search seeded from the adapted surviving top-k
   plans under a bounded iteration budget, falling down a ladder of
   cheaper answers — best adapted survivor, full-recompute safe
   variant, balanced restart — rather than ever raising.

Every decision is recorded as a JSON-able :class:`Decision` and
emitted as ``elastic.*`` telemetry.  All control inputs are virtual
(timeline time, iteration budgets): a run is bit-reproducible from
``(seed, timeline)``, which ``ControllerRun.replay_digest`` asserts.
"""

from __future__ import annotations

import hashlib
import json
import time as _time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.topology import ClusterSpec
from ..core.budget import SearchBudget
from ..core.search import AcesoSearch, AcesoSearchOptions
from ..faults.inject import (
    NoSurvivorsError,
    adapt_config,
    memory_safe_variant,
)
from ..faults.plan import Membership, MembershipView
from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig
from ..parallel.initializer import balanced_config
from ..perfmodel.model import PerfModel, build_perf_model
from ..runtime.executor import Executor
from ..telemetry import INFO, WARNING, get_bus
from ..telemetry.events import (
    ELASTIC_CLUSTER_SHRUNK,
    ELASTIC_DECISION,
    ELASTIC_EVENT,
    ELASTIC_FALLBACK,
    ELASTIC_REPLAN_BEGIN,
    ELASTIC_REPLAN_END,
    ELASTIC_RUN_BEGIN,
    ELASTIC_RUN_END,
)
from .timeline import ChurnEvent, ChurnTimeline


@dataclass(frozen=True)
class ControllerPolicy:
    """Hysteresis and budget knobs of the elastic controller.

    ``loss_threshold`` / ``cooldown_seconds`` / ``debounce_seconds``
    operate on *virtual* (timeline) time and model-estimated loss, so
    they never make decisions depend on the wall clock.
    """

    #: Re-plan when the current plan's estimated throughput fell by at
    #: least this fraction since adoption.
    loss_threshold: float = 0.05
    #: Minimum virtual seconds between voluntary (non-forced) replans.
    cooldown_seconds: float = 10.0
    #: Events closer together than this collapse into one decision.
    debounce_seconds: float = 1.0
    #: Survivor plans carried between replans (warm-start seeds).
    top_k: int = 5
    #: Search iterations per replan (the warm budget).
    replan_iterations: int = 6
    #: Measure adopted plans on the runtime executor (ground truth
    #: throughput per decision; skip for planner-only runs).
    measure: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.loss_threshold < 1.0:
            raise ValueError("loss_threshold must be in (0, 1)")
        if self.cooldown_seconds < 0 or self.debounce_seconds < 0:
            raise ValueError("hysteresis windows must be non-negative")
        if self.top_k < 1 or self.replan_iterations < 1:
            raise ValueError("top_k and replan_iterations must be >= 1")


@dataclass
class Decision:
    """One controller decision for a debounced batch of churn events."""

    index: int
    time: float
    events: List[dict]
    action: str  # "keep" | "replan" | "fallback" | "halt"
    reason: str
    cluster_gpus: int
    estimated_loss: float
    objective_before: float
    objective_after: float
    plan_signature: str
    feasible: bool
    num_estimates: int
    fallback_rung: Optional[str] = None
    throughput: float = 0.0
    #: Informational wall-clock cost; never a control input, and
    #: excluded from the replay fingerprint.
    replan_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    def replay_fingerprint(self) -> dict:
        """The decision minus wall-clock fields (bit-reproducible)."""
        data = self.to_dict()
        del data["replan_seconds"]
        return data


@dataclass
class ControllerRun:
    """Full record of one elastic run over a churn timeline."""

    seed: int
    decisions: List[Decision]
    initial_signature: str
    initial_objective: float
    final_config: ParallelConfig
    final_feasible: bool

    @property
    def num_replans(self) -> int:
        return sum(d.action in ("replan", "fallback") for d in self.decisions)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "initial_signature": self.initial_signature,
            "initial_objective": self.initial_objective,
            "final_signature": self.final_config.signature(),
            "final_feasible": self.final_feasible,
            "num_replans": self.num_replans,
            "decisions": [d.to_dict() for d in self.decisions],
        }

    def replay_fingerprint(self) -> dict:
        data = self.to_dict()
        data["decisions"] = [
            d.replay_fingerprint() for d in self.decisions
        ]
        return data

    def replay_digest(self) -> str:
        """SHA-256 over the wall-clock-free run record.  Two runs of
        the same ``(seed, timeline)`` produce the same digest."""
        blob = json.dumps(self.replay_fingerprint(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ElasticController:
    """Drive a plan through a churn timeline without ever dropping it."""

    def __init__(
        self,
        graph: OpGraph,
        cluster: ClusterSpec,
        *,
        policy: Optional[ControllerPolicy] = None,
        seed: int = 0,
        initial_survivors: Optional[
            Sequence[Tuple[float, ParallelConfig]]
        ] = None,
    ) -> None:
        self.graph = graph
        self.cluster = cluster
        self.policy = policy or ControllerPolicy()
        self.seed = seed
        self._models: Dict[tuple, PerfModel] = {}
        self._initial_survivors = (
            list(initial_survivors) if initial_survivors else None
        )

    def _model_for(self, planner: ClusterSpec) -> PerfModel:
        """Performance model (and profile DB) per planner view,
        cached by the hardware signature the view actually prices."""
        devices = planner.node_devices or (planner.device,)
        key = (
            planner.num_nodes,
            planner.gpus_per_node,
            tuple(
                (d.name, d.memory_bytes, round(d.efficiency, 9))
                for d in devices
            ),
            round(planner.intra_node.bandwidth, 3),
            round(planner.inter_node.bandwidth, 3),
        )
        model = self._models.get(key)
        if model is None:
            model = build_perf_model(self.graph, planner, seed=self.seed)
            self._models[key] = model
        return model

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _initial_plan(
        self,
    ) -> Tuple[ParallelConfig, float, List[Tuple[float, ParallelConfig]]]:
        if self._initial_survivors:
            best_obj, best = min(
                self._initial_survivors, key=lambda pair: pair[0]
            )
            return best, best_obj, list(self._initial_survivors)
        result = self._search(
            self.cluster,
            self._model_for(self.cluster),
            self._balanced(self.cluster),
        )
        return (
            result.best_config,
            result.best_objective,
            list(result.top_configs),
        )

    def _balanced(self, cluster: ClusterSpec) -> ParallelConfig:
        return balanced_config(self.graph, cluster, min(2, cluster.num_gpus))

    def _search(
        self,
        cluster: ClusterSpec,
        model: PerfModel,
        init: ParallelConfig,
    ):
        """One bounded warm search: the replan budget and seed."""
        return AcesoSearch(
            self.graph,
            cluster,
            model,
            options=AcesoSearchOptions(
                seed=self.seed, top_k=self.policy.top_k
            ),
        ).run(
            init,
            SearchBudget(max_iterations=self.policy.replan_iterations),
        )

    def _warm_candidates(
        self,
        cluster: ClusterSpec,
        survivors: Sequence[Tuple[float, ParallelConfig]],
        current: ParallelConfig,
    ) -> List[ParallelConfig]:
        candidates: List[ParallelConfig] = []
        seen = set()
        pool = sorted(survivors, key=lambda pair: pair[0])
        for _, config in pool + [(0.0, current)]:
            adapted = adapt_config(config, self.graph, cluster)
            if adapted is None:
                continue
            for variant in (adapted, memory_safe_variant(adapted)):
                key = variant.cache_key()
                if key not in seen:
                    seen.add(key)
                    candidates.append(variant)
        return candidates

    def _replan(
        self,
        planner: ClusterSpec,
        model: PerfModel,
        survivors: List[Tuple[float, ParallelConfig]],
        current: ParallelConfig,
    ) -> Tuple[ParallelConfig, float, bool, Optional[str]]:
        """Warm replan with a fallback ladder; never raises.

        Returns ``(config, objective, feasible, fallback_rung)``;
        ``fallback_rung`` is ``None`` when the warm search itself
        produced a feasible plan.
        """
        bus = get_bus()
        candidates = self._warm_candidates(planner, survivors, current)
        best_candidate: Optional[ParallelConfig] = None
        best_candidate_obj = float("inf")
        feasible_candidate: Optional[ParallelConfig] = None
        feasible_candidate_obj = float("inf")
        for candidate in candidates:
            report = model.estimate(candidate)
            objective = model.objective_from_report(report)
            if objective < best_candidate_obj:
                best_candidate = candidate
                best_candidate_obj = objective
            if not report.is_oom and objective < feasible_candidate_obj:
                feasible_candidate = candidate
                feasible_candidate_obj = objective

        init = best_candidate or self._balanced(planner)
        try:
            result = self._search(planner, model, init)
        except Exception as error:  # ladder below, never crash
            if bus.active:
                bus.emit(
                    ELASTIC_FALLBACK,
                    source="elastic",
                    level=WARNING,
                    rung="search_error",
                    error=repr(error),
                )
            result = None

        if result is not None and result.is_feasible:
            survivors[:] = list(result.top_configs)
            return result.best_config, result.best_objective, True, None

        # Fallback ladder: cheapest servable answer wins.
        if feasible_candidate is not None:
            rung = "adapted_survivor"
            chosen, objective = feasible_candidate, feasible_candidate_obj
            feasible = True
        elif result is not None:
            rung = "infeasible_search_best"
            chosen, objective = result.best_config, result.best_objective
            feasible = False
        elif best_candidate is not None:
            rung = "infeasible_adapted"
            chosen, objective = best_candidate, best_candidate_obj
            feasible = False
        else:
            rung = "balanced_restart"
            chosen = self._balanced(planner)
            report = model.estimate(chosen)
            objective = model.objective_from_report(report)
            feasible = not report.is_oom
        if bus.active:
            bus.emit(
                ELASTIC_FALLBACK,
                source="elastic",
                level=WARNING,
                rung=rung,
                feasible=feasible,
            )
        survivors[:] = [(objective, chosen)]
        return chosen, objective, feasible, rung

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _batches(
        self, timeline: ChurnTimeline
    ) -> List[List[ChurnEvent]]:
        """Debounce: events separated by at most the debounce window
        coalesce into one decision (bursts trigger one replan)."""
        batches: List[List[ChurnEvent]] = []
        for event in timeline.events:
            if (
                batches
                and event.time - batches[-1][-1].time
                <= self.policy.debounce_seconds
            ):
                batches[-1].append(event)
            else:
                batches.append([event])
        return batches

    def _measure(
        self, view: MembershipView, config: ParallelConfig
    ) -> float:
        """Ground-truth throughput of ``config`` under the fault view
        (samples/s; 0.0 when the plan cannot run at all)."""
        if not self.policy.measure:
            return 0.0
        if config.total_devices != view.effective.num_gpus:
            return 0.0
        try:
            result = Executor(
                self.graph, view.effective, seed=self.seed
            ).run(config, view.fault_view)
        except Exception:
            return 0.0
        return result.throughput(self.graph.global_batch_size)

    def run(self, timeline: ChurnTimeline) -> ControllerRun:
        """Replay ``timeline``, returning the full decision record.

        Never raises on churn the cluster can absorb; if every node is
        preempted the controller records a ``halt`` decision (the last
        plan stays adopted, throughput 0) and keeps consuming events so
        a later ``node_join`` resumes service.
        """
        policy = self.policy
        bus = get_bus()
        if bus.active:
            bus.emit(
                ELASTIC_RUN_BEGIN,
                source="elastic",
                level=INFO,
                seed=self.seed,
                num_events=len(timeline.events),
                horizon=timeline.horizon,
            )
        membership = Membership(self.cluster)
        current, current_obj, survivors = self._initial_plan()
        initial_signature = current.signature()
        initial_objective = current_obj
        adopted_obj = current_obj  # objective at adoption time
        feasible = True
        last_replan_time = float("-inf")
        last_gpus = self.cluster.num_gpus
        decisions: List[Decision] = []

        for index, batch in enumerate(self._batches(timeline)):
            now = batch[-1].time
            for event in batch:
                membership.apply(event)
                if bus.active:
                    # ``kind`` is TelemetryBus.emit's reserved
                    # event-kind parameter; rename the churn kind.
                    payload = event.to_dict()
                    payload["churn_kind"] = payload.pop("kind")
                    bus.emit(
                        ELASTIC_EVENT,
                        source="elastic",
                        level=INFO,
                        **payload,
                    )
            started = _time.monotonic()
            try:
                view = membership.view()
            except NoSurvivorsError:
                # Every node preempted: nothing servable.  Record the
                # halt and keep going — a later join resumes service.
                decisions.append(Decision(
                    index=index,
                    time=now,
                    events=[e.to_dict() for e in batch],
                    action="halt",
                    reason="no_survivors",
                    cluster_gpus=0,
                    estimated_loss=1.0,
                    objective_before=float("inf"),
                    objective_after=float("inf"),
                    plan_signature=current.signature(),
                    feasible=False,
                    num_estimates=0,
                    throughput=0.0,
                    replan_seconds=_time.monotonic() - started,
                ))
                feasible = False
                if bus.active:
                    bus.emit(
                        ELASTIC_DECISION,
                        source="elastic",
                        level=WARNING,
                        action="halt",
                        reason="no_survivors",
                        time=now,
                    )
                continue

            if view.effective.num_gpus != last_gpus and bus.active:
                bus.emit(
                    ELASTIC_CLUSTER_SHRUNK,
                    source="elastic",
                    level=WARNING,
                    gpus=view.effective.num_gpus,
                    previous=last_gpus,
                )
            last_gpus = view.effective.num_gpus

            model = self._model_for(view.planner)
            estimates_before = model.num_estimates

            # -- decide WHETHER ---------------------------------------
            # Coming out of a halt always replans: the pre-halt plan
            # was adopted for a cluster that no longer exists, even if
            # the rejoined cluster happens to match its shape.
            resuming = not feasible and decisions and (
                decisions[-1].action == "halt"
            )
            forced = resuming or (
                current.total_devices != view.effective.num_gpus
            )
            loss = 0.0
            current_on_new = float("inf")
            if not forced:
                report = model.estimate(current)
                current_on_new = model.objective_from_report(report)
                if report.is_oom or current_on_new == float("inf"):
                    forced = True
                    loss = 1.0
                elif current_on_new > adopted_obj > 0:
                    # objective ~ iteration time; throughput ∝ 1/time
                    loss = 1.0 - adopted_obj / current_on_new

            in_cooldown = (
                now - last_replan_time < policy.cooldown_seconds
            )
            if forced:
                if resuming:
                    reason = "resume"
                elif current.total_devices != view.effective.num_gpus:
                    reason = "shape_mismatch"
                else:
                    reason = "plan_infeasible"
                action = "replan"
            elif loss >= policy.loss_threshold and not in_cooldown:
                action, reason = "replan", "loss_threshold"
            elif loss >= policy.loss_threshold:
                action, reason = "keep", "cooldown"
            else:
                action, reason = "keep", "below_threshold"

            # -- decide HOW -------------------------------------------
            rung: Optional[str] = None
            if action == "replan":
                if bus.active:
                    bus.emit(
                        ELASTIC_REPLAN_BEGIN,
                        source="elastic",
                        level=INFO,
                        reason=reason,
                        time=now,
                        gpus=view.effective.num_gpus,
                    )
                current, current_obj, feasible, rung = self._replan(
                    view.planner, model, survivors, current
                )
                adopted_obj = current_obj
                last_replan_time = now
                if rung is not None:
                    action = "fallback"
                if bus.active:
                    bus.emit(
                        ELASTIC_REPLAN_END,
                        source="elastic",
                        level=INFO if feasible else WARNING,
                        objective=current_obj,
                        feasible=feasible,
                        fallback=rung or "",
                    )
            else:
                current_obj = (
                    current_on_new
                    if current_on_new != float("inf")
                    else current_obj
                )

            throughput = self._measure(view, current)
            decisions.append(Decision(
                index=index,
                time=now,
                events=[e.to_dict() for e in batch],
                action=action,
                reason=reason,
                cluster_gpus=view.effective.num_gpus,
                estimated_loss=round(loss, 9),
                objective_before=current_on_new,
                objective_after=current_obj,
                plan_signature=current.signature(),
                feasible=feasible,
                num_estimates=model.num_estimates - estimates_before,
                fallback_rung=rung,
                throughput=round(throughput, 9),
                replan_seconds=_time.monotonic() - started,
            ))
            if bus.active:
                bus.emit(
                    ELASTIC_DECISION,
                    source="elastic",
                    level=INFO,
                    action=action,
                    reason=reason,
                    time=now,
                    objective=current_obj,
                    feasible=feasible,
                    loss=loss,
                )

        result = ControllerRun(
            seed=self.seed,
            decisions=decisions,
            initial_signature=initial_signature,
            initial_objective=initial_objective,
            final_config=current,
            final_feasible=feasible,
        )
        if bus.active:
            bus.emit(
                ELASTIC_RUN_END,
                source="elastic",
                level=INFO,
                decisions=len(decisions),
                replans=result.num_replans,
                final_feasible=feasible,
            )
        return result
