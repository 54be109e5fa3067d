"""Negative fixtures and end-to-end properties of ``repro-lint``.

Each fixture corrupts one artifact (or source) in a documented way and
asserts the exact diagnostic code fires with a non-zero CLI exit; the
property tests assert the search and daemon only ever produce artifacts
the linter calls clean.
"""

import json
from types import SimpleNamespace

import pytest

from repro.cluster import paper_cluster
from repro.core.budget import SearchBudget
from repro.core.checkpoint import SearchCheckpoint
from repro.core.search import AcesoSearch, search_all_stage_counts
from repro.lint import (
    analyze_source,
    analyze_structure,
    lint_artifact_path,
    lint_checkpoint_file,
    lint_journal_file,
    lint_plan_cache_file,
    lint_run_log_file,
)
from repro.lint.cli import lint_main
from repro.parallel import balanced_config
from repro.parallel.serialization import config_to_dict
from repro.service.daemon import PlannerDaemon
from repro.service.planner import PlanOutcome
from repro.service.protocol import (
    STATUS_REJECTED,
    STATUS_SERVED,
    PlanRequest,
)

from conftest import (
    make_activation_heavy_gpt,
    make_tight_cluster,
)


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestNegativeFixtures:
    def test_corrupt_checkpoint_is_ace320(self, tmp_path):
        path = tmp_path / "deadbeefdeadbeef.ckpt.json"
        path.write_text('{"format_version": 1, "stage_co')  # torn write
        assert codes(lint_checkpoint_file(path)) == ["ACE320"]
        assert lint_main([str(path)]) == 1

    def test_wrong_version_checkpoint_is_ace321(self, tmp_path):
        path = tmp_path / "deadbeefdeadbeef.ckpt.json"
        path.write_text(json.dumps({
            "format_version": 7,
            "stage_counts": [1, 2],
            "budget_kwargs": {},
            "context": {},
            "completed": {},
            "failures": [],
        }))
        assert codes(lint_checkpoint_file(path)) == ["ACE321"]

    def test_cross_field_checkpoint_rot_is_ace323(self, tmp_path):
        path = tmp_path / "deadbeefdeadbeef.ckpt.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "stage_counts": [1, 2],
            "budget_kwargs": {},
            "context": {},
            # count 4 was never requested, and it also appears failed.
            "completed": {"4": {
                "best_config": {
                    "format_version": 1,
                    "microbatch_size": 1,
                    "stages": [{
                        "start": 0, "end": 1, "num_devices": 1,
                        "tp": [1], "dp": [1], "tp_dim": [0],
                        "recompute": [False],
                    }] * 4,
                },
                "best_objective": 1.0,
                "top_configs": [],
                "num_estimates": 1,
                "elapsed_seconds": 0.1,
                "converged": True,
            }},
            "failures": [
                {"num_stages": 4, "error": "boom", "attempts": 1}
            ],
        }))
        found = codes(lint_checkpoint_file(path))
        assert found.count("ACE323") == 2  # stray count + both-sets

    @staticmethod
    def failed_checkpoint(path):
        """A checkpoint log: its document, then failure records for
        counts 1, 2 and 4."""
        checkpoint = SearchCheckpoint.new([1, 2, 4], {}, {}, path)
        checkpoint.save()
        for count in (1, 2, 4):
            checkpoint.record_failure(SimpleNamespace(
                num_stages=count, error="boom " * 8, attempts=1
            ))
        assert lint_checkpoint_file(path) == []
        return path.read_text()

    def test_torn_final_checkpoint_record_is_an_ace324_warning(
        self, tmp_path
    ):
        path = tmp_path / "deadbeefdeadbeef.ckpt.json"
        text = self.failed_checkpoint(path)
        path.write_text(text[:-20])  # crash mid-append of count 4
        found = lint_checkpoint_file(path)
        assert codes(found) == ["ACE324"]
        assert found[0].severity == "warning"
        assert lint_main([str(path)]) == 0
        loaded = SearchCheckpoint.load(path)
        assert [f["num_stages"] for f in loaded.failures] == [1, 2]

    def test_torn_middle_checkpoint_record_is_ace320(self, tmp_path):
        path = tmp_path / "deadbeefdeadbeef.ckpt.json"
        *head, middle, last = self.failed_checkpoint(path).split("\n")
        path.write_text("\n".join([*head, middle[:-20], last]))
        assert codes(lint_checkpoint_file(path)) == ["ACE320"]
        assert lint_main([str(path)]) == 1

    def test_wrong_fingerprint_cache_entry_is_ace311(self, tmp_path):
        request = PlanRequest(model="gpt-2l", gpus=4)
        entry = {
            "plan": {"format_version": 1, "microbatch_size": 1,
                     "stages": [{"start": 0, "end": 1, "num_devices": 4,
                                 "tp": [2], "dp": [2], "tp_dim": [0],
                                 "recompute": [False]}]},
            "objective": 1.0,
            "model": request.model,
            "gpus": request.gpus,
        }
        good = tmp_path / f"{request.fingerprint()}.plan.json"
        good.write_text(json.dumps(entry))
        assert lint_plan_cache_file(good) == []
        bad = tmp_path / "NOT-A-FINGERPRINT.plan.json"
        bad.write_text(json.dumps(entry))
        assert codes(lint_plan_cache_file(bad)) == ["ACE311"]
        assert lint_main([str(bad)]) == 1

    def test_cache_entry_schema_rot_is_ace310(self, tmp_path):
        path = tmp_path / "deadbeefdeadbeef.plan.json"
        path.write_text(json.dumps({
            "plan": None, "objective": "cheap", "extra": 1,
        }))
        found = codes(lint_plan_cache_file(path))
        assert "ACE310" in found and "ACE311" not in found

    def test_renamed_journal_is_ace331(self, tmp_path):
        request = PlanRequest(model="gpt-2l", gpus=4)
        moved = tmp_path / f"{'0' * 16}.request.json"
        moved.write_text(json.dumps(request.to_json()))
        assert codes(lint_journal_file(moved)) == ["ACE331"]
        correct = tmp_path / f"{request.fingerprint()}.request.json"
        correct.write_text(json.dumps(request.to_json()))
        assert lint_journal_file(correct) == []

    def test_malformed_journal_is_ace330(self, tmp_path):
        path = tmp_path / f"{'0' * 16}.request.json"
        path.write_text(json.dumps({"gpus": 4}))  # no model
        assert codes(lint_journal_file(path)) == ["ACE330"]

    def test_infeasible_memory_config_is_ace201(self):
        graph = make_activation_heavy_gpt()
        cluster = make_tight_cluster(num_gpus=4, memory_mb=64)
        config = balanced_config(graph, cluster, 2, microbatch_size=16)
        from repro.lint import analyze_config

        found = codes(analyze_config(config, graph, cluster))
        assert found and set(found) == {"ACE201"}

    def test_unregistered_event_in_run_log_is_ace343(self, tmp_path):
        log = tmp_path / "events.jsonl"
        record = {
            "name": "search.begin", "kind": "event", "ts": 0.1,
            "pid": 1, "source": "search", "level": 20, "attrs": {},
        }
        rogue = dict(record, name="totally.unregistered")
        log.write_text(
            json.dumps(record) + "\n" + json.dumps(rogue) + "\n"
        )
        assert codes(lint_run_log_file(log)) == ["ACE343"]
        assert lint_main([str(log)]) == 1

    def test_bad_run_log_line_is_ace340_ace341_ace342(self, tmp_path):
        log = tmp_path / "events.jsonl"
        record = {
            "name": "search.begin", "kind": "event", "ts": 0.1,
            "pid": 1, "source": "search", "level": 20, "attrs": {},
        }
        log.write_text("\n".join([
            "{torn",
            json.dumps({"name": "search.begin"}),
            json.dumps(dict(record, kind="telegram")),
        ]) + "\n")
        assert codes(lint_run_log_file(log)) == [
            "ACE340", "ACE341", "ACE342"
        ]

    def test_unseeded_random_in_core_source_is_ace901(self, tmp_path):
        path = tmp_path / "sampler.py"
        path.write_text(
            "import random\n"
            "def pick(items):\n"
            "    return items[random.randrange(len(items))]\n"
        )
        found = analyze_source(
            path.read_text(), str(path), module_path="core/sampler.py"
        )
        assert codes(found) == ["ACE901"]

    def test_unregistered_emit_in_source_is_ace903(self):
        found = analyze_source(
            'get_bus().emit("search.blorp", source="search")\n',
            "fixture.py",
            module_path="core/fixture.py",
        )
        assert codes(found) == ["ACE903"]

    def test_strategy_and_arena_emits_lint_clean(self):
        source = (
            'get_bus().emit("search.strategy.proposal", source="mcmc")\n'
            'get_bus().emit("search.strategy.arm", source="bandit")\n'
            'get_bus().emit("search.strategy.stats", source="mcmc")\n'
            'get_bus().emit("arena.begin", source="arena")\n'
            'get_bus().emit("arena.entry.begin", source="arena")\n'
            'get_bus().emit("arena.entry.end", source="arena")\n'
            'get_bus().emit("arena.entry.failed", source="arena")\n'
            'get_bus().emit("arena.end", source="arena")\n'
        )
        assert analyze_source(
            source, "fixture.py", module_path="core/fixture.py"
        ) == []

    def test_unregistered_strategy_or_arena_emit_is_ace903(self):
        found = analyze_source(
            'get_bus().emit("search.strategy.blorp", source="mcmc")\n'
            'get_bus().emit("arena.blorp", source="arena")\n',
            "fixture.py",
            module_path="core/fixture.py",
        )
        assert codes(found) == ["ACE903", "ACE903"]

    def test_strategy_events_in_run_log_lint_clean(self, tmp_path):
        log = tmp_path / "events.jsonl"
        base = {
            "kind": "event", "ts": 0.1, "pid": 1, "level": 20,
        }
        log.write_text("\n".join(
            json.dumps(dict(base, name=name, source=source, attrs={}))
            for name, source in [
                ("search.strategy.proposal", "mcmc"),
                ("search.strategy.arm", "bandit"),
                ("search.strategy.stats", "mcmc"),
                ("arena.begin", "arena"),
                ("arena.entry.begin", "arena"),
                ("arena.entry.end", "arena"),
                ("arena.end", "arena"),
            ]
        ) + "\n")
        assert lint_run_log_file(log) == []
        assert lint_main([str(log)]) == 0

    def test_cache_entry_strategy_field_is_optional_but_typed(
        self, tmp_path
    ):
        entry = {
            "plan": {"format_version": 1, "microbatch_size": 1,
                     "stages": [{"start": 0, "end": 1, "num_devices": 4,
                                 "tp": [2], "dp": [2], "tp_dim": [0],
                                 "recompute": [False]}]},
            "objective": 1.0,
            "model": "gpt-2l",
            "gpus": 4,
        }
        path = tmp_path / "deadbeefdeadbeef.plan.json"
        # Entries minted before the field existed stay clean, ...
        path.write_text(json.dumps(entry))
        assert lint_plan_cache_file(path) == []
        # ... so do entries stamped with the strategy that planned them,
        path.write_text(json.dumps(dict(entry, strategy="mcmc")))
        assert lint_plan_cache_file(path) == []
        # ... but a non-string strategy is schema rot.
        path.write_text(json.dumps(dict(entry, strategy=7)))
        assert codes(lint_plan_cache_file(path)) == ["ACE310"]


class TestSearchArtifactsStayClean:
    """Property: a seeded search only produces lint-clean artifacts."""

    def test_visited_configs_are_structurally_clean(
        self, tiny_graph, small_cluster, tiny_perf_model
    ):
        init = balanced_config(tiny_graph, small_cluster, 4)
        search = AcesoSearch(tiny_graph, small_cluster, tiny_perf_model)
        result = search.run(init, SearchBudget(max_iterations=5))
        for _, config in [(None, result.best_config)] + list(
            result.top_configs
        ):
            assert analyze_structure(
                config, tiny_graph, small_cluster
            ) == []

    def test_checkpoints_and_plans_lint_clean(
        self, tiny_graph, small_cluster, tiny_perf_model, tmp_path
    ):
        checkpoint = tmp_path / "search.ckpt.json"
        multi = search_all_stage_counts(
            tiny_graph, small_cluster, tiny_perf_model,
            budget_per_count={"max_iterations": 3},
            checkpoint_path=checkpoint,
        )
        assert lint_checkpoint_file(checkpoint) == []
        # repro-search --checkpoint takes any name: a checkpoint log is
        # recognised by its folded shape.
        renamed = tmp_path / "search-state.json"
        renamed.write_bytes(checkpoint.read_bytes())
        assert lint_artifact_path(renamed) == []
        plan = tmp_path / "best.plan-dict.json"
        plan.write_text(json.dumps(
            config_to_dict(multi.best.best_config)
        ))
        assert lint_artifact_path(plan) == []
        assert lint_main([str(tmp_path)]) == 0


class TestDaemonAdmissionLint:
    def make(self, planner, **kwargs):
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("queue_limit", 4)
        daemon = PlannerDaemon(planner=planner, **kwargs).start()
        self.daemons.append(daemon)
        return daemon

    @pytest.fixture(autouse=True)
    def _cleanup(self):
        self.daemons = []
        yield
        for daemon in self.daemons:
            daemon.drain(timeout=5)

    def test_invalid_request_rejected_without_worker(self):
        calls = []

        def recording_planner(request, *, deadline=None,
                              checkpoint_path=None):
            calls.append(request)
            return PlanOutcome(plan={"model": request.model}, objective=1.0)

        daemon = self.make(recording_planner, admission_lint=True)
        response = daemon.submit(
            PlanRequest(model="no-such-model", gpus=4), timeout=10
        )
        assert response.status == STATUS_REJECTED
        assert [d["code"] for d in response.diagnostics] == ["ACE204"]
        assert response.retry_after is None
        assert calls == []  # no worker ever saw the request

    def test_unbuildable_cluster_rejected(self):
        def never_planner(request, *, deadline=None, checkpoint_path=None):
            raise AssertionError("must not be called")

        daemon = self.make(never_planner, admission_lint=True)
        response = daemon.submit(
            PlanRequest(model="gpt-2l", gpus=12), timeout=10
        )
        assert response.status == STATUS_REJECTED
        assert [d["code"] for d in response.diagnostics] == ["ACE203"]

    def test_valid_request_planned_identically(self):
        def stub_planner(request, *, deadline=None, checkpoint_path=None):
            return PlanOutcome(
                plan={"model": request.model, "gpus": request.gpus},
                objective=0.25,
            )

        request = PlanRequest(model="gpt-2l", gpus=4)
        linted = self.make(stub_planner, admission_lint=True)
        unlinted = self.make(stub_planner, admission_lint=False)
        with_lint = linted.submit(request, timeout=10)
        without_lint = unlinted.submit(request, timeout=10)
        assert with_lint.status == STATUS_SERVED
        assert with_lint.plan == without_lint.plan
        assert with_lint.objective == without_lint.objective
        assert with_lint.diagnostics == []

    def test_rejection_emits_invalid_event(self):
        from repro.telemetry import CallbackSink, TelemetryBus, using_bus
        from repro.telemetry.events import SERVICE_REQUEST_INVALID

        events = []
        bus = TelemetryBus()
        bus.add_sink(CallbackSink(events.append))
        with using_bus(bus):
            daemon = self.make(lambda *a, **k: None, admission_lint=True)
            daemon.submit(
                PlanRequest(model="no-such-model", gpus=4), timeout=10
            )
        invalid = [e for e in events if e.name == SERVICE_REQUEST_INVALID]
        assert len(invalid) == 1
        assert invalid[0].attrs["codes"] == ["ACE204"]
