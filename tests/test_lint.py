"""Tests for the repro.lint subsystem (Tier A and Tier B)."""

import json

import pytest

from repro.cluster import paper_cluster
from repro.lint import (
    CODES,
    ERROR,
    WARNING,
    Diagnostic,
    analyze_config,
    analyze_memory,
    analyze_request,
    analyze_source,
    analyze_structure,
    max_severity,
)
from repro.lint.config_rules import analyze_weight_state
from repro.lint.requests import analyze_plan_request
from repro.parallel import (
    ConfigError,
    ParallelConfig,
    StageConfig,
    balanced_config,
    validate_config,
)

from conftest import (
    make_activation_heavy_gpt,
    make_tight_cluster,
    make_tiny_gpt,
)


@pytest.fixture()
def graph():
    return make_tiny_gpt()


@pytest.fixture()
def cluster():
    return paper_cluster(4)


def good_config(graph):
    n = graph.num_ops
    return ParallelConfig(
        stages=[
            StageConfig.uniform(0, n // 2, 2, tp=1),
            StageConfig.uniform(n // 2, n, 2, tp=2),
        ],
        microbatch_size=2,
    )


class TestDiagnostic:
    def test_round_trip(self):
        diag = Diagnostic(
            "ACE201",
            "stage 0 is too big",
            location="stage 0",
            hint="shrink it",
            attrs={"peak_bytes": 1.0},
        )
        assert Diagnostic.from_json(diag.to_json()) == diag

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("ACE999", "nope")

    def test_titles_exist_for_every_code(self):
        for code, title in CODES.items():
            assert code.startswith("ACE") and title

    def test_render_mentions_code_and_location(self):
        diag = Diagnostic("ACE101", "bad span", location="stage 3")
        text = diag.render()
        assert "ACE101" in text and "stage 3" in text

    def test_max_severity(self):
        warn = Diagnostic("ACE301", "odd", severity=WARNING)
        err = Diagnostic("ACE301", "bad")
        assert max_severity([]) is None
        assert max_severity([warn]) == WARNING
        assert max_severity([warn, err]) == ERROR


class TestAnalyzeStructure:
    def test_clean_config(self, graph, cluster):
        assert analyze_structure(good_config(graph), graph, cluster) == []

    def test_balanced_configs_clean(self, graph, cluster):
        for stages in (1, 2, 4):
            config = balanced_config(graph, cluster, stages)
            assert analyze_structure(config, graph, cluster) == []

    def breakers(self, graph):
        """(mutator, expected code) pairs covering every ACE1xx rule."""
        def incomplete(config):
            n = graph.num_ops
            return ParallelConfig(
                stages=[StageConfig.uniform(0, n - 1, 4)],
                microbatch_size=4,
            )

        def short(config):
            n = graph.num_ops
            return ParallelConfig(
                stages=[StageConfig.uniform(0, n, 2)], microbatch_size=2
            )

        def mutate(apply):
            def build(config):
                apply(config)
                return config
            return build

        return [
            (incomplete, "ACE103"),
            (short, "ACE111"),
            (mutate(lambda c: c.stages[0].tp.__setitem__(0, 2)), "ACE122"),
            (mutate(lambda c: c.stages[0].tp.__setitem__(
                slice(None), 0)), "ACE120"),
            (mutate(lambda c: c.stages[0].tp_dim.__setitem__(
                slice(None), 99)), "ACE131"),
            (mutate(lambda c: c.stages[0].tp_dim.__setitem__(0, -1)),
             "ACE130"),
            (mutate(lambda c: setattr(c, "microbatch_size", 3)), "ACE140"),
            (mutate(lambda c: setattr(c, "microbatch_size", 1)), "ACE141"),
        ]

    def test_first_diagnostic_matches_validate_config(
        self, graph, cluster
    ):
        """The analyzer's first finding IS the legacy ConfigError."""
        for build, code in self.breakers(graph):
            config = build(good_config(graph))
            diagnostics = analyze_structure(config, graph, cluster)
            assert diagnostics, f"nothing found for {code}"
            assert diagnostics[0].code == code
            with pytest.raises(ConfigError) as exc_info:
                validate_config(config, graph, cluster)
            assert str(exc_info.value) == diagnostics[0].message

    def test_collects_multiple_violations(self, graph, cluster):
        config = good_config(graph)
        config.stages[0].tp[0] = 2  # ACE122
        config.microbatch_size = 3  # ACE140
        codes = {
            d.code for d in analyze_structure(config, graph, cluster)
        }
        assert {"ACE122", "ACE140"} <= codes

    def test_gap_in_spans(self, graph, cluster):
        config = good_config(graph)
        config.stages[1].start += 1
        config.stages[1].tp = config.stages[1].tp[1:]
        config.stages[1].dp = config.stages[1].dp[1:]
        config.stages[1].tp_dim = config.stages[1].tp_dim[1:]
        config.stages[1].recompute = config.stages[1].recompute[1:]
        diagnostics = analyze_structure(config, graph, cluster)
        assert diagnostics[0].code == "ACE101"


class TestAnalyzeMemory:
    def test_feasible_config_clean(self, graph, cluster):
        config = balanced_config(graph, cluster, 2)
        assert analyze_memory(config, graph, cluster) == []

    def test_oom_config_reports_ace201_with_overage(self):
        graph = make_activation_heavy_gpt()
        cluster = make_tight_cluster(num_gpus=4, memory_mb=64)
        config = balanced_config(graph, cluster, 2, microbatch_size=16)
        diagnostics = analyze_memory(config, graph, cluster)
        assert diagnostics
        for diag in diagnostics:
            assert diag.code == "ACE201"
            assert diag.attrs["overage_bytes"] > 0
            assert (
                diag.attrs["peak_bytes"]
                == diag.attrs["limit_bytes"] + diag.attrs["overage_bytes"]
            )

    def test_each_stage_is_held_to_its_own_limit(self):
        """On a mixed cluster stage 1 runs on 4 GiB devices: 5.57 GiB
        is under the 40 GiB reference A100 but over its own limit."""
        from repro.cluster import DeviceSpec, a100, mixed_cluster
        from repro.ir.models.registry import build_model

        cluster = mixed_cluster(
            [a100(), DeviceSpec(name="small", memory_bytes=4 * 2**30)],
            gpus_per_node=2,
            reference=a100(),
        )
        graph = build_model("gpt3-350m", batch_size=64)
        config = balanced_config(graph, cluster, 2)
        diagnostics = analyze_memory(config, graph, cluster)
        assert [(d.code, d.location) for d in diagnostics] == [
            ("ACE201", "stage 1")
        ]
        assert diagnostics[0].attrs["limit_bytes"] == 4 * 2**30
        assert "device capacity 4.00 GiB" in diagnostics[0].message

    def test_analyze_config_runs_memory_only_when_structure_clean(
        self, graph, cluster
    ):
        config = good_config(graph)
        config.microbatch_size = 3
        codes = {d.code for d in analyze_config(config, graph, cluster)}
        assert "ACE140" in codes
        assert not any(c.startswith("ACE2") for c in codes)

    def test_weight_state_bound(self, graph):
        tight = make_tight_cluster(num_gpus=1, memory_mb=0.05)
        diagnostics = analyze_weight_state(graph, tight)
        assert [d.code for d in diagnostics] == ["ACE202"]
        roomy = paper_cluster(4)
        assert analyze_weight_state(graph, roomy) == []


class TestAnalyzeRequest:
    def test_valid_request_clean(self):
        request, diagnostics = analyze_request(
            {"model": "gpt-2l", "gpus": 4}
        )
        assert request is not None
        assert diagnostics == []

    def test_parametric_model_accepted(self):
        _, diagnostics = analyze_request({"model": "gpt-4l", "gpus": 8})
        assert diagnostics == []

    def test_malformed_payload_is_ace330(self):
        request, diagnostics = analyze_request({"gpus": 4})
        assert request is None
        assert [d.code for d in diagnostics] == ["ACE330"]

    def test_unknown_field_is_ace330(self):
        request, diagnostics = analyze_request(
            {"model": "gpt-2l", "bogus": 1}
        )
        assert request is None
        assert [d.code for d in diagnostics] == ["ACE330"]

    def test_unknown_model_is_ace204(self):
        _, diagnostics = analyze_request({"model": "no-such-model"})
        assert [d.code for d in diagnostics] == ["ACE204"]

    def test_bad_cluster_size_is_ace203(self):
        from repro.service.protocol import PlanRequest

        request = PlanRequest(model="gpt-2l", gpus=12)
        codes = [d.code for d in analyze_plan_request(request)]
        assert codes == ["ACE203"]


class TestTierBDeterminism:
    def lint(self, source, module_path="core/x.py"):
        return analyze_source(
            source, "fixture.py", module_path=module_path
        )

    def test_unseeded_random_in_core(self):
        diagnostics = self.lint(
            "import random\nr = random.Random()\n"
        )
        assert [d.code for d in diagnostics] == ["ACE901"]

    def test_seeded_random_ok(self):
        assert self.lint(
            "import random\nr = random.Random(42)\n"
        ) == []

    def test_module_level_random_banned(self):
        diagnostics = self.lint(
            "import random\nx = random.randint(0, 4)\n"
        )
        assert [d.code for d in diagnostics] == ["ACE901"]

    def test_numpy_alias_resolved(self):
        diagnostics = self.lint(
            "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert [d.code for d in diagnostics] == ["ACE901"]

    def test_unseeded_default_rng_flagged_seeded_ok(self):
        bad = self.lint(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert [d.code for d in bad] == ["ACE901"]
        assert self.lint(
            "import numpy as np\nrng = np.random.default_rng(0)\n"
        ) == []

    def test_wall_clock_banned_monotonic_ok(self):
        assert [d.code for d in self.lint(
            "import time\nt = time.time()\n"
        )] == ["ACE901"]
        assert self.lint(
            "import time\nt = time.perf_counter()\n"
        ) == []

    def test_from_import_alias(self):
        diagnostics = self.lint(
            "from time import time as now\nt = now()\n"
        )
        assert [d.code for d in diagnostics] == ["ACE901"]

    def test_non_deterministic_module_exempt(self):
        assert self.lint(
            "import time\nt = time.time()\n",
            module_path="telemetry/bus.py",
        ) == []


class TestTierBTelemetry:
    def lint(self, source):
        return analyze_source(
            source, "fixture.py", module_path="service/x.py"
        )

    def test_registered_literal_ok(self):
        assert self.lint(
            'bus.emit("service.start", source="service")\n'
        ) == []

    def test_unregistered_literal_is_ace903(self):
        diagnostics = self.lint('bus.emit("service.bogus.name")\n')
        assert [d.code for d in diagnostics] == ["ACE903"]

    def test_registry_constant_ok(self):
        assert self.lint(
            "from repro.telemetry.events import SERVICE_START\n"
            "bus.emit(SERVICE_START)\n"
        ) == []

    def test_unknown_registry_constant_is_ace903(self):
        diagnostics = self.lint(
            "from repro.telemetry.events import NOPE\nbus.emit(NOPE)\n"
        )
        assert [d.code for d in diagnostics] == ["ACE903"]

    def test_dynamic_name_is_ace902(self):
        diagnostics = self.lint('bus.emit("x" + suffix)\n')
        assert [d.code for d in diagnostics] == ["ACE902"]

    def test_suppression_comment(self):
        assert self.lint(
            'bus.emit(name or "x.y")  # lint: allow(ACE902)\n'
        ) == []


class TestTierBSerializationAndExcepts:
    def lint(self, source):
        return analyze_source(
            source, "fixture.py", module_path="telemetry/x.py"
        )

    def test_to_json_without_from_json(self):
        diagnostics = self.lint(
            "class Thing:\n"
            "    def to_json(self):\n"
            "        return {}\n"
        )
        assert [d.code for d in diagnostics] == ["ACE904"]

    def test_round_trip_class_ok(self):
        assert self.lint(
            "class Thing:\n"
            "    def to_json(self):\n"
            "        return {}\n"
            "    @classmethod\n"
            "    def from_json(cls, data):\n"
            "        return cls()\n"
        ) == []

    def test_bare_except(self):
        diagnostics = self.lint(
            "try:\n    x = 1\nexcept:\n    pass\n"
        )
        assert [d.code for d in diagnostics] == ["ACE905"]


class TestCLI:
    def run(self, *argv):
        from repro.lint.cli import lint_main

        return lint_main(list(argv))

    def test_clean_tree_exits_zero(self, capsys):
        assert self.run("src/repro/lint", "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["error"] == 0
        assert report["files_checked"] > 0

    def test_bad_artifact_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "deadbeefdeadbeef.ckpt.json"
        bad.write_text("{not json")
        assert self.run(str(bad)) == 1
        out = capsys.readouterr().out
        assert "ACE320" in out

    def test_select_filters_codes(self, tmp_path, capsys):
        bad = tmp_path / "WRONG.plan.json"
        bad.write_text(json.dumps({"plan": {}, "objective": "x"}))
        # The fixture only violates ACE31x rules, so selecting an
        # unrelated family reports clean while ACE31x still fails.
        assert self.run(str(bad), "--select", "ACE9") == 0
        assert self.run(str(bad), "--rule", "ACE311") == 1

    def test_json_report_written(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = self.run(
            "src/repro/lint/diagnostics.py", "-o", str(target)
        )
        assert code == 0
        report = json.loads(target.read_text())
        assert report["files_checked"] == 1

    def test_missing_path_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            self.run("no/such/path")
        assert exc_info.value.code == 2

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert self.run(str(broken)) == 2
