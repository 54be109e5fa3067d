"""Tests for the command-line entry points."""

import json

import pytest

from repro.cli import compare_main, search_main


def _exit_code(argv):
    """``search_main``'s exit code, whether returned or raised by
    argparse."""
    try:
        return search_main(argv)
    except SystemExit as exc:
        return exc.code


class TestSearchMain:
    def test_text_output(self, capsys):
        code = search_main(
            ["--model", "gpt3-350m", "--gpus", "2", "--iterations", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "stage 0" in out

    def test_json_output(self, capsys):
        code = search_main(
            [
                "--model", "gpt3-350m", "--gpus", "2",
                "--iterations", "3", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "gpt3-350m"
        assert payload["throughput_samples_per_s"] > 0

    def test_stage_counts_flag(self, capsys):
        code = search_main(
            [
                "--model", "gpt3-350m", "--gpus", "2",
                "--iterations", "2", "--stage-counts", "2",
            ]
        )
        assert code == 0
        assert "2-stage pipeline" in capsys.readouterr().out

    def test_workers_flag(self, capsys):
        code = search_main(
            [
                "--model", "gpt3-350m", "--gpus", "2",
                "--iterations", "2", "--workers", "2", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["search_workers"] == 2
        assert payload["search_seconds_wall"] > 0
        assert payload["throughput_samples_per_s"] > 0

    def test_bad_model_exits_2(self, capsys):
        code = _exit_code(["--model", "bogus-1b", "--iterations", "1"])
        assert code == 2
        assert "ACE204" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--model", "nope"],
        ["--model", "gpt-2l", "--stage-counts"],
        ["--model", "gpt-2l", "--gpus", "0"],
        ["--model", "gpt-2l", "--deadline", "-1"],
        ["--model", "gpt-2l", "--iterations", "0"],
        ["--model", "gpt-2l", "--workers", "0"],
        # Cannot fit one GPU under any plan: the daemon's ACE202.
        ["--model", "gpt3-13b", "--gpus", "1"],
        # A known strategy argument of the wrong type: ACE213.
        ["--model", "gpt-2l", "--strategy", "mcmc",
         "--strategy-arg", "cooling=abc"],
    ])
    def test_bad_input_exits_2_with_a_message(self, argv, capsys):
        assert _exit_code(["--iterations", "1"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repro-search" in captured.err


class TestEstimateMain:
    def test_roundtrip_with_search(self, tmp_path, capsys):
        from repro.cli import estimate_main, search_main

        plan = tmp_path / "plan.json"
        search_main(
            [
                "--model", "gpt3-350m", "--gpus", "2",
                "--iterations", "2", "--output", str(plan),
            ]
        )
        capsys.readouterr()
        code = estimate_main(
            ["--model", "gpt3-350m", "--gpus", "2", str(plan), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["actual_oom"] is False
        assert payload["throughput_samples_per_s"] > 0

    def test_wrong_cluster_rejected(self, tmp_path, capsys):
        from repro.cli import estimate_main, search_main
        from repro.parallel import ConfigError

        plan = tmp_path / "plan.json"
        search_main(
            [
                "--model", "gpt3-350m", "--gpus", "2",
                "--iterations", "2", "--output", str(plan),
            ]
        )
        capsys.readouterr()
        with pytest.raises(ConfigError):
            estimate_main(
                ["--model", "gpt3-350m", "--gpus", "4", str(plan)]
            )


class TestCompareMain:
    def test_json_output(self, capsys):
        code = compare_main(
            [
                "--model", "gpt3-350m", "--gpus", "2",
                "--iterations", "3", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"megatron", "alpa", "aceso"}
        for stats in payload.values():
            assert stats["throughput"] > 0

    def test_text_table(self, capsys):
        code = compare_main(
            ["--model", "gpt3-350m", "--gpus", "2", "--iterations", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "system" in out
        assert "aceso" in out
