"""Verdicts of ``scripts/e2e_pairs.py`` on hand-made pairs."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "e2e_pairs.py"
_spec = importlib.util.spec_from_file_location("e2e_pairs", _SCRIPT)
e2e_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_pairs)


def _pairs(parent, change):
    return list(zip(parent, change))


PARENT = [2.20, 2.22, 2.24, 2.25, 2.26, 2.24, 2.23, 2.21, 2.25, 2.22]


@pytest.mark.parametrize("better,sign", [("lower", 1.0), ("higher", -1.0)])
def test_gain_needs_nine_wins_and_a_gap_above_the_iqr(better, sign):
    parent = [sign * v for v in PARENT]
    faster = [sign * (v - 0.2) for v in PARENT]
    assert e2e_pairs.verdict(_pairs(parent, faster), better, 0.25) == "gain"
    # Eight wins in ten is not a claim.
    mixed = faster[:8] + parent[8:]
    assert e2e_pairs.verdict(_pairs(parent, mixed), better, 0.25) == "same"
    # Ten wins by less than the parent's IQR is not one either.
    tiny = [sign * (v - 0.001) for v in PARENT]
    assert e2e_pairs.verdict(_pairs(parent, tiny), better, 0.25) == "same"


def test_worse_past_the_relative_bound():
    slower = [v * 1.3 for v in PARENT]
    assert e2e_pairs.verdict(_pairs(PARENT, slower), "lower", 0.25) == "worse"
    assert e2e_pairs.verdict(_pairs(PARENT, slower), "lower", 0.5) == "same"
    fewer = [v / 1.5 for v in PARENT]
    assert e2e_pairs.verdict(_pairs(PARENT, fewer), "higher", 0.25) == "worse"


def test_unresolved_when_the_parent_spreads_past_the_bound():
    noisy = [1.0, 2.7, 1.2, 2.5, 1.1, 2.6, 1.3, 2.4, 1.0, 2.8]
    change = [v * 1.05 for v in noisy]
    assert e2e_pairs.verdict(_pairs(noisy, change), "lower", 0.25) == (
        "unresolved"
    )
    # Every change run beating every parent run resolves it, even with
    # a median gap (1.35) inside the parent's IQR (1.45).
    clear = [0.5] * len(noisy)
    assert e2e_pairs.verdict(_pairs(noisy, clear), "lower", 0.25) == "same"


def test_claim_reads_the_first_workload_and_worse_anywhere():
    verdicts = {
        "search-1000l": {"plan_s": "gain", "setup_s": "same"},
        "serve-mixed": {"plan_s": "same", "latency_p50_ms": "unresolved"},
    }
    assert e2e_pairs.claim_holds(verdicts, "search-1000l", "plan_s")
    # The gain must be on the first workload named.
    assert not e2e_pairs.claim_holds(verdicts, "serve-mixed", "plan_s")
    # A worse metric on any workload voids the claim.
    verdicts["serve-mixed"]["peak_rss_mb"] = "worse"
    assert not e2e_pairs.claim_holds(verdicts, "search-1000l", "plan_s")


def _fake_runs(plan_s):
    """A ``run_side`` stand-in: ``plan_s[(workload, side)]`` per run."""
    def run_side(root, workload, seed, seconds, trace=0):
        assert not trace
        value = plan_s[(workload, root.name)] + 0.001 * seed
        return {"correct": True, "failed": 0, "returncode": 0,
                "metrics": {"plan_s": {"value": value}}}
    return run_side


def _checkouts(tmp_path):
    roots = []
    for side in ("parent", "change"):
        root = tmp_path / side
        root.mkdir()
        (root / "BENCHMARK.json").write_text(
            (_SCRIPT.parents[1] / "BENCHMARK.json").read_text())
        roots.append(str(root))
    return roots


def test_each_workload_gets_its_own_pairs_and_table(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(e2e_pairs, "run_side", _fake_runs({
        ("search-1000l", "parent"): 1.0, ("search-1000l", "change"): 0.8,
        ("serve-mixed", "parent"): 0.2, ("serve-mixed", "change"): 0.2,
    }))
    argv = _checkouts(tmp_path) + [
        "--workload", "search-1000l", "--workload", "serve-mixed",
        "--pairs", "3", "--claim", "plan_s",
    ]
    assert e2e_pairs.main(argv) == 0
    out = capsys.readouterr().out
    first, second = out.split("== serve-mixed")
    assert "== search-1000l" in first
    for section in (first, second):
        assert section.count("seed ") == 6  # 3 pairs, two sides each
        rows = [ln for ln in section.splitlines() if ln.startswith("plan_s")]
        assert len(rows) == 1  # one table row
    assert "3/3 gain" in first and "0/3 same" in second
    assert "claim plan_s on search-1000l: holds" in out


def test_claim_fails_on_worse_elsewhere_or_gain_not_first(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(e2e_pairs, "run_side", _fake_runs({
        ("search-1000l", "parent"): 1.0, ("search-1000l", "change"): 0.8,
        ("serve-mixed", "parent"): 0.2, ("serve-mixed", "change"): 0.3,
    }))
    roots = _checkouts(tmp_path)
    worse = ["--workload", "search-1000l", "--workload", "serve-mixed"]
    assert e2e_pairs.main(
        roots + worse + ["--pairs", "3", "--claim", "plan_s"]) == 2
    # Without a claim, a worse metric alone does not fail the run.
    assert e2e_pairs.main(roots + worse + ["--pairs", "3"]) == 0
    gain_second = ["--workload", "serve-mixed", "--workload", "search-1000l"]
    monkeypatch.setattr(e2e_pairs, "run_side", _fake_runs({
        ("search-1000l", "parent"): 1.0, ("search-1000l", "change"): 0.8,
        ("serve-mixed", "parent"): 0.2, ("serve-mixed", "change"): 0.2,
    }))
    assert e2e_pairs.main(
        roots + gain_second + ["--pairs", "3", "--claim", "plan_s"]) == 2
    assert "claim plan_s on serve-mixed: fails" in capsys.readouterr().out


def test_a_workload_named_twice_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        e2e_pairs.main(_checkouts(tmp_path) + [
            "--workload", "search-1000l", "--workload", "search-1000l"])
    assert exc.value.code == 2


def _fake_traced_runs(self_s, calls):
    """A traced ``run_side`` stand-in: ``self_s[side][layer]`` seconds
    plus ``seed`` ms per run, and the seconds and trace flags seen."""
    def run_side(root, workload, seed, seconds, trace=0):
        calls.append((root.name, workload, seed, seconds, trace))
        metrics = {f"{layer}.self_s": {"value": value + 0.001 * seed}
                   for layer, value in self_s[root.name].items()}
        metrics["perfmodel.stage_cost.calls"] = {"value": 100.0}
        metrics["gone.layer.self_s"] = {"value": None, "missing": True}
        return {"correct": True, "failed": 0, "returncode": 0,
                "metrics": metrics}
    return run_side


def test_trace_pairs_print_layer_medians_and_the_parent_range(
    tmp_path, monkeypatch, capsys
):
    calls = []
    monkeypatch.setattr(e2e_pairs, "run_side", _fake_traced_runs({
        "parent": {"parallel.validation.validate_config": 0.195,
                   "perfmodel.stage_cost": 0.335},
        "change": {"parallel.validation.validate_config": 0.093,
                   "perfmodel.stage_cost": 0.335},
    }, calls))
    argv = _checkouts(tmp_path) + [
        "--workload", "search-1000l", "--pairs", "0", "--trace-pairs", "3"]
    assert e2e_pairs.main(argv) == 0
    # Only traced runs, sides alternating per seed, at the fixed length.
    assert calls == [
        ("parent", "search-1000l", 0, e2e_pairs.TRACE_SECONDS, 1),
        ("change", "search-1000l", 0, e2e_pairs.TRACE_SECONDS, 1),
        ("change", "search-1000l", 1, e2e_pairs.TRACE_SECONDS, 1),
        ("parent", "search-1000l", 1, e2e_pairs.TRACE_SECONDS, 1),
        ("parent", "search-1000l", 2, e2e_pairs.TRACE_SECONDS, 1),
        ("change", "search-1000l", 2, e2e_pairs.TRACE_SECONDS, 1),
    ]
    rows = {line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith(("parallel.", "perfmodel.", "gone."))}
    assert rows["parallel.validation.validate_config"] == [
        "0.1960", "0.0940", "-52.0%", "0.1950-0.1970"]
    assert rows["perfmodel.stage_cost"] == [
        "0.3360", "0.3360", "+0.0%", "0.3350-0.3370"]
    assert rows["gone.layer"] == ["missing"]
    assert "perfmodel.stage_cost.calls" not in rows


def test_layer_table_returns_medians_and_range():
    def run(value):
        return {"metrics": {"a.self_s": {"value": value}}}

    pairs = [(run(1.0), run(0.5)), (run(3.0), run(0.7)), (run(2.0), run(0.6))]
    assert e2e_pairs.layer_table(pairs) == {"a": (2.0, 0.6, 1.0, 3.0)}


def test_trace_pairs_fail_on_a_broken_run(tmp_path, monkeypatch):
    def broken_side(root, workload, seed, seconds, trace=0):
        return {"correct": root.name == "parent", "failed": 0,
                "returncode": 0, "metrics": {}}

    monkeypatch.setattr(e2e_pairs, "run_side", broken_side)
    argv = _checkouts(tmp_path) + [
        "--workload", "search-1000l", "--pairs", "0", "--trace-pairs", "1"]
    assert e2e_pairs.main(argv) == 1


@pytest.mark.parametrize("extra", [
    ["--pairs", "0"],
    ["--pairs", "0", "--trace-pairs", "2", "--claim", "plan_s"],
    ["--trace-pairs", "-1"],
])
def test_trace_pair_usage_errors(tmp_path, extra):
    with pytest.raises(SystemExit) as exc:
        e2e_pairs.main(_checkouts(tmp_path) + [
            "--workload", "search-1000l"] + extra)
    assert exc.value.code == 2
