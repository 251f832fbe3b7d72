"""The benchmark's op checks: failures are counted, never raised or hidden."""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, search, sr  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return json.loads((HERE / "reference.json").read_text())["digests"]


@pytest.fixture
def sr_files(tmp_path, reference):
    deck = search(sr("c5")) + search(sr("k4"))
    files, failures, _ = harness.generate(deck, tmp_path, reference)
    assert failures == []
    return deck, files


def test_not_real_rooted_op_is_counted_as_failed(sr_files, reference):
    deck, files = sr_files
    blocked = next(op for op in deck if op.key == "solve sr-ust:c5 --method blocked")
    result = harness.run_op(blocked, files, reference, harness.optima(deck, files))
    assert result.failure.startswith("exit 1")
    assert "not real-rooted" in result.failure
    assert not result.incorrect  # it failed at the reference commit too
    summary = harness.summarize([blocked], [(0, result)])
    assert summary["failed"] == 1 and summary["fail_share"] == 1.0


def test_escaping_exception_is_counted_as_failed(sr_files, reference):
    deck, files = sr_files
    brute = next(op for op in deck if op.key == "solve sr-ust:k4 --method brute")
    result = harness.run_op(brute, files, reference, {})
    assert result.failure.startswith("raised ValueError")


def test_reference_mismatch_is_a_failed_incorrect_op(sr_files):
    deck, files = sr_files
    blocked = next(op for op in deck if op.key == "solve sr-ust:k4 --method blocked")
    result = harness.run_op(blocked, files, {blocked.key: "0" * 64}, {})
    assert result.failure == "stdout differs from the reference"
    assert result.incorrect


def test_matching_op_passes_and_reports_its_gap(sr_files, reference):
    deck, files = sr_files
    blocked = next(op for op in deck if op.key == "solve sr-ust:k4 --method blocked")
    assert blocked.key in reference
    optimum = harness.optima(deck, files)
    result = harness.run_op(blocked, files, reference, optimum)
    assert result.failure is None and not result.incorrect
    assert result.gap >= 1.0 - 1e-9


def test_semantic_checks_bound_the_blocked_result():
    op = Op(("solve", workloads.FILE, "--method", "blocked"), sr("k4"))
    assert harness.semantic_failure(op, {"certified": 1.0, "bound": 2.0}, 0.5) is None
    assert "exceeds bound" in harness.semantic_failure(op, {"certified": 3.0, "bound": 2.0}, 0.5)
    assert "below the brute optimum" in harness.semantic_failure(
        op, {"certified": 1.0, "bound": 2.0}, 1.5)
    verify = Op(("verify", "--suite", "all"))
    assert harness.semantic_failure(verify, {"passed": False}, None) == "verify did not pass"


def test_bench_digest_ignores_timing_columns():
    row = {"blocked": 1.0, "t_brute": 0.1, "t_blocked": 0.2}
    slow = dict(row, t_brute=9.0, t_blocked=9.0)
    a = json.dumps({"columns": [], "rows": [row]})
    b = json.dumps({"columns": [], "rows": [slow]})
    assert harness.digest("bench", a) == harness.digest("bench", b)
    assert harness.digest("solve", a) != harness.digest("solve", b)


def test_every_drawable_op_is_named_once():
    for name in workloads.WORKLOADS:
        keys = [op.key for op in workloads.every_op(name)]
        assert len(keys) == len(set(keys))
        assert {op.key for op in workloads.deck(name, 0)} <= set(keys)
        assert workloads.deck(name, 3) == workloads.deck(name, 3)


def test_closed_loop_runs_whole_passes_so_failures_repeat(sr_files, reference):
    deck, files = sr_files
    optimum = harness.optima(deck, files)
    counts = []
    for _ in range(2):
        calibrations = []
        results, passes = harness.closed_loop(deck, files, reference, optimum, 3, 60.0,
                                              random.Random(0), calibrations)
        assert passes == 3 and len(results) == 3 * len(deck)
        assert len(calibrations) == len(results) + 1
        summary = harness.summarize(deck, results, calibrations)
        counts.append((summary["samples"], summary["failed"]))
    assert counts[0] == counts[1] and counts[0][1] > 0


def test_passes_depend_on_the_seconds_alone():
    for name in workloads.WORKLOADS:
        assert workloads.passes(name, 0.1) == 2
        assert workloads.passes(name, 60) > workloads.passes(name, 10)
