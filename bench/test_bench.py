"""Smoke test of the benchmark: every workload at a tiny size through the
same code path, correctness gate and traced run included.

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "cli-test-n1000": dict(group_sizes=(8, 10, 12, 10), p=20),
    "mc-wide-p": dict(group_sizes=(16, 24), p=30),
    "mc-growth-n1200": dict(group_sizes=(10, 10, 10, 10), p=20),
}


def tiny(name):
    return replace(run.WORKLOADS[name], mc_reps=100, **TINY[name])


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(TINY) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_workload(name, trace):
    result, record = run.run_workload(tiny(name), seed=3, seconds=0.5, trace=bool(trace))
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    assert record["provenance"]["design_sha256"]


def test_gate_counts_a_wrong_report(monkeypatch):
    monkeypatch.setattr(run.Run, "prepare_references", _skewed_references)
    result, record = run.run_workload(tiny("mc-wide-p"), seed=3, seconds=0.2, trace=False)
    assert not result["correct"]
    assert result["failed"] == record["test_s"]["count"] >= run.MIN_TEST_CALLS
    assert all("t_stat" in f for f in record["failures"])


_prepare = run.Run.prepare_references


def _skewed_references(self):
    _prepare(self)
    self.oracle_t += 1.0


@pytest.mark.parametrize("rate, per_call", [(0.0, False), (0.25, True)])
def test_gate_counts_a_skewed_rejection_rate(monkeypatch, rate, per_call):
    """A null rate of 0 passes each 100-rep call and fails only pooled; a
    rate of 0.25 fails every call as well."""
    gm = run.load_package()
    monte_carlo = gm.monte_carlo

    def skewed(*args, **kwargs):
        return replace(monte_carlo(*args, **kwargs), rejection_rate=rate)

    monkeypatch.setattr(gm, "monte_carlo", skewed)
    result, record = run.run_workload(tiny("mc-wide-p"), seed=3, seconds=0.2, trace=False)
    assert not result["correct"]
    pooled = [f for f in record["failures"] if "pooled" in f]
    per_call_failures = [f for f in record["failures"] if "pooled" not in f]
    assert len(pooled) == 1
    calls = 2 * len(record["mc_reps_per_s_t1"]["values"]) + 1  # pairs, peak pass
    assert len(per_call_failures) == (calls if per_call else 0)


def test_fails_without_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "mc-wide-p", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
