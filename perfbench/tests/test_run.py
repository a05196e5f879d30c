"""Tests of the benchmark itself, at toy sizes: python -m pytest perfbench/tests"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

from moeforge import cli, moe  # noqa: E402
from tracing import self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Toy shapes and a short tune, so one run takes about a second."""
    monkeypatch.setitem(run.DISPATCH, "dispatch-dense", run.DispatchShape(200, 8, 16, 3, 2, 2, threads=2))
    monkeypatch.setattr(run, "TUNE_CONFIG", {"train": {"steps": 5, "eval_tokens": 100, "probe_tokens": 16}})
    monkeypatch.setattr(run, "ORACLE_ROWS", 16)
    monkeypatch.setattr(run, "OUT", tmp_path)


def bench(capsys, workload, trace="0"):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["dispatch-dense", "tune-toy"])
def test_prints_every_declared_metric(small, capsys, workload, trace):
    code, result = bench(capsys, workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    spec = run.make_workload(workload, 3)
    assert result["attempted"] >= spec.setup_reps + (1 if trace == "1" else spec.min_ops)
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload == "dispatch-dense":
        # expert calls on pool threads were parented to their dispatch call
        assert result["metrics"]["moe.rows_per_expert_call"]["value"] > 0
        assert result["metrics"]["moe.dispatch_batch.pool_efficiency"]["value"] > 0
    else:
        assert result["metrics"]["harness.pretrain.s"]["value"] > 0
        assert result["metrics"]["serialize.write_trace_jsonl.mb"]["value"] > 0


def test_wrong_dispatch_output_counts_as_failure(small, capsys, monkeypatch):
    real, calls = moe.dispatch_batch, []

    def second_timed_call_wrong(layer, tokens, threads=1):
        out, trace = real(layer, tokens, threads)
        calls.append(threads)
        if len(calls) == 2 * run.SETUP_REPS + 2:  # set-up makes two calls a repetition
            out = out.copy()
            out[0, 0] = np.nextafter(out[0, 0], np.inf)
        return out, trace

    monkeypatch.setattr(moe, "dispatch_batch", second_timed_call_wrong)
    code, result = bench(capsys, "dispatch-dense")
    assert code == 1
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["dispatch_tok_s"]["value"] > 0


def test_thread_count_dependence_fails_set_up(small, capsys, monkeypatch):
    real = moe.dispatch_batch

    def thread_dependent(layer, tokens, threads=1):
        out, trace = real(layer, tokens, threads)
        return (np.nextafter(out, np.inf) if threads > 1 else out), trace

    monkeypatch.setattr(moe, "dispatch_batch", thread_dependent)
    code, result = bench(capsys, "dispatch-dense")
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


# Untraced, the second tune of the first seed follows one tune of each seed;
# traced, the first traced tune repeats the one untraced tune (--seconds 0).
@pytest.mark.parametrize(("trace", "nth_tune"), [("0", run.TUNE_SEEDS + 1), ("1", 2)])
def test_tune_output_differing_between_invocations_counts_as_failure(small, capsys, monkeypatch, trace, nth_tune):
    real, calls = cli.write_trace_jsonl, []

    def appends_on_nth_tune(path, trace):
        real(path, trace)
        calls.append(path)
        if len(calls) == nth_tune:
            with open(path, "a") as f:
                f.write("\n")

    monkeypatch.setattr(cli, "write_trace_jsonl", appends_on_nth_tune)
    code, result = bench(capsys, "tune-toy", trace)
    assert code == 1
    assert not result["correct"] and result["failed"] == 1


def test_step_clock_times_every_training_step(small):
    workload = run.make_workload("tune-toy", 3)
    try:
        for rep in range(workload.setup_reps):
            workload.setup(rep)
        times = [workload.op() for _ in range(workload.min_ops)]
    finally:
        workload.close()
    assert len(workload.step_s) == len(times) * workload.steps_per_op
    assert all(t > 0 for t in workload.step_s)
    # the steps and the rest of each tune add up to its wall time
    starts = np.arange(len(times)) * workload.steps_per_op
    np.testing.assert_allclose(np.add.reduceat(workload.step_s, starts) + workload.rest_s, times)
    assert 0 < workload.op_seconds(times) <= max(times)


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "dispatch-fine", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""


def test_self_time_subtracts_the_union_of_overlapping_children():
    # span 0 on thread 0 owns children on two pool threads that overlap
    # ([1, 4] and [2, 6] cover 5 s) and one on its own thread ([7, 8]).
    c = {"start": np.array([0.0, 1.0, 2.0, 7.0, 2.5]), "end": np.array([10.0, 4.0, 6.0, 8.0, 3.0]),
         "parent": np.array([-1, 0, 0, 0, 2]), "thread": np.array([0, 1, 2, 0, 2])}
    np.testing.assert_allclose(self_times(c, 0, 5), [4.0, 3.0, 3.5, 1.0, 0.5])
