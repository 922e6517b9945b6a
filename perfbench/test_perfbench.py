"""Tests of the benchmark itself: determinism, metric names, self time, error counting."""

import json
from pathlib import Path

import pytest

import bench
import masec.gradients
import masec.optimizer
import workloads
from tracer import Target, Tracer, self_times

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_ops_and_digest(name):
    wl = workloads.WORKLOADS[name]
    runs = []
    for seed in (7, 7, 8):
        rec = bench.Recorder(wl, seed)
        rec.replay(2)
        assert rec.failed == 0, rec.failures
        runs.append(rec.summaries)
    assert runs[0] == runs[1]
    assert bench.digest(runs[0]) == bench.digest(runs[1])
    assert bench.digest(runs[0]) != bench.digest(runs[2])


def test_benchmark_json_is_written_from_the_definitions():
    assert bench.spec() == SPEC


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metrics_match_benchmark_json(trace):
    record = bench.run("onedsearch-n6", seed=3, seconds=0.0, trace=trace, min_ops=1, setup_reps=1)
    key = "per_layer" if trace else "end_to_end"
    spec = {m["name"]: m for m in SPEC[key]}
    metrics = record["result"]["metrics"]
    assert list(metrics) == list(spec)
    for name, unit, *_ in bench.PER_LAYER if trace else bench.END_TO_END:
        assert metrics[name]["unit"] == spec[name]["unit"] == unit
    assert set(record["result"]) == {"correct", "attempted", "failed", "metrics"}
    assert record["result"]["correct"] and record["details"]["error_ratio"] == 0.0


def test_self_time_on_synthetic_nested_calls():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 4.75, 5.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())
    inner = tracer.wrap("inner", lambda: None)

    def outer():
        inner()  # 1 .. 3
        mid()  # 4 .. 5, with leaf 4.5 .. 4.75

    tracer.run_op(0, outer)  # 0 .. 10
    spans = tracer.spans()
    own = self_times(spans["start"], spans["end"], spans["parent"])
    own = dict(zip(spans["names"][spans["name_id"]], own))
    assert own == {"op": 7.0, "inner": 2.0, "mid": 0.75, "leaf": 0.25}
    assert list(spans["parent"]) == [-1, 0, 0, 2]


def test_self_time_merges_overlapping_and_clips_overhanging_children():
    # parent [0, 10]; children [1, 4], [3, 6] overlap, [9, 12] overhangs
    own = self_times([0, 1, 3, 9], [10, 4, 6, 12], [-1, 0, 0, 0])
    assert own[0] == pytest.approx(10 - 5 - 1)
    assert list(own[1:]) == [3, 3, 3]


def test_scaling_follows_the_nearest_kernel_runs():
    ref = bench.REF_CAL_MS / 1e3
    kernel = [ref] * 10 + [2 * ref] * 10  # the machine halves its speed at op 10
    out = bench.scaled([0.1] * 20, kernel)
    assert out[:6] == pytest.approx([0.1] * 6)
    assert out[-6:] == pytest.approx([0.05] * 6)


def test_forced_check_failure_raises_error_ratio(monkeypatch):
    wl = workloads.WORKLOADS["onedsearch-n6"]
    real_check = wl.check
    calls = []

    def check_failing_once(result):
        calls.append(result)
        return ["forced failure"] if len(calls) == 2 else real_check(result)

    monkeypatch.setattr(wl, "check", check_failing_once)
    record = bench.run(wl.name, seed=3, seconds=0.0, trace=False, min_ops=2, setup_reps=1)
    result = record["result"]
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, False)
    assert record["details"]["error_ratio"] == pytest.approx(1 / 3)


def test_raising_op_counts_as_failed(monkeypatch):
    wl = workloads.WORKLOADS["onedsearch-n6"]

    def broken_op(seed, index):
        raise RuntimeError("forced")

    monkeypatch.setattr(wl, "op", broken_op)
    rec = bench.Recorder(wl, 3)
    rec.replay(2)
    assert (rec.attempted, rec.failed) == (2, 2)
    assert rec.secrecies == [None, None]


def test_tracer_marks_missing_targets_absent_and_restores_names():
    grad_w_batch = masec.gradients.grad_w_batch
    tracer = Tracer()
    tracer.install(
        bench.TARGETS
        + [
            Target("gone.function", "masec.optimizer", "no_such_function"),
            Target("gone.method", "masec.channel", "GainSampler.no_such_method"),
            Target("gone.module", "masec.no_such_module", "f"),
        ]
    )
    try:
        assert tracer.absent == ["gone.function", "gone.method", "gone.module"]
        assert masec.optimizer.grad_w_batch is not grad_w_batch
        assert masec.gradients.grad_w_batch is masec.optimizer.grad_w_batch
    finally:
        tracer.uninstall()
    assert masec.optimizer.grad_w_batch is grad_w_batch
    assert masec.gradients.grad_w_batch is grad_w_batch
