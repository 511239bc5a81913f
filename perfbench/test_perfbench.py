"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They run tiny versions of the workloads in-process, so they take seconds,
not the benchmark's run length.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KERNEL_COUNTS = ("numerics.eig_calls", "predictor.level_tests",
                 "corrector.gn_iterations", "numerics.eig_gflop_computed")


def tiny(name, seed=3):
    if name == "eps-sweep":
        wl = workloads.EpsSweep(seed, n=3, m=2, N=10, grid=4)
        wl.trace_ops = 4
    elif name == "small-batch":
        wl = workloads.SmallBatch(seed, N=10)
        wl.trace_ops = 10
    else:
        wl = workloads.OracleGrid(seed, n=3, m=2, points=41)
        wl.trace_ops = 2
    return wl


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_emits_every_metric_with_its_unit(name, trace, tmp_path,
                                                 monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    result, details = run.run_workload(lambda: tiny(name), 0.2, trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["failed"] == len(details["failures"])
    assert result["correct"] == (result["failed"] == 0)
    assert result["attempted"] >= 1
    assert details["env"]["blas_threads"] == run.BLAS_THREADS
    json.dumps(result)
    json.dumps(details)


class OffByOneMilli:
    """Wraps a workload and moves every returned alpha_eps right by 1e-3."""

    def __init__(self, wl):
        self.wl = wl

    def __getattr__(self, attr):
        return getattr(self.wl, attr)

    def operation(self, inp):
        res = self.wl.operation(inp)
        return dataclasses.replace(res, alpha_eps=res.alpha_eps + 1e-3)


@pytest.mark.parametrize("name", ["eps-sweep", "small-batch"])
def test_checker_counts_alpha_off_by_1e_3_as_failure(name):
    honest = tiny(name)
    honest.prepare()
    failures = []
    run.run_ops(honest, 0, failures, count=4)
    assert failures == []

    wl = tiny(name)
    wl.prepare()
    run.run_ops(OffByOneMilli(wl), 0, failures, count=4)
    assert [f["op"] for f in failures] == [0, 1, 2, 3]
    assert all("certificate gap" in f["problems"][0] for f in failures)


def test_exceptions_are_counted_as_failures():
    wl = tiny("small-batch")
    wl.prepare()

    class Raising(OffByOneMilli):
        def operation(self, inp):
            raise workloads.delaypsa.AllStartsFailedError("no start converged")

    failures = []
    times = run.run_ops(Raising(wl), 0, failures, count=3)
    assert len(times) == 3
    assert [f["problems"] for f in failures] == [
        ["AllStartsFailedError: no start converged"]] * 3
    assert failures[0]["input"] == {"rng": [3, 0]}


def traced_counts(name):
    wl = tiny(name)
    wl.prepare()
    with tracing.Tracer() as tracer:
        tracer.install(tracing.targets())
        run.run_ops(wl, 0, [], count=wl.trace_ops, tracer=tracer)
    metrics, missing = tracing.layer_metrics(tracer, wl.trace_ops)
    assert missing == []
    return ({k: metrics[k]["value"] for k in KERNEL_COUNTS},
            tracing.eig_histogram(tracer))


@pytest.mark.parametrize("name", ["eps-sweep", "small-batch"])
def test_traced_counts_repeat_exactly(name):
    counts, hist = traced_counts(name)
    assert counts["numerics.eig_calls"] > 0 and hist
    assert traced_counts(name) == (counts, hist)


def test_tracer_restores_every_name():
    from delaypsa import numerics, predictor

    before = (predictor.hamiltonian, numerics.eig_real)
    with tracing.Tracer() as tracer:
        tracer.install(tracing.targets())
        assert predictor.hamiltonian is not before[0]
    assert (predictor.hamiltonian, numerics.eig_real) == before


def test_missing_target_is_skipped_and_its_metric_reported(monkeypatch):
    from delaypsa import predictor

    monkeypatch.delattr(predictor, "bisect")
    with tracing.Tracer() as tracer:
        tracer.install(tracing.targets())
    metrics, missing = tracing.layer_metrics(tracer, 1)
    assert tracer.skipped == ["delaypsa.predictor.bisect"]
    assert missing == ["predictor.bisect_s"]
    assert "predictor.level_tests" in metrics


def test_timed_loop_stops_only_after_whole_cycles():
    wl = tiny("eps-sweep")
    wl.prepare()
    runs = run.run_ops(wl, 0, [], deadline=0.0)
    assert len(runs) == wl.cycle == len(wl.epsilons)


def test_small_batch_runs_every_size_once_per_cycle():
    wl = workloads.SmallBatch(5)
    sizes = {(inp[1].n, inp[1].m)
             for inp in map(wl.make_input, range(wl.cycle))}
    assert sizes == {(n, m) for n in (1, 2, 3) for m in (1, 2, 3)}
    assert wl.make_input(4)[1].delays == wl.make_input(4)[1].delays
    assert (wl.make_input(4)[1].delays
            != workloads.SmallBatch(6).make_input(4)[1].delays)


def test_calibration_scales_by_the_nearest_samples():
    cal = calibration.Calibrator("mixed")
    cal.samples = [(float(t), 0.02) for t in range(20)]
    cal.samples += [(float(t), 0.01) for t in range(100, 120)]
    nominal = cal.nominal_s
    assert cal.calibrate(5.0, 1.0) == pytest.approx(nominal / 0.02)
    assert cal.calibrate(109.0, 2.0) == pytest.approx(2 * nominal / 0.01)


def test_tail_has_ten_samples_beyond():
    values = [float(v) for v in range(40)]
    assert run.tail(values) == (29.0, 75.0, 10)
    assert run.tail(values[:5]) == (4.0, 100.0, 0)


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout
