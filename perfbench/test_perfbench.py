"""Tests of the benchmark itself (about two minutes; each workload runs).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, run as runner, worker
from perfbench.workloads import (
    DSE_POINTS,
    WORKLOADS,
    IsolationError,
)
from repro.parallel.cache import CacheStats

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: A seed every workload's tests use.
RECORDED_SEED = 0
#: Per workload, a seed above the recorded range whose input set
#: (``seed % inputs``) no run made to set the benchmark's bounds used.
HELD_OUT_SEEDS = {"binding_study": 64 + 60, "serving_fleet": 128 + 120}


def test_benchmark_json_names_what_the_benchmark_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert list(runner.WORKLOADS) == list(WORKLOADS)
    assert ({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
            == dict(worker.E2E_UNITS, setup_s="s"))
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in layers.PER_LAYER]


def test_reference_table_covers_every_input_set():
    table = json.loads(worker.REFERENCE_FILE.read_text(encoding="utf-8"))
    assert set(table) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        assert set(table[name]) == {str(i) for i in range(workload.inputs)}
    assert WORKLOADS["serving_fleet"].input_seed(1000) == 1000 % 128


def test_run_without_a_reference_refuses(monkeypatch):
    monkeypatch.setattr(worker, "load_reference", lambda *key: None)
    with pytest.raises(SystemExit, match="could not be checked"):
        worker.run("dse_sweep", RECORDED_SEED, seconds=0.0, trace=False)


def run_worker(name: str, seed: int, trace: bool) -> dict:
    """One shortened run (a single timed call) in a pinned child process.

    The binding study's float32 forward passes are bit-exact only with
    the single BLAS thread a benchmark run pins, so records come from a
    child started the way ``run.py`` starts it.
    """
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--trace", str(int(trace)),
         "--spawned-at", repr(worker.clock())],
        cwd=ROOT, env=runner.child_env(), capture_output=True, text=True,
        check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_shortened_run_reproduces_reference(name):
    record = run_worker(name, RECORDED_SEED, trace=False)
    assert (record["attempted"], record["failed"]) == (1, 0), record["errors"]
    assert record["fingerprint"] == worker.load_reference(name,
                                                          RECORDED_SEED)
    assert record["metrics"]["wall_s"]["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_matches_untraced_and_tiles(name):
    record = run_worker(name, RECORDED_SEED, trace=True)
    # One untraced and one traced call, both held to the recorded
    # fingerprint: tracing changed no result.
    assert (record["attempted"], record["failed"]) == (2, 0), record["errors"]
    metrics = {key: value["value"]
               for key, value in record["metrics"].items()}
    assert list(metrics) == [m.name for m in layers.PER_LAYER]
    self_times = {metric: metrics[metric]
                  for metric in layers.LAYER_SELF_METRICS.values()}
    assert math.isclose(sum(self_times.values()), metrics["traced_wall_s"],
                        rel_tol=1e-9)
    assert 0 <= metrics["unattributed_s"] < 0.05 * metrics["traced_wall_s"]
    if name == "dse_sweep":
        assert (metrics["sched.calls"] == metrics["cache.schedule.misses"]
                == DSE_POINTS)
        assert max(self_times, key=self_times.get) == "sched.self_s"
    elif name == "binding_study":
        assert max(self_times, key=self_times.get) == "model.self_s"
        assert metrics["sched.calls"] == 0
        assert metrics["model.gelu_s"] <= metrics["model.self_s"]
    else:
        assert (metrics["cache.schedule.hits"]
                > 10 * metrics["cache.schedule.misses"])
        assert metrics["model.forward_calls"] == 0
    analyzed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "analyze", "--trace",
         record["trace_file"], "--format", "json"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    path = json.loads(analyzed.stdout)["critical_path"]
    assert math.isclose(path["root_seconds"], metrics["traced_wall_s"],
                        rel_tol=1e-6)


def test_times_are_scaled_to_nominal_host_speed():
    outcomes = [worker.Outcome(wall=2.0, slowdown=2.0, items=10.0),
                worker.Outcome(wall=1.0, slowdown=1.0, items=10.0),
                worker.Outcome(wall=3.0, slowdown=1.5, items=10.0)]
    values = worker.end_to_end(outcomes)
    assert (values["wall_s"], values["items_per_s"]) == (1.0, 10.0)
    assert (values["host.wall_s"], values["host.slowdown"]) == (2.0, 1.5)


def test_perturbed_reference_counts_as_failure():
    reference = worker.load_reference("serving_fleet", RECORDED_SEED)
    perturbed = reference[:-1] + ("0" if reference[-1] != "0" else "1")
    record = worker.run("serving_fleet", RECORDED_SEED, seconds=0.0,
                        trace=False, reference=perturbed)
    assert (record["attempted"], record["failed"]) == (1, 1)
    assert "differs from reference" in record["errors"][0]


def test_warm_cache_fails_isolation():
    dse = WORKLOADS["dse_sweep"]
    warm = {"schedule": CacheStats(hits=DSE_POINTS), "trace": CacheStats()}

    class Sweep:
        points = (None,) * DSE_POINTS

    with pytest.raises(IsolationError):
        dse.isolation(Sweep(), warm, {"schedule": 0, "trace": 0})


def test_environment_must_be_serial(monkeypatch):
    for name, value in worker.PINNED_ENV.items():
        monkeypatch.setenv(name, value)
    worker.check_environment()
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
    with pytest.raises(SystemExit):
        worker.check_environment()


@pytest.mark.parametrize("name", sorted(HELD_OUT_SEEDS))
def test_held_out_seed_runs_clean_through_the_command_line(name):
    seed = HELD_OUT_SEEDS[name]
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    input_set = WORKLOADS[name].input_seed(seed)
    assert f"(input set {input_set})" in completed.stdout
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["failed"] / result["attempted"] == 0  # fail_frac
    assert ({name: metric["unit"]
             for name, metric in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]})
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_environment_records_the_git_sha():
    sha = worker.environment()["git_sha"]
    if (ROOT / ".git").exists():
        assert len(sha) == 40 and set(sha) <= set("0123456789abcdef")
    else:
        assert sha.startswith("unknown")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dse_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert "{" not in completed.stdout
