"""Smoke tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import inspect
import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cell
import hostspeed
import layers
import run

ROOT = Path(__file__).resolve().parents[1]
TINY_HORIZON = 0.05
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tiny(monkeypatch, workload):
    monkeypatch.setitem(cell.WORKLOADS[workload], "duration", TINY_HORIZON)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_and_checks_at_tiny_horizon(monkeypatch, workload):
    _tiny(monkeypatch, workload)
    doc = cell.run_cell(workload, seed=1, trace=False)
    assert doc["ops"] > 0
    assert doc["failed"] == 0
    assert doc["attempted"] > doc["ops"]          # the read-back ran
    assert doc["cpu_s"] > 0 and doc["setup_cpu_s"] > 0
    # Without a host-speed sampler the reference times are the raw ones.
    assert doc["cpu_ref_s"] == doc["cpu_s"]
    assert doc["host_samples"] == 0


def test_host_speed_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGPROF)
    speed = hostspeed.HostSpeed().install()
    t0 = time.perf_counter()
    end = time.process_time() + 0.2
    while time.process_time() < end:
        pass
    t1 = time.perf_counter()
    speed.uninstall()
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    n, probe_s, factor = speed.window(t0, t1)
    assert n >= 5
    assert 0 < probe_s < 0.2
    assert 0 < factor < 10
    assert speed.window(t1, t1 + 1) == (0, 0.0, 1.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in e2e + per_layer:
        assert NAME.fullmatch(name), name
    assert e2e == list(run.END_TO_END_UNITS)
    assert per_layer == list({**layers.LAYER_METRICS, **run.SIM_UNITS})
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(cell.WORKLOADS)


def test_trace_wrappers_are_removed():
    sys.path.insert(0, str(ROOT / "src"))
    tr = layers.LayerTrace()
    owners = {}
    for target in tr.targets:
        owner, name, fn = layers._resolve(target)
        owners[target] = (owner, name, fn, dict(vars(owner)).get(name))
    tr.install()
    try:
        assert layers.leftover_wrappers()
    finally:
        tr.uninstall()
    assert layers.leftover_wrappers() == []
    for target, (owner, name, fn, own) in owners.items():
        assert getattr(owner, name) is fn, target
        assert dict(vars(owner)).get(name) is own, target


def test_wait_layers_are_the_layers_with_generator_entry_points():
    sys.path.insert(0, str(ROOT / "src"))
    with_generators = [
        layer for layer, targets in layers.LAYERS.items()
        if any(inspect.isgeneratorfunction(layers._resolve(t)[2])
               for t in targets)]
    assert list(layers.WAIT_LAYERS) == with_generators


def test_traced_cell_keeps_simulated_results(monkeypatch):
    _tiny(monkeypatch, "kvaccel-fill")
    plain = cell.run_cell("kvaccel-fill", seed=2, trace=False)
    traced = cell.run_cell("kvaccel-fill", seed=2, trace=True)
    assert traced["sim"] == plain["sim"]
    assert traced["sim_events"] == plain["sim_events"]
    assert traced["leftover_wrappers"] == []
    metrics = layers.with_untraced(traced["layers"], traced["cpu_s"],
                                   plain["cpu_s"])
    assert set(metrics) == set(layers.LAYER_METRICS)
    assert metrics["core.redirect_share"] >= 0
    assert metrics["cluster.routed_ops"] == 0
    self_total = sum(v for k, v in metrics.items()
                     if k.endswith(".self_cpu_s"))
    assert self_total + metrics["trace.unattributed_cpu_s"] == pytest.approx(
        traced["cpu_s"], abs=0.05)


def test_refuses_to_run_without_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kvaccel-fill",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
