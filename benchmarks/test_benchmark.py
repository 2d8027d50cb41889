"""Self-tests of the benchmark itself.

Run from the root of the checkout with ``python3 -m pytest benchmarks``.
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import rsor  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Small, whole input blocks (25, 10 and 9 ops) keep the subprocess runs short.
SMALL_OPS = {"roundtrip": 25, "relay": 10, "games": 9}


def _bindings():
    """Every (container, key) -> value the tracer may rebind."""
    snap = {}
    for mod in tracer._rsor_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = value
            if isinstance(value, dict):
                for key, item in value.items():
                    snap[(mod.__name__, attr, key)] = item
    for cls in (rsor.GroupParams, rsor.GameOracles):
        for attr, value in vars(cls).items():
            snap[(cls.__qualname__, attr)] = value
    return snap


def test_tracer_wraps_every_binding_and_restores_it():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == []
        # Names imported into other modules are wrapped too.
        assert rsor.node.proc_onion.bench_traced
        assert rsor.packet.kem_decap.bench_traced
        assert rsor.games.GAMES["tlu"].bench_traced
        assert rsor.GroupParams.exp.bench_traced
        rsor.sim.run_scenario(rsor.sim.baseline_scenario(seed=3))
        assert t.calls["group.exp"] > 0 and t.calls["packet.proc_onion"] > 0
        assert t.calls["sim.run_scenario"] == 1
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert not any(getattr(v, "bench_traced", False) for v in after.values())


def test_tracer_reports_a_missing_target_as_absent(monkeypatch):
    monkeypatch.delattr(rsor.packet, "form_reply")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["packet.form_reply"]
    assert t.calls["packet.form_reply"] == 0


def test_self_times_partition_the_outermost_span():
    t = tracer.Tracer()
    t.install()
    try:
        start = time.perf_counter_ns()
        rsor.sim.run_scenario(rsor.sim.baseline_scenario(seed=4))
        elapsed = time.perf_counter_ns() - start
    finally:
        t.uninstall()
    # Each span's duration is its self time plus its wrapped children's
    # durations, so the self times add up to the run_scenario span.
    assert all(v >= 0 for v in t.self_ns.values())
    assert 0.5 * elapsed < sum(t.self_ns.values()) <= elapsed


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs(workload):
    make = workloads.WORKLOADS[workload]
    assert make(1).block(0) == make(1).block(0)
    assert make(1).block(0) != make(2).block(0)
    assert make(1).block(0) != make(1).block(1)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(workload):
    config = {"mode": "measure", "workload": workload, "seed": 5,
              "ops": SMALL_OPS[workload]}
    started = time.monotonic()
    plain = run._worker(config, started)
    first = run.layer_metrics(run._worker(dict(config, trace=True), started), plain)
    second = run.layer_metrics(run._worker(dict(config, trace=True), started), plain)
    counted = [name for name in first
               if name.endswith(".calls_per_op") or name == "packet.proc_onion.calls_per_hop"]
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}
    assert plain["failed"] == 0


def test_benchmark_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "relay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout.decode()
