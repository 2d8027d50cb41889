"""The rsor benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop of one client, in one process, on one thread):

- ``roundtrip``: one ``sim.run_scenario`` call per op on a one-item
  repliable scenario, forward paths of 1-5 relays and reply paths of 1-5
  hops (the last is the sender) drawn from a 10-relay pool.  The user-facing
  round trip; it exercises every layer.
- ``relay``: onions (1-5 hops, half repliable) are formed outside the timed
  region; each op pushes one through ``node.relay_on_onion`` and
  ``node.relay_forward`` until the exit delivers it.  The rate a mix node
  sustains; formation does not count.  Receivers never answer, so
  ``reply_buffer`` grows over the run.
- ``games``: one game per op from a rotation of every registered
  (game, adversary) pair plus a correctness trial.  Formation-heavy.

With ``--trace 0`` each run reports, from untraced ops:

- ``ops_per_s``: ops completed per second of op time;
- ``latency_p50_ms``, ``latency_p90_ms``: per-op latency (a run holds at
  least 100 ops, so at least ten lie beyond p90);
- ``setup_s``: imports, keys, topology and a warm-up op, the median over
  five fresh processes;
- ``peak_rss_mb``: the measuring process's own peak RSS.

The timings, set-up included, are scaled to a reference host speed.  Shared or
virtualised hosts can change speed by tens of percent over seconds to
minutes, which would swamp the differences between two commits; so every
input block's ops, and each set-up, are bracketed by a fixed modexp probe
that is not library code (``worker.host_probe``), and each time is
multiplied by the reference probe time over the bracketing probes' mean.  The unscaled figures and
the host's speed relative to the reference are printed alongside.

The error rate (failed ÷ attempted ops, from the output checks) is printed
with them and carried by ``attempted`` and ``failed`` in the result; it is
not a bounded metric because it is 0 on a correct program.

With ``--trace 1`` the run instead makes one untraced and one traced pass
over the same fixed number of ops, each in a fresh process, and reports per
op of the workload, for every traced function, ``<layer>.<function>.
calls_per_op`` and ``.self_ms_per_op`` (span time minus wrapped child
calls), plus ``group.modexp_per_op``, ``packet.proc_onion.calls_per_hop``,
``packet.derive.hit_ratio``, ``node.reply_buffer.entries`` and
``trace.overhead_ratio``.  It also prints the traced baseline-scenario
calibration record.  Functions a later version of the library no longer
defines are listed as absent and count 0.

Each run also prints an environment record.  The last line of standard
output is the JSON result.  The benchmark exits non-zero without a result
if ``src/rsor`` is missing.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("roundtrip", "relay", "games")
SETUP_PROCESSES = 5
TIME_LIMIT_S = 170
# Ops per pass of a traced run.  Fixed, so that counts repeat exactly; each
# is a whole number of the workload's input blocks (25, 10 and 9 ops).
TRACE_OPS = {"roundtrip": 50, "relay": 100, "games": 54}

sys.path.insert(0, str(HERE))
from tracer import TARGETS, metric_key  # noqa: E402


class WorkerError(RuntimeError):
    pass


def _worker(config, started):
    """Run one fresh worker process and return its JSON result."""
    remaining = TIME_LIMIT_S - (time.monotonic() - started)
    if remaining <= 0:
        raise WorkerError("out of time before %s" % config["mode"])
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(config)],
            cwd=ROOT, stdout=subprocess.PIPE, timeout=remaining, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("%s worker timed out" % config["mode"]) from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError("%s worker exited with %d" % (config["mode"], proc.returncode))
    return json.loads(lines[-1])


def environment():
    """Machine and software record printed with every run."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             timeout=30, check=False)
        if out.returncode == 0:
            commit = out.stdout.decode().strip()
    try:
        crypto_version = importlib.metadata.version("cryptography")
    except importlib.metadata.PackageNotFoundError:
        crypto_version = "not installed"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "cryptography": crypto_version,
        "commit": commit,
    }


def end_to_end(args, started):
    setups = [_worker({"mode": "setup", "workload": args.workload, "seed": args.seed},
                      started) for _ in range(SETUP_PROCESSES - 1)]
    run = _worker({"mode": "measure", "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds}, started)
    setups.append(run)
    lat_ms = [t * 1e3 for t in run["scaled"]]
    metrics = {
        "ops_per_s": (run["ops"] / sum(run["scaled"]), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    print("latency samples: %d (%.1f s of op time)" % (run["ops"], sum(run["latencies"])))
    print("unscaled: %.6g ops/s, p50 %.6g ms, p90 %.6g ms; host probe at %.3g of reference"
          % (run["ops"] / sum(run["latencies"]), statistics.median(run["latencies"]) * 1e3,
             statistics.quantiles(run["latencies"], n=10)[8] * 1e3,
             sum(run["latencies"]) / sum(run["scaled"])))
    print("error_rate: %g (%d failed of %d attempted)"
          % (run["failed"] / run["ops"], run["failed"], run["ops"]))
    print("setup_s samples (scaled/unscaled): %s"
          % ", ".join("%.4f/%.4f" % (s["setup_s"], s["setup_raw_s"]) for s in setups))
    return run["ops"], run["failed"], metrics


def per_layer(args, started):
    ops = TRACE_OPS[args.workload]
    config = {"mode": "measure", "workload": args.workload, "seed": args.seed, "ops": ops}
    plain = _worker(config, started)
    traced = _worker(dict(config, trace=True), started)
    calibration = _worker({"mode": "calibrate"}, started)
    if traced["absent"]:
        print("absent targets (reported as 0): %s" % ", ".join(traced["absent"]))
    print("derive cache lookups: %d; onion hops traversed: %d"
          % (traced["derive_hits"] + traced["derive_misses"], traced["hops"]))
    print("calibration: %s" % json.dumps(calibration, sort_keys=True))
    attempted = plain["ops"] + traced["ops"]
    return attempted, plain["failed"] + traced["failed"], layer_metrics(traced, plain)


def layer_metrics(traced, plain):
    """Per-layer metrics, per op, from a traced and an untraced worker result."""
    ops = traced["ops"]
    calls, self_ns = traced["calls"], traced["self_ns"]
    metrics = {}
    for layer, _module, qualname in TARGETS:
        key = metric_key(layer, qualname)
        metrics[key + ".calls_per_op"] = (calls[key] / ops, "count")
        metrics[key + ".self_ms_per_op"] = (self_ns[key] / 1e6 / ops, "ms")
    metrics["group.modexp_per_op"] = (
        (calls["group.exp"] + calls["group.is_element"]) / ops, "count")
    metrics["packet.proc_onion.calls_per_hop"] = (
        calls["packet.proc_onion"] / traced["hops"] if traced["hops"] else 0.0, "ratio")
    lookups = traced["derive_hits"] + traced["derive_misses"]
    metrics["packet.derive.hit_ratio"] = (
        traced["derive_hits"] / lookups if lookups else 0.0, "ratio")
    metrics["node.reply_buffer.entries"] = (traced.get("reply_buffer_entries", 0), "count")
    metrics["trace.overhead_ratio"] = (
        (sum(traced["scaled"]) / ops) / (sum(plain["scaled"]) / plain["ops"]), "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    started = time.monotonic()

    print("environment: %s" % json.dumps(environment(), sort_keys=True))
    try:
        attempted, failed, metrics = (per_layer if args.trace else end_to_end)(args, started)
    except WorkerError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print("%-45s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
