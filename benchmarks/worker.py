"""One fresh benchmark process: set up a workload, then optionally measure it.

Run by ``run.py`` as ``python3 benchmarks/worker.py '<json config>'``; each
timed run gets a process of its own, so module state such as
``packet._derive``'s cache and the relay replay caches starts the same way
every time.  The config keys are:

- ``mode``: ``setup`` (set up and stop), ``measure`` (run ops), or
  ``calibrate`` (the traced baseline-scenario record).
- ``workload``, ``seed``: which inputs to generate.
- ``seconds``: wall-clock length of a ``measure`` run; ``ops``, when given,
  replaces it with an exact op count (traced runs use this, so that their
  counts repeat exactly).
- ``trace``: wrap the library's public functions during the ops.

The last line of standard output is one JSON object with the results.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_OPS = 100  # at least ten latency samples beyond p90
# The host-speed probe: 20 modexps modulo a fixed 258-bit prime (the
# benchmark's own constant, so no library change can alter the probe), and
# the probe time of the reference host that scaled times are expressed in.
PROBE_MODULUS = 0x20000000000000000000000000000000000000000000000000000000000009057
PROBE_REFERENCE_S = 0.003


def _import_library():
    if not (SRC / "rsor" / "__init__.py").is_file():
        sys.exit("benchmark: no rsor sources at %s" % SRC)
    sys.path[:0] = [str(SRC), str(HERE)]
    import rsor

    if Path(rsor.__file__).resolve().parent != (SRC / "rsor").resolve():
        sys.exit("benchmark: imported rsor from %s, not from %s" % (rsor.__file__, SRC))


def _derive_info():
    """Cumulative ``packet._derive`` cache statistics, or None without it."""
    from rsor import packet

    info = getattr(getattr(packet, "_derive", None), "cache_info", None)
    return info() if info is not None else None


def host_probe():
    """Seconds the host takes for the probe's fixed modexps right now."""
    start = time.perf_counter()
    for i in range(20):
        pow(4, PROBE_MODULUS - 3 - i, PROBE_MODULUS)
    return time.perf_counter() - start


def set_up(workload, seed):
    """Imports, keys, topology and one warm-up op.

    Returns the workload and the set-up time, unscaled and scaled to the
    reference host speed by probes taken before and after it.
    """
    probe = host_probe()
    start = time.perf_counter()
    _import_library()
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    warm = wl.prepare(wl.warmup_input())
    if not wl.check(warm, wl.run(warm)):
        sys.exit("benchmark: warm-up op of %s failed its output check" % workload)
    seconds = time.perf_counter() - start
    return wl, seconds, seconds * 2 * PROBE_REFERENCE_S / (probe + host_probe())


def measure(wl, seconds=None, ops=None, tracer=None):
    """Run whole input blocks until the time (or op count) is used up.

    Only the op itself is timed.  Input generation and onion formation run
    with the tracer paused; output checks run untimed but traced, which is
    where the ideal world runs.

    The host's speed drifts by tens of percent over seconds to minutes, so
    the host probe runs before and after each block's ops, and ``scaled``
    holds each op's latency times PROBE_REFERENCE_S over the block's mean
    probe time: the latency on a host whose probe takes PROBE_REFERENCE_S.
    """
    latencies, scaled, failed, hops = [], [], 0, 0
    derive_hits = derive_misses = 0
    deadline = time.perf_counter() + (seconds or 0)
    block = 0
    while True:
        if ops is not None and len(latencies) >= ops:
            break
        if ops is None and len(latencies) >= MIN_OPS and time.perf_counter() >= deadline:
            break
        inputs = [wl.prepare(item) for item in wl.block(block)]
        block += 1
        if ops is not None:
            inputs = inputs[: ops - len(latencies)]
        first = len(latencies)
        probe = host_probe()
        for item in inputs:
            before = _derive_info()
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                out = wl.run(item)
            except Exception:  # one op failing must not end the run
                out = None
                traceback.print_exc(file=sys.stderr)
            latencies.append(time.perf_counter() - start)
            after = _derive_info()
            if before is not None and after is not None:
                derive_hits += after.hits - before.hits
                derive_misses += after.misses - before.misses
            try:
                ok = out is not None and bool(wl.check(item, out))
            except Exception:
                ok = False
                traceback.print_exc(file=sys.stderr)
            if tracer is not None:
                tracer.active = False
            failed += not ok
            hops += wl.hops(item)
        factor = 2 * PROBE_REFERENCE_S / (probe + host_probe())
        scaled.extend(t * factor for t in latencies[first:])
    return {
        "ops": len(latencies),
        "failed": failed,
        "latencies": latencies,
        "scaled": scaled,
        "hops": hops,
        "derive_hits": derive_hits,
        "derive_misses": derive_misses,
    }


def calibrate():
    """Traced baseline round trip and one forward-hop ``proc_onion``.

    Timings are medians over distinct seeds, untraced; counts come from a
    single traced call each.
    """
    import statistics

    from rsor import crypto, kem, packet, sim
    from tracer import Tracer

    for seed in range(100, 103):  # warm-up
        sim.run_scenario(sim.baseline_scenario(seed=seed))
    times = []
    for seed in range(1, 21):
        scenario = sim.baseline_scenario(seed=seed)
        start = time.perf_counter()
        sim.run_scenario(scenario)
        times.append(time.perf_counter() - start)

    params = sim.default_params()
    keyrng = crypto.SeedRng(b"calibrate")
    keys = {n: kem.kem_keygen(params.group, keyrng.fork(n)) for n in (b"a", b"b", b"c")}
    spec = packet.OnionSpec(
        seed=b"calibrate-onion", message=b"ping",
        receiver=packet.receiver_addr(b"svc", params),
        path=tuple((n, keys[n].pk) for n in (b"a", b"b", b"c")),
    )
    onion = packet.form_onion(1, spec, params)
    proc_times = []
    for _ in range(50):
        view = packet.InMemoryView()
        start = time.perf_counter()
        packet.proc_onion(keys[b"a"].sk, onion, b"a", params, view)
        proc_times.append(time.perf_counter() - start)

    tracer = Tracer()
    tracer.install()
    try:
        sim.run_scenario(sim.baseline_scenario(seed=0))
        baseline = dict(tracer.calls)
        for key in tracer.calls:
            tracer.calls[key] = 0
        packet.proc_onion(keys[b"a"].sk, onion, b"a", params, packet.InMemoryView())
        hop = dict(tracer.calls)
    finally:
        tracer.uninstall()
    return {
        "baseline_roundtrip_ms": statistics.median(times) * 1e3,
        "baseline_exp_calls": baseline["group.exp"],
        "baseline_is_element_calls": baseline["group.is_element"],
        "forward_hop_proc_onion_ms": statistics.median(proc_times) * 1e3,
        "forward_hop_proc_onion_modexps": hop["group.exp"] + hop["group.is_element"],
    }


def main(config):
    if config["mode"] == "calibrate":
        _import_library()
        print(json.dumps(calibrate()))
        return
    wl, setup_raw, setup_s = set_up(config["workload"], config["seed"])
    result = {"setup_raw_s": setup_raw, "setup_s": setup_s}
    if config["mode"] == "measure":
        tracer = None
        if config.get("trace"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.active = False
        try:
            result.update(measure(wl, config.get("seconds"), config.get("ops"), tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            result["calls"] = tracer.calls
            result["self_ns"] = tracer.self_ns
            result["absent"] = tracer.absent
        if hasattr(wl, "reply_buffer_entries"):
            result["reply_buffer_entries"] = wl.reply_buffer_entries()
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: worker.py '<json config>'")
    main(json.loads(sys.argv[1]))
