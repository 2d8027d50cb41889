"""Correctness trials for one fixed pair of path lengths."""

from rsor.crypto import SeedRng
from rsor.games import _correctness_once
from rsor.sim import _seed_bytes, default_params


def check_correctness_pair(n, nr, trials, seed):
    """The correctness clauses over trials round trips with n forward and
    nr reply hops, each run by games._correctness_once."""
    params = default_params()
    rng = SeedRng(b"correct-pair" + _seed_bytes(seed) + b"%d/%d" % (n, nr))
    failures = []
    for trial in range(trials):
        failures.extend(_correctness_once(rng.fork(b"t%d" % trial), n, nr, params, None))
    return {"pass": not failures, "failures": failures}
