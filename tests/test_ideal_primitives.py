"""The format under ideal symmetric primitives.

Every symmetric primitive the format uses is reached through five names in
rsor.packet: prg, prg_xor, mac, prp_enc and prp_dec.  Here monkeypatch
swaps them for lazily sampled ideal versions, the first step of the
code-based hybrid argument (Bellare & Rogaway, EUROCRYPT 2006).  Under the
swap, correctness still holds, the real and ideal traces still agree, and
game batches win exactly as often as with the concrete primitives.
SeedRng and the KEM's hash oracles stay real: the first is the
experiment's randomness, not a primitive.
"""

import pytest

from rsor import packet
from rsor.crypto import KAPPA, SeedRng, xor_bytes
from rsor.games import game_correctness, run_game_batch
from rsor.sim import baseline_scenario, default_params, run_ideal_scenario, run_scenario
from rsor.sim import traces_equivalent


class IdealPrimitives:
    """Lazily sampled ideal PRG, MAC and PRP, drawn from one SeedRng.

    The PRG keeps one random string per key and extends it on demand, so
    prg(k, n) is its prefix and prg_xor(k, d) is d XOR prg(k, len(d)):
    the peel and build_header see one stream.  The MAC is a random
    function of (key, data).  The PRP is a random permutation per (key,
    width), kept as a forward and an inverse table; a fresh output is
    redrawn until neither table already holds it on that side.
    """

    NAMES = ("prg", "prg_xor", "mac", "prp_enc", "prp_dec")

    def __init__(self, rng):
        self._rng = rng
        self._streams = {}
        self._tags = {}
        self._enc = {}
        self._dec = {}

    def prg(self, key, out_len):
        key = bytes(key)
        stream = self._streams.get(key, b"")
        if len(stream) < out_len:
            stream = self._streams[key] = stream + self._rng.read(out_len - len(stream))
        return stream[:out_len]

    def prg_xor(self, key, data):
        return xor_bytes(data, self.prg(key, len(data)))

    def mac(self, key, data):
        point = (bytes(key), bytes(data))
        if point not in self._tags:
            self._tags[point] = self._rng.read(KAPPA)
        return self._tags[point]

    def _permute(self, forward, inverse, block):
        """forward[block], sampled as an output inverse does not hold yet."""
        if block not in forward:
            out = self._rng.read(len(block))
            while out in inverse:
                out = self._rng.read(len(block))
            forward[block], inverse[out] = out, block
        return forward[block]

    def _tables(self, key, width):
        point = (bytes(key), width)
        return self._enc.setdefault(point, {}), self._dec.setdefault(point, {})

    def prp_enc(self, key, block):
        enc, dec = self._tables(key, len(block))
        return self._permute(enc, dec, bytes(block))

    def prp_dec(self, key, block):
        enc, dec = self._tables(key, len(block))
        return self._permute(dec, enc, bytes(block))


def _swap(monkeypatch, seed=b"ideal-primitives"):
    ideal = IdealPrimitives(SeedRng(seed))
    for name in IdealPrimitives.NAMES:
        monkeypatch.setattr(packet, name, getattr(ideal, name))
    return ideal


def test_ideal_primitives_are_consistent():
    ideal = IdealPrimitives(SeedRng(b"consistency"))
    key, other = b"k" * KAPPA, b"o" * KAPPA
    long = ideal.prg(key, 64)
    assert ideal.prg(key, 16) == long[:16] and ideal.prg(key, 80)[:64] == long
    assert ideal.prg(other, 64) != long
    assert ideal.prg_xor(key, bytes(40)) == long[:40]
    assert ideal.mac(key, b"data") == ideal.mac(key, b"data") != ideal.mac(other, b"data")
    # A permutation per key and width: 3-byte blocks from a 1-byte
    # alphabet force redraws, yet every output stays distinct and inverts.
    blocks = [bytes([i, i, i]) for i in range(64)]
    outs = [ideal.prp_enc(key, block) for block in blocks]
    assert len(set(outs)) == len(outs)
    assert [ideal.prp_dec(key, out) for out in outs] == blocks
    fresh = ideal.prp_dec(key, b"new")
    assert ideal.prp_enc(key, fresh) == b"new" and fresh not in blocks


def test_correctness_and_equivalence_under_ideal_primitives(monkeypatch):
    _swap(monkeypatch)
    result = game_correctness(100, seed=0)
    assert result["pass"], result["failures"]
    for seed in range(10):
        scenario = baseline_scenario(seed)
        env, _adv = run_ideal_scenario(scenario)
        assert traces_equivalent(run_scenario(scenario), env), seed


BATCHES = (
    ("tlu", "guessing", None),
    ("sti", "guessing", None),
    ("slu", "direction-structure", None),
    ("tlu", "tag-consistency", None),
    ("sti", "path-length-padding", {"legacy_zero_filler": True}),
)


def _wins():
    return [run_game_batch(game, adversary, 200, 0,
                           params=default_params(**fields) if fields else None)["wins"]
            for game, adversary, fields in BATCHES]


def test_game_batches_win_alike_under_ideal_primitives(monkeypatch):
    concrete = _wins()
    _swap(monkeypatch)
    assert _wins() == concrete
