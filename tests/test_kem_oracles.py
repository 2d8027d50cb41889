"""What a KEM decapsulation oracle must do, and where it plugs into the peel.

Sphinx's proof needs Gap Diffie-Hellman, not DDH: a reduction that does not
know a relay's key must still answer that relay's decapsulation oracle
consistently with the random oracles, and only a DDH oracle lets it decide
whether a hash query s equals alpha^sk.  NoGapKemOracles is all such a
reduction can do without one, and ConsistencyKemAdversary tells it apart
from the real oracles every time.

The peel reaches decapsulation through one module binding,
rsor.packet.kem_decap, so an oracle-backed decapsulator replaces the secret
key without any change to proc_onion or zero_run.
"""

import pytest

from rsor import packet
from rsor.crypto import KAPPA, SeedRng
from rsor.games import fair_coin_pvalue
from rsor.group import PROD_GROUP, SQR_GROUP
from rsor.kem import KemGameOracles, LayerSecrets, kem_keygen
from rsor.packet import (
    FormatParams,
    InMemoryView,
    OnionSpec,
    derive,
    proc_onion,
    receiver_addr,
    zero_run,
)


class NoGapKemOracles(KemGameOracles):
    """KemGameOracles' shape without sk: decap answers each new alpha with
    fresh keys and a fresh blinding factor, and the same answer when that
    alpha is asked again; h_star and h_b are the real random oracles.  It
    refuses what KemGameOracles.decap refuses."""

    def __init__(self, group, pk, rng):
        super().__init__(group, sk=None)
        self.pk = pk
        self._rng = rng
        self._answers = {}

    def decap(self, alpha):
        if (type(alpha) is not int or not self._group.is_element(alpha)
                or alpha == self.challenge_alpha):
            return None
        if alpha not in self._answers:
            self._answers[alpha] = (self._rng.read(3 * KAPPA),
                                    self._group.random_scalar(self._rng))
        return self._answers[alpha]


class ConsistencyKemAdversary:
    """Asks decap(g^r), h_star(pk^r) and h_b(g^r, pk^r) and guesses 0 when
    the answers agree, as they do for the holder of sk."""

    def __init__(self, rng):
        self._rng = rng

    def begin(self, group, pk, oracles):
        self._group, self._pk, self._oracles = group, pk, oracles

    def guess(self):
        r = self._group.random_scalar(self._rng)
        alpha, s = self._group.base(r), self._group.exp(self._pk, r)
        answer = self._oracles.decap(alpha)
        return 0 if answer == (self._oracles.h_star(s), self._oracles.h_b(alpha, s)) else 1


class _NeverEqual(int):
    def __eq__(self, other):
        return False

    __hash__ = int.__hash__


@pytest.mark.parametrize("no_gap", [False, True], ids=["real", "no-gap"])
def test_both_oracles_refuse_alike_and_answer_a_repeat_alike(no_gap):
    group = PROD_GROUP
    keypair = kem_keygen(group, SeedRng(b"oracle-refusals"))
    oracles = (NoGapKemOracles(group, keypair.pk, SeedRng(b"no-gap")) if no_gap
               else KemGameOracles(group, keypair.sk))
    challenge, other = group.base(5), group.base(7)
    oracles.challenge_alpha = challenge
    # 0 and p are out of range; p - 1 has order 2; a float and an int
    # subclass are not exactly ints.
    refused = (challenge, _NeverEqual(challenge), 0, group.p - 1, group.p, float(other))
    assert [oracles.decap(alpha) for alpha in refused] == [None] * len(refused)
    answer = oracles.decap(other)
    assert answer is not None and oracles.decap(other) == answer


def test_consistency_adversary_tells_the_no_gap_oracles_apart():
    group, games = PROD_GROUP, 200
    rng = SeedRng(b"no-gap-kem")
    wins, agreed, played = 0, {0: 0, 1: 0}, {0: 0, 1: 0}
    for i in range(games):
        grng = rng.fork(b"g%d" % i)
        keypair = kem_keygen(group, grng.fork(b"keygen"))
        bit = grng.fork(b"bit").read(1)[0] & 1
        oracles = (KemGameOracles(group, keypair.sk) if bit == 0
                   else NoGapKemOracles(group, keypair.pk, grng.fork(b"no-gap")))
        adversary = ConsistencyKemAdversary(grng.fork(b"adv"))
        adversary.begin(group, keypair.pk, oracles)
        guess = adversary.guess()
        wins += guess == bit
        played[bit] += 1
        agreed[bit] += guess == 0
    assert agreed == {0: played[0], 1: 0}
    assert fair_coin_pvalue(wins, games) < 0.01


@pytest.mark.parametrize("group", [PROD_GROUP, SQR_GROUP], ids=["prod", "sqr"])
@pytest.mark.parametrize("hop", [1, 2, 3])
def test_a_kem_oracle_backed_decap_peels_as_the_key_does(monkeypatch, group, hop):
    params = FormatParams(group=group)
    names = (b"r0", b"r1", b"r2", b"q0", b"sender")
    keys = {name: kem_keygen(group, SeedRng(name)) for name in names}
    path = tuple((name, keys[name].pk) for name in names)
    spec = OnionSpec(seed=b"decap-seam", message=b"m", receiver=receiver_addr(b"svc", params),
                     path=path[:3], reply_path=path[3:])
    onion, name = derive(spec, params).onion(hop), names[hop - 1]
    real = proc_onion(keys[name].sk, onion, name, params, InMemoryView())
    real_run = zero_run(keys[name].sk, onion, params)
    assert real.kind == ("exit" if hop == 3 else "forward")

    oracles = KemGameOracles(group, keys[name].sk)

    def oracle_decap(group_, sk, alpha):
        assert group_ is group and sk is None
        layer_keys, b = oracles.decap(alpha)
        return LayerSecrets(alpha, b, layer_keys[:KAPPA], layer_keys[KAPPA:2 * KAPPA],
                            layer_keys[2 * KAPPA:])

    monkeypatch.setattr(packet, "kem_decap", oracle_decap)
    assert proc_onion(None, onion, name, params, InMemoryView()) == real
    assert zero_run(None, onion, params) == real_run
