import os
import subprocess
import sys
from fractions import Fraction

import pytest

import rsor.kem as kem_module
from rsor.crypto import SeedRng, ro_hb, ro_hsym
from rsor.games import fair_coin_pvalue
from rsor.group import PROD_GROUP, SQR_GROUP, TOY_GROUP, GroupParams
from rsor.ideal import RsorIdeal
from rsor.kem import (
    KNOWN_KEYS_CAP,
    MAX_HOPS,
    GuessingKemAdversary,
    WhiteBoxKemAdversary,
    is_public_key,
    kem_blind,
    kem_chain_create,
    kem_decap,
    kem_game_run,
    kem_keygen,
)
from rsor.packet import FormatParams, validate_shape

from binomial import binomial_pvalue


def test_toy_kem_values():
    kp = kem_keygen(TOY_GROUP, SeedRng(b"fix"))
    # Whatever scalar the seed gives, pk must be g^sk.
    assert kp.pk == TOY_GROUP.exp(TOY_GROUP.g, kp.sk)
    # Hand-checked values in Z_11: sk=2 -> pk=3^2=9; s = 9^2 = 4.
    assert TOY_GROUP.exp(TOY_GROUP.g, 2) == 9
    assert TOY_GROUP.exp(9, 2) == 4
    assert kem_blind(TOY_GROUP, 9, 3) == 3  # 9^3 mod 11


def test_chain_matches_decap():
    # Sender-side chains and relay-side decapsulation agree at every hop,
    # including the blinded alpha handoff between hops.
    rng = SeedRng(b"chain-test")
    for trial in range(50):
        trng = rng.fork(b"t%d" % trial)
        n = 1 + trng.read(1)[0] % 5
        keypairs = [kem_keygen(PROD_GROUP, trng.fork(b"k%d" % i)) for i in range(n)]
        x = PROD_GROUP.random_scalar(trng.fork(b"x"))
        chain = kem_chain_create(PROD_GROUP, x, [kp.pk for kp in keypairs])
        alpha = chain[0].alpha
        for i, keypair in enumerate(keypairs):
            layer = kem_decap(PROD_GROUP, keypair.sk, alpha)
            assert layer == chain[i]
            alpha = kem_blind(PROD_GROUP, alpha, layer.b)


def test_chain_keys_distinct_across_hops():
    rng = SeedRng(b"distinct")
    keypairs = [kem_keygen(PROD_GROUP, rng.fork(b"k%d" % i)) for i in range(5)]
    chain = kem_chain_create(
        PROD_GROUP, PROD_GROUP.random_scalar(rng.fork(b"x")),
        [kp.pk for kp in keypairs],
    )
    assert len({layer.k_rho for layer in chain}) == 5
    assert len({layer.alpha for layer in chain}) == 5


def test_chain_rejects_empty_and_bad_keys():
    with pytest.raises(ValueError):
        kem_chain_create(PROD_GROUP, 5, [])


def test_layer_keys_from_oracles():
    kp = kem_keygen(PROD_GROUP, SeedRng(b"lk"))
    x = PROD_GROUP.random_scalar(SeedRng(b"lx"))
    chain = kem_chain_create(PROD_GROUP, x, [kp.pk])
    layer = chain[0]
    s = PROD_GROUP.exp(kp.pk, x)
    assert layer.k_rho == ro_hsym("rho", PROD_GROUP, s)
    assert layer.k_mu == ro_hsym("mu", PROD_GROUP, s)
    assert layer.k_pi == ro_hsym("pi", PROD_GROUP, s)
    assert layer.b == ro_hb(PROD_GROUP, layer.alpha, s)


@pytest.mark.parametrize("group", [TOY_GROUP, PROD_GROUP], ids=lambda g: g.name)
def test_layer_oracles_match_the_element_oracles(group):
    # A layer encodes alpha and s once each; its blinding factor and keys
    # are still exactly h_b(alpha, s) and h_rho, h_mu, h_pi of s.
    rng = SeedRng(b"layer-oracles/" + group.name.encode())
    for _ in range(25):
        alpha = group.base(group.random_scalar(rng))
        sk = group.random_scalar(rng)
        layer = kem_decap(group, sk, alpha)
        s = group.exp(alpha, sk)
        assert (layer.b, layer.k_rho, layer.k_mu, layer.k_pi) == (
            ro_hb(group, alpha, s), ro_hsym("rho", group, s),
            ro_hsym("mu", group, s), ro_hsym("pi", group, s))


def test_game_white_box_always_wins():
    rng = SeedRng(b"wb")
    for trial in range(50):
        adversary = WhiteBoxKemAdversary(rng.fork(b"a%d" % trial))
        result = kem_game_run(
            adversary, PROD_GROUP, rng.fork(b"g%d" % trial),
            reveal_secret=True,
        )
        assert result["adversary_won"]


def test_game_guessing_near_half():
    rng = SeedRng(b"guess")
    games = 400
    wins = 0
    for trial in range(games):
        adversary = GuessingKemAdversary(rng.fork(b"a%d" % trial))
        result = kem_game_run(adversary, PROD_GROUP, rng.fork(b"g%d" % trial))
        wins += result["adversary_won"]
    assert abs(wins / games - 0.5) < 0.07


def test_game_transcript_shape_is_bit_independent():
    rng = SeedRng(b"shape")
    shapes = set()
    for trial in range(20):
        adversary = GuessingKemAdversary(rng.fork(b"a%d" % trial))
        result = kem_game_run(adversary, PROD_GROUP, rng.fork(b"g%d" % trial))
        shapes.add(tuple(result["transcript"]))
    assert len(shapes) == 1


def test_game_decap_refuses_challenge():
    class NeverEqual(int):
        def __eq__(self, other):
            return False

        __hash__ = int.__hash__

    class ProbingAdversary(GuessingKemAdversary):
        def on_challenge(self, alpha0, pre, challenge, post):
            # An int subclass that never compares equal is the challenge too.
            self.refused = [self._oracles.decap(v) for v in
                            (challenge[0], NeverEqual(challenge[0]))] == [None, None]
            self.answered = self._oracles.decap(alpha0) is not None
            # 0 and p are out of range; p - 1 has order 2.
            self.non_members = [self._oracles.decap(v)
                                for v in (0, PROD_GROUP.p - 1, PROD_GROUP.p)]

        def begin(self, group, pk, oracles):
            super().begin(group, pk, oracles)
            self._oracles = oracles

    adversary = ProbingAdversary(SeedRng(b"probe"), n=3, j=1)
    kem_game_run(adversary, PROD_GROUP, SeedRng(b"probe-game"))
    assert adversary.refused
    assert adversary.answered
    assert adversary.non_members == [None, None, None]


class _ChainWalkingAdversary(GuessingKemAdversary):
    """Submits the challenger's own key at position mine and its own keys
    elsewhere, then walks alpha_i from alpha0 and the handed blinding
    factors.  At each alpha_i it checks the handed (keys, b): at mine
    against the decap oracle, at its own positions against kem_decap with
    its own key, and at the challenge that the oracle refuses it."""

    def __init__(self, rng, n, j, mine):
        super().__init__(rng, n=n, j=j)
        self._mine = mine

    def begin(self, group, pk, oracles):
        super().begin(group, pk, oracles)
        self._pk, self._oracles = pk, oracles

    def submit(self):
        self._own = [kem_keygen(self._group, self._rng.fork(b"k%d" % i))
                     for i in range(self._n)]
        pubkeys = [keypair.pk for keypair in self._own]
        pubkeys[self._j] = None
        if self._mine is not None:
            pubkeys[self._mine] = self._pk
        return self._j, pubkeys

    def on_challenge(self, alpha0, pre, challenge, post):
        self.checked = []
        alpha = alpha0
        for i, (keys, b) in enumerate(pre + [challenge[1:]] + post):
            if i == self._j:
                assert alpha == challenge[0]
                assert self._oracles.decap(alpha) is None
            elif i == self._mine:
                assert self._oracles.decap(alpha) == (keys, b)
            else:
                layer = kem_decap(self._group, self._own[i].sk, alpha)
                assert (layer.keys, layer.b) == (keys, b)
            self.checked.append(i)
            alpha = kem_blind(self._group, alpha, b)


@pytest.mark.parametrize("n", range(1, 6))
def test_game_decap_oracle_agrees_with_the_handed_chain(n):
    # What a reduction without sk must reproduce: at every non-challenge
    # alpha_i the decap oracle answers with the (keys, b) handed for
    # position i, whichever bit was drawn; after a random b the chain
    # continues from the random exponent.
    for j in range(n):
        for mine in [i for i in range(n) if i != j] or [None]:
            bits = set()
            for seed in range(64):
                adversary = _ChainWalkingAdversary(SeedRng(b"walk-adv"), n, j, mine)
                rng = SeedRng(b"walk/%d/%d/%s/%d" % (n, j, str(mine).encode(), seed))
                bits.add(kem_game_run(adversary, PROD_GROUP, rng)["b"])
                assert adversary.checked == list(range(n))
                if bits == {0, 1}:
                    break
            assert bits == {0, 1}


def test_game_refuses_a_repeated_key_that_never_compares_equal():
    class NeverEqual(int):
        def __eq__(self, other):
            return False

        __hash__ = int.__hash__

    class Repeats(GuessingKemAdversary):
        def submit(self):
            pk = kem_keygen(self._group, self._rng).pk
            return 1, [NeverEqual(pk), None, NeverEqual(pk)]

    with pytest.raises(ValueError, match="each an int"):
        kem_game_run(Repeats(SeedRng(b"rep")), PROD_GROUP, SeedRng(b"repg"))


def test_game_rejects_bad_submissions():
    class BadJ(GuessingKemAdversary):
        def submit(self):
            j, pubkeys = super().submit()
            return len(pubkeys), pubkeys  # out of range

    with pytest.raises(ValueError):
        kem_game_run(BadJ(SeedRng(b"bj")), PROD_GROUP, SeedRng(b"bjg"))

    class UnsetJ(GuessingKemAdversary):
        def submit(self):
            j, pubkeys = super().submit()
            return None, pubkeys

    with pytest.raises(ValueError):
        kem_game_run(UnsetJ(SeedRng(b"uj")), PROD_GROUP, SeedRng(b"ujg"))

    class BadKey(GuessingKemAdversary):
        def submit(self):
            j, pubkeys = super().submit()
            pubkeys[0] = 0
            return j, pubkeys

    with pytest.raises(ValueError):
        kem_game_run(BadKey(SeedRng(b"bk")), PROD_GROUP, SeedRng(b"bkg"))


def _refuses(check, names):
    """Whether check refuses a path of these names: ValueError or False."""
    try:
        return check(names) is False
    except ValueError:
        return True


@pytest.mark.parametrize("check", [
    lambda names: validate_shape(names, (), b"hi", FormatParams(group=PROD_GROUP)),
    lambda names: kem_game_run(GuessingKemAdversary(SeedRng(b"hops"), n=len(names), j=0),
                               PROD_GROUP, SeedRng(b"hops-game")),
    lambda names: RsorIdeal(bad=(), rng=SeedRng(b"hops")).process_new_onion(
        b"alice", b"svc", b"hi", names, ()),
], ids=["validate_shape", "kem_game_run", "process_new_onion"])
def test_every_path_check_uses_the_one_hop_limit(check):
    names = tuple(b"r%d" % i for i in range(MAX_HOPS + 1))
    assert not _refuses(check, names[:MAX_HOPS])
    assert _refuses(check, names)


# ---------------------------------------------------------------------------
# The public-key membership memo

@pytest.fixture
def tested(monkeypatch):
    """An empty key memo for this test; returns the list of (group name,
    value) pairs is_element is called on."""
    monkeypatch.setattr(kem_module, "_known_keys", kem_module._KnownKeys())
    tested = []
    original = GroupParams.is_element

    def counted(self, v):
        tested.append((self.name, v))
        return original(self, v)

    monkeypatch.setattr(GroupParams, "is_element", counted)
    return tested


def _non_residue(group):
    """The least v > 1 outside the subgroup, by Euler's criterion."""
    return next(v for v in range(2, group.p) if pow(v, group.q, group.p) != 1)


def _foreign_keys(group, count, seed):
    """count distinct members made outside kem_keygen."""
    rng = SeedRng(seed)
    keys = []
    while len(keys) < count:
        pk = group.exp(group.g, group.random_scalar(rng))
        if pk not in keys:
            keys.append(pk)
    return keys


@pytest.mark.parametrize("group", [PROD_GROUP, TOY_GROUP], ids=["prod", "toy"])
def test_is_public_key_agrees_with_is_element(tested, group):
    keygen_pk = kem_keygen(group, SeedRng(b"memo-keygen")).pk
    candidates = [
        keygen_pk, group.g, 1, *_foreign_keys(group, 2, b"memo-agrees"),
        0, group.p - 1, group.p, -1, _non_residue(group),
        str(group.g), float(group.g), float(keygen_pk), True,
    ]

    def agrees():
        return [is_public_key(group, v) == group.is_element(v) for v in candidates]

    # Empty memo, then with every member recorded, then with the memo
    # filled past its cap by other keys (of PROD_GROUP: TOY_GROUP has 5).
    assert all(agrees())
    assert all(agrees())
    for pk in _foreign_keys(PROD_GROUP, KNOWN_KEYS_CAP + 1, b"memo-filler"):
        assert is_public_key(PROD_GROUP, pk)
    assert all(agrees())
    assert all(agrees())


def test_memo_evicts_the_oldest_key_which_is_then_tested_again(tested):
    keys = _foreign_keys(PROD_GROUP, KNOWN_KEYS_CAP + 1, b"memo-cap")
    for pk in keys:
        assert is_public_key(PROD_GROUP, pk)
    assert len(kem_module._known_keys.groups) == KNOWN_KEYS_CAP
    assert len(tested) == KNOWN_KEYS_CAP + 1
    tested.clear()
    assert is_public_key(PROD_GROUP, keys[1])
    assert tested == []
    assert is_public_key(PROD_GROUP, keys[0])
    assert tested == [("prod", keys[0])]


def test_keygen_fills_the_memo_and_respects_its_cap(tested):
    rng = SeedRng(b"memo-keygen-cap")
    pks = [kem_keygen(PROD_GROUP, rng.fork(b"%d" % i)).pk for i in range(KNOWN_KEYS_CAP + 1)]
    assert len(kem_module._known_keys.groups) == KNOWN_KEYS_CAP
    assert all(is_public_key(PROD_GROUP, pk) for pk in pks[1:])
    assert tested == []
    assert is_public_key(PROD_GROUP, pks[0])
    assert tested == [("prod", pks[0])]


def test_a_key_recorded_for_one_group_is_tested_for_another(tested):
    # 5 is in TOY_GROUP's subgroup but not PROD_GROUP's; 4 is in both, and
    # the memo remembers a key for the group it last passed in.
    assert is_public_key(TOY_GROUP, 5)
    assert not is_public_key(PROD_GROUP, 5)
    assert is_public_key(TOY_GROUP, 4) and is_public_key(PROD_GROUP, 4)
    assert is_public_key(TOY_GROUP, 4)
    assert tested == [("toy", 5), ("prod", 5), ("toy", 4), ("prod", 4), ("toy", 4)]
    toy_pk = kem_keygen(TOY_GROUP, SeedRng(b"memo-toy")).pk
    tested.clear()
    is_public_key(PROD_GROUP, toy_pk)
    assert tested == [("prod", toy_pk)]


# Every entry point that takes hop keys refuses an out-of-range or
# off-subgroup key, after the memo has seen members.
_REFUSE_NON_MEMBERS = """
from rsor.crypto import SeedRng
from rsor.group import PROD_GROUP
from rsor.kem import GuessingKemAdversary, kem_game_run, kem_keygen
from rsor.packet import FormatParams, OnionSpec, derive, receiver_addr, validate_spec

params = FormatParams(group=PROD_GROUP)
good = kem_keygen(PROD_GROUP, SeedRng(b"refuse-good")).pk
accepted = []
for bad in (0, PROD_GROUP.p - 1, PROD_GROUP.p):
    spec = OnionSpec(seed=b"s", message=b"m", receiver=receiver_addr(b"svc", params),
                     path=((b"r0", good), (b"r1", bad)))
    for check in (validate_spec, derive):
        try:
            check(spec, params)
            accepted.append((check.__name__, bad))
        except ValueError:
            pass

    class Submits(GuessingKemAdversary):
        def submit(self, bad=bad):
            j, pubkeys = super().submit()
            pubkeys[0] = bad
            return j, pubkeys

    try:
        kem_game_run(Submits(SeedRng(b"refuse-adv")), PROD_GROUP, SeedRng(b"refuse-game"))
        accepted.append(("kem_game_run", bad))
    except ValueError:
        pass
"""


def test_non_member_keys_are_refused():
    namespace = {}
    exec(_REFUSE_NON_MEMBERS, namespace)
    assert namespace["accepted"] == []


def test_non_member_keys_are_refused_under_python_O():
    script = 'assert False, "asserts must be stripped"\n' + _REFUSE_NON_MEMBERS
    script += "print(accepted)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# Why decap tests membership, not only the range: -alpha* is outside the
# order-q subgroup (p = 2q + 1 = 3 mod 4, so -1 is a non-residue), and
# (-alpha*)^sk = (-1)^sk * s*, which is s* itself when sk is even.

class NegatedAlphaKemAdversary(GuessingKemAdversary):
    """Asks decap(p - alpha*) and guesses 0 exactly when the keys it gets
    back equal the challenge keys."""

    def begin(self, group, pk, oracles):
        super().begin(group, pk, oracles)
        self._oracles = oracles

    def on_challenge(self, alpha0, pre, challenge, post):
        alpha, keys, _b = challenge
        answer = self._oracles.decap(self._group.p - alpha)
        self._answer = 0 if answer is not None and answer[0] == keys else 1

    def guess(self):
        return self._answer


def _negated_alpha_wins(games=400, group=PROD_GROUP):
    rng = SeedRng(b"negated-alpha")
    return sum(
        kem_game_run(NegatedAlphaKemAdversary(rng.fork(b"a%d" % trial)), group,
                     rng.fork(b"g%d" % trial))["adversary_won"]
        for trial in range(games)
    )


def test_negated_alpha_is_refused_by_the_membership_check():
    wins = _negated_alpha_wins()
    assert fair_coin_pvalue(wins, 400) >= 0.01


def test_negated_alpha_wins_three_in_four_against_a_range_check(monkeypatch):
    # A fresh key memo, so nothing checked under the weakened test outlives it.
    monkeypatch.setattr(kem_module, "_known_keys", kem_module._KnownKeys())
    monkeypatch.setattr(GroupParams, "is_element",
                        lambda self, v: isinstance(v, int) and 1 <= v < self.p)
    wins = _negated_alpha_wins()
    # Bit 1 is always guessed right, bit 0 whenever sk is even: 3/4.
    assert fair_coin_pvalue(wins, 400) < 1e-9
    assert binomial_pvalue(wins, 400, Fraction(3, 4)) >= 0.01


# In the signed group p - alpha* names alpha*'s own class, so the attack
# cannot be expressed: it lies outside [1, q] and decap refuses it.

def test_negated_alpha_is_out_of_range_in_the_signed_group():
    wins = _negated_alpha_wins(group=SQR_GROUP)
    assert fair_coin_pvalue(wins, 400) >= 0.01


def test_negated_alpha_wins_once_the_signed_range_is_widened(monkeypatch):
    # A fresh key memo, so nothing checked under the widened range outlives it.
    monkeypatch.setattr(kem_module, "_known_keys", kem_module._KnownKeys())
    monkeypatch.setattr(GroupParams, "is_element",
                        lambda self, v: isinstance(v, int) and 1 <= v < self.p)
    wins = _negated_alpha_wins(group=SQR_GROUP)
    # |(p - alpha*)^sk| = |alpha*^sk| for every sk, not only the even ones.
    assert wins >= 0.95 * 400
