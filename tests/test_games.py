from fractions import Fraction

import pytest

import rsor.kem as kem_module
from rsor.crypto import KAPPA, SeedRng
from rsor.games import (
    ADVERSARIES,
    GuessingAdversary,
    P_H,
    P_H_BACK,
    P_S,
    Submission,
    game_correctness,
    game_slu_backward,
    game_sti_tail,
    game_tlu_forward,
    run_game_batch,
)
from rsor.games import _BaseAdversary, fair_coin_pvalue
from rsor.group import PROD_GROUP, SQR_GROUP, GroupParams
from rsor.packet import FormatParams

from binomial import binomial_pvalue


def test_correctness_game_passes():
    result = game_correctness(10, seed=0)
    assert result["pass"], result["failures"]


def test_correctness_negative_control():
    result = game_correctness(10, seed=0, corrupt_hop=2)
    assert not result["pass"]
    assert any(f[0] == "forward-path" for f in result["failures"])
    # Each failure names the corrupted hop and why it dropped the onion.
    assert all(f[3:] == (2, "mac") for f in result["failures"])


@pytest.mark.parametrize("hop", [0, -1, 6, True, 1.5])
def test_correctness_refuses_a_corrupt_hop_off_the_path_before_any_trial(hop, monkeypatch):
    # Unchecked, 0 and -1 would index the path from its end, and 6 (above
    # max_hops) would corrupt no hop, so every trial would pass.
    def no_trial(*_args, **_kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("rsor.games._correctness_once", no_trial)
    with pytest.raises(ValueError, match="corrupt_hop"):
        game_correctness(3, seed=0, corrupt_hop=hop)


def _batch(game, adversary, games=120, seed=0):
    return run_game_batch(game, adversary, games, seed)


def test_guessing_near_half_everywhere():
    for game in ("tlu", "slu", "sti"):
        result = _batch(game, "guessing")
        assert 0.35 <= result["win_rate"] <= 0.65, (game, result)


def test_structural_adversaries_near_half():
    for game, adversary in (
        ("tlu", "byte-comparison"),
        ("tlu", "tag-consistency"),
        ("slu", "direction-structure"),
    ):
        result = _batch(game, adversary)
        assert 0.35 <= result["win_rate"] <= 0.65, (game, adversary, result)


def test_registered_expectations_cover_games():
    for name, (_cls, games, expectation) in ADVERSARIES.items():
        assert expectation in ("negative", "positive")
        assert all(g in ("tlu", "slu", "sti") for g in games)


def test_sti_rejects_exit_position():
    class ExitPosition(GuessingAdversary):
        def submit(self):
            sub = super().submit()
            # Place the honest relay at the exit: j = n must be rejected.
            return Submission(
                message=sub.message, receiver=sub.receiver, j=3, j_back=1,
                path=sub.path[1:] + ((P_H, None),), reply_path=sub.reply_path,
            )

    with pytest.raises(ValueError):
        game_sti_tail(ExitPosition(SeedRng(b"xp")), b"seed")


def test_sti_rejects_honest_exit():
    class HonestExit(GuessingAdversary):
        def submit(self):
            sub = super().submit()
            return Submission(
                message=sub.message, receiver=sub.receiver, j=1, j_back=1,
                path=((P_H, None), sub.path[1], (P_H_BACK, None)),
                reply_path=((P_H_BACK, None), (P_S, None)),
            )

    with pytest.raises(ValueError):
        game_sti_tail(HonestExit(SeedRng(b"he")), b"seed")


def test_slu_rejects_honest_relay_in_sender_slot():
    # j_back = nr names the last reply slot, which is the sender's.
    class SenderSlot(GuessingAdversary):
        def submit(self):
            sub = super().submit()
            return Submission(
                message=sub.message, receiver=sub.receiver, j_back=2,
                path=(sub.path[0], sub.path[2]),
                reply_path=(sub.reply_path[1], (P_H, None)),
            )

    with pytest.raises(ValueError):
        game_slu_backward(SenderSlot(SeedRng(b"ss")), b"seed")


def test_sti_rejects_honest_back_relay_in_sender_slot():
    class SenderSlot(GuessingAdversary):
        def submit(self):
            sub = super().submit()
            return Submission(
                message=sub.message, receiver=sub.receiver, j=1, j_back=2,
                path=sub.path, reply_path=sub.reply_path[1:],
            )

    with pytest.raises(ValueError):
        game_sti_tail(SenderSlot(SeedRng(b"ss")), b"seed")


def test_cyclic_paths_rejected():
    class Cyclic(GuessingAdversary):
        def submit(self):
            sub = super().submit()
            return Submission(
                message=sub.message, receiver=sub.receiver, j=2, j_back=1,
                path=(sub.path[0], (P_H, None), sub.path[0]),
                reply_path=sub.reply_path,
            )

    with pytest.raises(ValueError):
        game_tlu_forward(Cyclic(SeedRng(b"cy")), b"seed")


def test_bad_public_key_rejected():
    class BadKey(GuessingAdversary):
        def submit(self):
            sub = super().submit()
            path = ((sub.path[0][0], 0),) + sub.path[1:]
            return Submission(
                message=sub.message, receiver=sub.receiver, j=sub.j,
                j_back=sub.j_back, path=path, reply_path=sub.reply_path,
            )

    with pytest.raises(ValueError):
        game_tlu_forward(BadKey(SeedRng(b"bk")), b"seed")


class _NamedBeforeHonestHop(GuessingAdversary):
    """A guessing adversary whose first forward relay, a corrupted one before
    the honest hop, has the given name: STI's b = 1 stand-in path leaves it
    out, so only a check made before the bit refuses it in both worlds."""

    def __init__(self, rng, name):
        super().__init__(rng)
        self.name = name

    def submit(self):
        sub = super().submit()
        if len(self.parties) == 3:  # STI: move its honest hop from j = 1 to j = 2
            sub = sub._replace(j=2, path=(self.relay(b"x0"),) + sub.path)
        return sub._replace(path=((self.name, sub.path[0][1]),) + sub.path[1:])


@pytest.mark.parametrize("game", [game_tlu_forward, game_slu_backward, game_sti_tail])
@pytest.mark.parametrize("bit", [0, 1])
def test_overlong_relay_name_refused_in_both_worlds(game, bit):
    longest = b"n" * 15  # an address field's width after its tag
    game(_NamedBeforeHonestHop(SeedRng(b"nm"), longest), b"seed", force_b=bit)
    with pytest.raises(ValueError, match="address field"):
        game(_NamedBeforeHonestHop(SeedRng(b"nm"), longest + b"n"), b"seed", force_b=bit)


class _UnsetPosition(GuessingAdversary):
    """A guessing adversary that leaves its submission's j or j_back unset."""

    def __init__(self, rng, field):
        super().__init__(rng)
        self.field = field

    def submit(self):
        return super().submit()._replace(**{self.field: None})


@pytest.mark.parametrize("game, field", [
    (game_tlu_forward, "j"),
    (game_slu_backward, "j_back"),
    (game_sti_tail, "j"),
    (game_sti_tail, "j_back"),
])
@pytest.mark.parametrize("bit", [0, 1])
def test_unset_position_refused_in_both_worlds(game, field, bit):
    with pytest.raises(ValueError, match="position"):
        game(_UnsetPosition(SeedRng(b"unset"), field), b"seed", force_b=bit)


class _MessageOfType(GuessingAdversary):
    """A guessing adversary whose challenge message is the given object."""

    def __init__(self, rng, message):
        super().__init__(rng)
        self.message = message

    def submit(self):
        return super().submit()._replace(message=self.message)


@pytest.mark.parametrize("game", [game_tlu_forward, game_sti_tail])
@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("message", ["probe", bytearray(b"probe")], ids=["str", "bytearray"])
def test_message_not_exactly_bytes_refused_in_both_worlds(game, bit, message):
    game(_MessageOfType(SeedRng(b"msg-type"), b"probe"), b"seed", force_b=bit)
    with pytest.raises(ValueError, match="message must be bytes"):
        game(_MessageOfType(SeedRng(b"msg-type"), message), b"seed", force_b=bit)


class _ReplayProbe(_BaseAdversary):
    """Drives the TLU challenge to the honest exit and probes the oracle's
    replay and one-reply rules."""

    def submit(self):
        return Submission(
            message=b"hello", receiver=b"svc", j=2, j_back=1,
            path=(self.relay(b"x1"), (P_H, None)),
            reply_path=(self.relay(b"x3"), (P_S, None)),
        )

    def guess(self):
        step = self.peel(b"x1", self.challenge)
        assert step.kind == "forward"
        layer = step.next_onion
        self.first = self.oracles.proc(P_H, layer)
        self.replayed = self.oracles.proc(P_H, layer)
        self.reply1 = self.oracles.reply(P_H, layer, b"pong")
        self.reply2 = self.oracles.reply(P_H, layer, b"pong-again")
        return 0


def test_eta_replay_and_one_reply_rules():
    for b in (0, 1):
        adversary = _ReplayProbe(SeedRng(b"rp"))
        game_tlu_forward(adversary, b"probe-seed", force_b=b)
        assert adversary.first is not None and adversary.first[0] == "exit"
        assert adversary.replayed is None
        assert adversary.reply1 is not None and adversary.reply1[0] == "reply-onion"
        assert adversary.reply2 is None


def test_tlu_transcript_shape_bit_independent():
    transcripts = {}
    for b in (0, 1):
        adversary = _ReplayProbe(SeedRng(b"shape"))
        out = game_tlu_forward(adversary, b"shape-seed", force_b=b)
        transcripts[b] = [length for _move, length in out["transcript"]]
    assert transcripts[0] == transcripts[1]


class _SluAbsorbProbe(_BaseAdversary):
    """Walks an SLU challenge through the full reply path and checks that
    the final layer is silently absorbed at the honest sender."""

    def submit(self):
        return Submission(
            message=b"probe", receiver=b"svc", j_back=1,
            path=(self.relay(b"x1"),),
            reply_path=((P_H, None), self.relay(b"x3"), (P_S, None)),
        )

    def guess(self):
        formed = self.exit_reply(self.challenge, b"x1", b"back")
        assert formed is not None
        out = self.oracles.proc(P_H, formed[0])
        assert out is not None and out[0] == "forward"
        step2 = self.peel(b"x3", out[2])
        assert step2.kind == "forward"
        self.absorbed = self.oracles.proc(P_S, step2.next_onion)
        return 0


def test_slu_silent_absorption_at_sender():
    for b in (0, 1):
        adversary = _SluAbsorbProbe(SeedRng(b"slu-abs"))
        game_slu_backward(adversary, b"abs-seed", force_b=b)
        assert adversary.absorbed is None, b


class _StiAbsorbProbe(_BaseAdversary):
    """Walks an STI challenge through its corrupted tail and reply start and
    checks the silent absorption at the honest reply relay."""

    def submit(self):
        return Submission(
            message=b"probe", receiver=b"svc", j=1, j_back=1,
            path=((P_H, None), self.relay(b"x1")),
            reply_path=((P_H_BACK, None), (P_S, None)),
        )

    def guess(self):
        formed = self.exit_reply(self.challenge, b"x1", b"back")
        assert formed is not None
        self.absorbed = self.oracles.proc(P_H_BACK, formed[0])
        return 0


def test_sti_silent_absorption_and_same_message():
    for b in (0, 1):
        adversary = _StiAbsorbProbe(SeedRng(b"sti-abs"))
        game_sti_tail(adversary, b"sti-seed", force_b=b)
        assert adversary.absorbed is None, b


class _StiMessageCheck(_StiAbsorbProbe):
    """Both STI worlds must expose the same message at the corrupted exit."""

    def guess(self):
        result = self.peel(b"x1", self.challenge)
        assert result.kind == "exit"
        self.seen_message = result.message
        return 0


def test_sti_same_message_both_worlds():
    messages = set()
    for b in (0, 1):
        adversary = _StiMessageCheck(SeedRng(b"sti-msg"))
        game_sti_tail(adversary, b"msg-seed", force_b=b)
        messages.add(adversary.seen_message)
    assert messages == {b"probe"}


def test_padding_adversary_wins_sti_only_in_legacy_mode():
    from rsor.group import PROD_GROUP
    from rsor.packet import FormatParams

    legacy = FormatParams(group=PROD_GROUP, legacy_zero_filler=True)
    strong = run_game_batch("sti", "path-length-padding", 60, 1, params=legacy)
    assert strong["win_rate"] >= 0.95
    fixed = run_game_batch("sti", "path-length-padding", 60, 1)
    assert 0.35 <= fixed["win_rate"] <= 0.65


@pytest.mark.parametrize("game, adversary", [
    ("correctness", "guessing"),
    ("tlu", "direction-structure"),
    ("sti", "tag-consistency"),
    ("tlu", "no-such-adversary"),
])
def test_batch_refuses_unregistered_pairing_before_any_game(game, adversary, monkeypatch):
    def no_game(*_args, **_kwargs):
        raise AssertionError("a game ran")

    monkeypatch.setattr("rsor.games.kem_keygen", no_game)
    with pytest.raises(ValueError, match="adversary %s is not registered for game %s"
                       % (adversary, game)):
        run_game_batch(game, adversary, 1, 0)


# ---------------------------------------------------------------------------
# Why proc_onion tests each alpha for membership, not only its range: the
# TLU leg of the negated-alpha attack.  In PROD_GROUP p - alpha is a
# non-member (p = 3 mod 4), and (p - alpha)^sk = (-1)^sk * alpha^sk names
# the same layer keys whenever sk is even.

class NegatedAlphaAdversary(GuessingAdversary):
    """Peels x1 itself, negates alpha at P_H and asks Proc there with beta,
    gamma and the payload unchanged.  Real's layer at P_H (b = 0) peels to
    a forward, bar's (b = 1) to its exit; a refusal leaves a coin."""

    def guess(self):
        params = self.params
        peeled = self.peel(b"x1", self.challenge)
        if peeled.kind != "forward":
            return self.coin()
        onion, elem_len = peeled.next_onion, params.group.elem_len
        negated = params.group.p - int.from_bytes(onion[:elem_len], "big")
        out = self.oracles.proc(P_H, negated.to_bytes(elem_len, "big") + onion[elem_len:])
        if out is None:
            return self.coin()
        return 0 if out[0] == "forward" else 1


def _tlu_wins(adversary_cls, label, games, params=None):
    rng = SeedRng(label)
    wins = 0
    for i in range(games):
        grng = rng.fork(b"g%d" % i)
        outcome = game_tlu_forward(adversary_cls(grng.fork(b"adv")),
                                   grng.fork(b"chal").read(16), params=params)
        wins += outcome["guess_correct"]
    return wins


def _negated_alpha_tlu_wins(group, games=300):
    return _tlu_wins(NegatedAlphaAdversary, b"negated-alpha-tlu", games, FormatParams(group=group))


@pytest.fixture
def range_membership(monkeypatch):
    """GroupParams.is_element widened to the range [1, p) for this test,
    with a fresh key memo, so nothing checked under it outlives the test."""
    monkeypatch.setattr(kem_module, "_known_keys", kem_module._KnownKeys())
    monkeypatch.setattr(GroupParams, "is_element",
                        lambda self, v: isinstance(v, int) and 1 <= v < self.p)


@pytest.mark.parametrize("group", [PROD_GROUP, SQR_GROUP], ids=["prod", "sqr"])
def test_negated_alpha_tlu_is_refused_at_the_boundary(group):
    wins = _negated_alpha_tlu_wins(group)
    assert fair_coin_pvalue(wins, 300) >= 0.01


def test_negated_alpha_tlu_wins_three_in_four_against_a_range_check(range_membership):
    wins = _negated_alpha_tlu_wins(PROD_GROUP)
    # Every even-key game is won, and half of the odd-key ones: 3/4.
    assert fair_coin_pvalue(wins, 300) < 1e-9
    assert binomial_pvalue(wins, 300, Fraction(3, 4)) >= 0.01


def test_negated_alpha_tlu_wins_in_the_signed_group_widened_to_p(range_membership):
    # |(p - alpha)^sk| = |alpha^sk| for every sk, so every game is won.
    assert _negated_alpha_tlu_wins(SQR_GROUP) >= 0.95 * 300


# ---------------------------------------------------------------------------
# Why proc_onion checks the header MAC: a bit flipped in beta past the
# routing field leaves the layer peelable, and only the MAC refuses it.

class BetaBitFlipAdversary(GuessingAdversary):
    """Peels x1 itself, flips the last bit of beta at P_H and asks Proc
    there.  With the MAC check P_H refuses the layer in both worlds; without
    it real's layer (b = 0) peels to a forward and bar's (b = 1) to its
    exit."""

    def guess(self):
        onion = self.walk(self.challenge, (b"x1",))
        if onion is None:
            return self.coin()
        # The last byte of beta is the one before gamma's KAPPA bytes.
        at = self.params.header_len - KAPPA - 1
        flipped = onion[:at] + bytes([onion[at] ^ 1]) + onion[at + 1:]
        out = self.oracles.proc(P_H, flipped)
        return 0 if out is not None and out[0] == "forward" else 1


def test_beta_bit_flip_tlu_is_refused_by_the_mac():
    wins = _tlu_wins(BetaBitFlipAdversary, b"beta-bit-flip-tlu", 200)
    assert fair_coin_pvalue(wins, 200) >= 0.01


def test_beta_bit_flip_tlu_wins_without_the_mac(monkeypatch):
    # Every gamma the sender builds and every check a relay makes agree.
    monkeypatch.setattr("rsor.packet.mac", lambda key, data: bytes(KAPPA))
    assert _tlu_wins(BetaBitFlipAdversary, b"beta-bit-flip-tlu", 200) >= 0.95 * 200
