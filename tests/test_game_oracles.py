"""The game oracles answer the same way in both worlds: each party peels an
onion once in Proc, and Reply answers from that peel.  These cases pin the
answers the TLU challenger once gave only when b = 1, the oracles'
handling of a payload of the wrong width, and the one exact check of
adversary input each oracle makes before either world looks at it."""

import pytest

from rsor.crypto import SeedRng
from rsor.games import (
    P_H,
    P_S,
    GameOracles,
    GuessingAdversary,
    Submission,
    _BaseAdversary,
    game_slu_backward,
    game_tlu_forward,
)
from rsor.group import PROD_GROUP
from rsor.kem import kem_keygen
from rsor.packet import (
    FormatParams,
    Header,
    InMemoryView,
    Onion,
    OnionSpec,
    derive,
    form_onion,
    receiver_addr,
    tag_payload,
)

PARAMS = FormatParams(group=PROD_GROUP)


class _ExitProbe(_BaseAdversary):
    """Puts the honest relay at the exit (j = n = 2), peels the challenge
    with its own first hop, and hands the result to probe(oracles, onion)."""

    def __init__(self, rng, probe):
        super().__init__(rng)
        self.probe = probe

    def submit(self):
        return Submission(
            message=b"exit-probe", receiver=b"svc", j=2, j_back=1,
            path=(self.relay(b"x1"), (P_H, None)),
            reply_path=(self.relay(b"x3"), (P_S, None)),
        )

    def guess(self):
        result = self.peel(b"x1", self.challenge)
        assert result.kind == "forward"
        self.answer = self.probe(self.oracles, result.next_onion)
        return 0


def _run_tlu(probe, bit):
    adversary = _ExitProbe(SeedRng(b"exit-probe"), probe)
    game_tlu_forward(adversary, seed=3, force_b=bit)
    return adversary.answer


@pytest.mark.parametrize("bit", [0, 1])
def test_tlu_tagged_exit_layer_fails_in_both_worlds(bit):
    def tag_then_proc_and_reply(oracles, onion):
        tagged = tag_payload(onion, SeedRng(b"mask").read(PARAMS.payload_len))
        return oracles.proc(P_H, tagged), oracles.reply(P_H, tagged, b"answer")

    assert _run_tlu(tag_then_proc_and_reply, bit) == (None, None)


@pytest.mark.parametrize("bit", [0, 1])
def test_tlu_oversized_reply_is_none_in_both_worlds(bit):
    def proc_then_long_reply(oracles, onion):
        assert oracles.proc(P_H, onion)[0] == "exit"
        return oracles.reply(P_H, onion, b"x" * (PARAMS.max_msg_len + 1))

    assert _run_tlu(proc_then_long_reply, bit) is None


class _SluExitProbe(_ExitProbe):
    """The same probe in SLU with j_back = 0, so the honest relay is real's exit."""

    def submit(self):
        return super().submit()._replace(j_back=0)


@pytest.mark.parametrize("game, probe_cls", [(game_tlu_forward, _ExitProbe),
                                              (game_slu_backward, _SluExitProbe)])
@pytest.mark.parametrize("bit", [0, 1])
def test_reply_answers_only_the_processed_onion_once(game, probe_cls, bit):
    def replies_around_proc(oracles, onion):
        tagged = tag_payload(onion, SeedRng(b"mask").read(PARAMS.payload_len))
        before = oracles.reply(P_H, onion, b"answer")
        assert oracles.proc(P_H, onion)[0] == "exit"
        return (before, oracles.reply(P_H, tagged, b"answer"),
                oracles.reply(P_H, onion, b"answer"), oracles.reply(P_H, onion, b"answer"))

    adversary = probe_cls(SeedRng(b"exit-probe"), replies_around_proc)
    game(adversary, seed=3, force_b=bit)
    before, to_tagged, first, second = adversary.answer
    assert before is None and to_tagged is None and second is None
    assert first[0] == "reply-onion"


@pytest.mark.parametrize("bit", [0, 1])
def test_plain_tuples_equal_to_awaited_onions_are_none_in_both_worlds(bit):
    # A named tuple equals a plain tuple of its values, so only the exact
    # types _well_formed checks keep such a tuple from P_H's reply entry
    # and from the reply header P_S awaits.
    def untyped(onion):
        return tuple(onion), Onion(tuple(onion.header), onion.delta)

    def probe(oracles, onion):
        assert oracles.proc(P_H, onion)[0] == "exit"
        refused = [oracles.reply(P_H, fake, b"answer") for fake in untyped(onion)]
        _kind, reply, first_hop = oracles.reply(P_H, onion, b"answer")
        at_sender = adversary.peel(first_hop, reply).next_onion
        refused += [oracles.proc(P_S, fake) for fake in untyped(at_sender)]
        return refused, oracles.proc(P_S, at_sender)

    adversary = _ExitProbe(SeedRng(b"exit-probe"), probe)
    game_tlu_forward(adversary, seed=3, force_b=bit)
    refused, opened = adversary.answer
    assert refused == [None] * 4
    assert opened == ("reply", b"answer")


def test_wrong_payload_width_is_refused_not_raised():
    keys = {b"r0": kem_keygen(PROD_GROUP, SeedRng(b"r0"))}
    spec = OnionSpec(seed=b"width", message=b"m", receiver=receiver_addr(b"svc", PARAMS),
                     path=((b"r0", keys[b"r0"].pk),))
    onion = form_onion(1, spec, PARAMS)
    short = onion._replace(delta=onion.delta[:-1])
    oracles = GameOracles(PARAMS, keys)
    assert oracles.proc(b"r0", short) is None
    assert oracles.reply(b"r0", short, b"answer") is None


def test_game_sender_retires_the_opening_its_proc_opens():
    keys = {name: kem_keygen(PROD_GROUP, SeedRng(name)) for name in (b"r0", b"q0", P_S)}
    spec = OnionSpec(seed=b"retire", message=b"m", receiver=receiver_addr(b"svc", PARAMS),
                     path=((b"r0", keys[b"r0"].pk),),
                     reply_path=((b"q0", keys[b"q0"].pk), (P_S, keys[P_S].pk)))
    d = derive(spec, PARAMS)
    oracles = GameOracles(PARAMS, {P_S: keys[P_S]})
    oracles.state[P_S].expect_reply(d.opening)
    assert oracles.proc(P_S, d.onion(3)) == ("reply", b"m")
    assert oracles.state[P_S].lookup_reply(d.opening.header) is None
    assert oracles.proc(P_S, d.onion(3)) is None


class _MidProbe(_ExitProbe):
    """The same probe with a corrupted relay after the honest one (j = 2 < n = 3)."""

    def submit(self):
        sub = super().submit()
        return sub._replace(path=sub.path + (self.relay(b"x2"),))


def _both_worlds(game, probe_cls, probe, seed):
    """The probe's answers at b = 0 and at b = 1."""
    answers = []
    for bit in (0, 1):
        adversary = probe_cls(SeedRng(b"probe/%d" % seed), probe)
        game(adversary, seed=seed, force_b=bit)
        answers.append(adversary.answer)
    return answers


@pytest.mark.parametrize("seed", range(3))
def test_slu_reply_with_a_str_message_is_none_in_both_worlds(seed):
    def proc_then_str_reply(oracles, onion):
        return oracles.proc(P_H, onion), oracles.reply(P_H, onion, "str")

    at_0, at_1 = _both_worlds(game_slu_backward, _SluExitProbe, proc_then_str_reply, seed)
    assert at_0 == at_1 and at_0[0][0] == "exit" and at_0[1] is None


@pytest.mark.parametrize("seed", range(3))
def test_tlu_str_payload_is_none_in_both_worlds(seed):
    def proc_str_payload(oracles, onion):
        return oracles.proc(P_H, Onion(onion.header, "x" * PARAMS.payload_len))

    assert _both_worlds(game_tlu_forward, _MidProbe, proc_str_payload, seed) == [None, None]


class _EqualsAnything(Header):
    def __eq__(self, other):
        return True

    __hash__ = Header.__hash__


@pytest.mark.parametrize("seed", range(3))
def test_tlu_header_subclass_is_none_in_both_worlds(seed):
    def proc_forged_header(oracles, onion):
        forged = _EqualsAnything(PROD_GROUP.g, bytes(PARAMS.beta_len), bytes(PARAMS.kappa))
        return oracles.proc(P_H, Onion(forged, onion.delta))

    assert _both_worlds(game_tlu_forward, _MidProbe, proc_forged_header, seed) == [None, None]


class _NeverUnequal(bytes):
    def __ne__(self, other):
        return False

    __hash__ = bytes.__hash__


class _NeverEqual(int):
    def __eq__(self, other):
        return False

    __hash__ = int.__hash__


class _InexactEntry(GuessingAdversary):
    """The guessing submission with one forward-path entry replaced:
    entry(path, own_key) gives its index and its new (name, key)."""

    def __init__(self, rng, entry):
        super().__init__(rng)
        self.entry = entry

    def submit(self):
        sub = super().submit()
        path = list(sub.path)
        idx, path_entry = self.entry(path, self.keypair(b"own").pk)
        path[idx] = path_entry
        return sub._replace(path=tuple(path))


@pytest.mark.parametrize("entry", [
    # A name that never compares unequal would pass as P_H in P_H's slot
    # (index 1) with the adversary's own key.
    lambda path, own: (1, (_NeverUnequal(b"impostor"), own)),
    lambda path, own: (0, (path[0][0], _NeverEqual(path[0][1]))),
], ids=["name", "key"])
def test_tlu_submission_refuses_inexact_names_and_keys(entry):
    with pytest.raises(ValueError, match="must be bytes"):
        game_tlu_forward(_InexactEntry(SeedRng(b"inexact"), entry), seed=3)


def test_honest_proc_tags_its_header_once(monkeypatch):
    tagged = []
    original = InMemoryView._tag

    def counted(header_bytes):
        tagged.append(header_bytes)
        return original(header_bytes)

    monkeypatch.setattr(InMemoryView, "_tag", staticmethod(counted))
    keys = {b"r0": kem_keygen(PROD_GROUP, SeedRng(b"r0"))}
    spec = OnionSpec(seed=b"tag-once", message=b"m", receiver=receiver_addr(b"svc", PARAMS),
                     path=((b"r0", keys[b"r0"].pk),))
    oracles = GameOracles(PARAMS, keys)
    assert oracles.proc(b"r0", form_onion(1, spec, PARAMS))[0] == "exit"
    assert len(tagged) == 1
