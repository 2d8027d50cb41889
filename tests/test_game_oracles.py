"""The game oracles answer the same way in both worlds: each party peels an
onion once in Proc, and Reply answers from that peel.  These cases pin the
answers the TLU challenger once gave only when b = 1, and the oracles'
handling of a payload of the wrong width."""

import dataclasses

import pytest

from rsor.crypto import SeedRng
from rsor.games import (
    P_H,
    P_S,
    GameOracles,
    Submission,
    _BaseAdversary,
    game_slu_backward,
    game_tlu_forward,
)
from rsor.group import PROD_GROUP
from rsor.kem import kem_keygen
from rsor.packet import (
    FormatParams,
    InMemoryView,
    OnionSpec,
    derive,
    form_onion,
    proc_onion,
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
        self.k1 = self.keypair(b"k1")
        return Submission(
            message=b"exit-probe", receiver=b"svc", j=2, j_back=1,
            path=((b"x1", self.k1.pk), (P_H, None)),
            reply_path=((b"x3", self.keypair(b"k3").pk), (P_S, None)),
        )

    def guess(self):
        result = proc_onion(self.k1.sk, self.challenge, b"x1", self.params, InMemoryView())
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
        return dataclasses.replace(super().submit(), j_back=0)


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


def test_wrong_payload_width_is_refused_not_raised():
    keys = {b"r0": kem_keygen(PROD_GROUP, SeedRng(b"r0"))}
    spec = OnionSpec(seed=b"width", message=b"m", receiver=receiver_addr(b"svc", PARAMS),
                     path=((b"r0", keys[b"r0"].pk),))
    onion = form_onion(1, spec, PARAMS)
    short = dataclasses.replace(onion, delta=onion.delta[:-1])
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
    assert oracles.state[P_S].lookup_reply(d.opening.ident) is None
    assert oracles.proc(P_S, d.onion(3)) is None
