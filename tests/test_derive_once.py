"""Each onion is derived once, by its owner.  The sender keeps only a reply
opening, relays and the sender's reply branch never re-derive, and the game
challengers derive each spec at most once, in the world that uses it."""

import collections

import pytest

import rsor.games
import rsor.node
import rsor.packet
from rsor.crypto import SeedRng
from rsor.games import (
    DirectionStructureAdversary,
    GuessingAdversary,
    game_slu_backward,
    game_sti_tail,
    game_tlu_forward,
)
from rsor.group import PROD_GROUP
from rsor.kem import kem_keygen
from rsor.node import (
    RelayState,
    SendMessage,
    SendOnion,
    SenderState,
    relay_forward,
    relay_on_onion,
    relay_on_receiver_reply,
    sender_on_onion,
    sender_send,
)
from rsor.packet import FormatParams, OnionSpec, ReplyOpening, derive, receiver_addr

PARAMS = FormatParams(group=PROD_GROUP)


def _send(n=2, nr=3, seed=b"derive-once"):
    rng = SeedRng(seed)
    names = [b"r%d" % i for i in range(n)] + [b"q%d" % i for i in range(max(nr - 1, 0))]
    keys = {name: kem_keygen(PROD_GROUP, rng.fork(name)) for name in names + [b"alice"]}
    relays = {name: RelayState(name=name, keypair=keys[name]) for name in names}
    sender = SenderState(name=b"alice", keypair=keys[b"alice"])
    spec = OnionSpec(
        seed=rng.fork(b"spec").read(32),
        message=b"ping",
        receiver=receiver_addr(b"svc", PARAMS),
        path=tuple((name, keys[name].pk) for name in names[:n]),
        reply_path=tuple((name, keys[name].pk) for name in (names[n:] + [b"alice"])[:nr]),
    )
    _event, action = sender_send(sender, spec, PARAMS)
    return relays, sender, spec, action, rng.fork(b"ids")


def _deliver_and_answer(relays, sender, action, ids_rng, answer=b"pong"):
    onion, current, prev = action.onion, action.next_hop, b"alice"
    while current != b"alice":
        state = relays[current]
        event = relay_on_onion(state, onion, prev, PARAMS, ids_rng)
        _event, out = relay_forward(state, event["tid"], PARAMS, ids_rng)
        if isinstance(out, SendMessage):
            _event, out = relay_on_receiver_reply(state, answer, out.rid, PARAMS)
        assert isinstance(out, SendOnion)
        prev, current, onion = current, out.next_hop, out.onion
    return sender_on_onion(sender, onion, PARAMS)


def test_reply_is_opened_without_deriving_again(monkeypatch):
    relays, sender, _spec, action, ids_rng = _send()

    def refuse(*_args):
        raise AssertionError("derive called after the onion was sent")

    monkeypatch.setattr(rsor.packet, "derive", refuse)
    monkeypatch.setattr(rsor.node, "derive", refuse)
    event = _deliver_and_answer(relays, sender, action, ids_rng)
    assert event["kind"] == "got-reply"
    assert sender.replies == [b"pong"]


def test_sender_keeps_a_reply_opening_and_no_spec():
    _relays, sender, spec, _action, _ids = _send()
    d = derive(spec, PARAMS)
    opening = sender.view.lookup_reply(d.opening.header)
    assert isinstance(opening, ReplyOpening)
    assert opening == d.opening
    assert list(opening._fields) == ["header", "k_pis", "k_tilde"]
    # The sender's own reply hop applies no PRP layer, so only the relays'
    # keys before it are kept.
    assert len(opening.k_pis) == len(spec.reply_path) - 1
    held = [opening.header, opening.k_tilde, *opening.k_pis]
    assert all(isinstance(value, bytes) and spec.seed not in value for value in held)


def test_non_repliable_onion_has_no_opening():
    _relays, _sender, spec, action, _ids = _send(nr=0)
    d = derive(spec, PARAMS)
    assert d.reply_block is None and d.opening is None
    assert action.onion == d.onion(1)
    assert len(d.onions) == len(spec.path)
    with pytest.raises(ValueError):
        d.onion(len(spec.path) + 1)


def _derived_specs(monkeypatch, game, force_b, adversary_cls=GuessingAdversary):
    specs = []

    def counting(spec, params):
        specs.append(spec)
        return derive(spec, params)

    monkeypatch.setattr(rsor.games, "derive", counting)
    adversary = adversary_cls(SeedRng(b"derive-count-adv"))
    outcome = game(adversary, b"derive-count", params=PARAMS, force_b=force_b)
    assert outcome["b"] == force_b
    assert max(collections.Counter(specs).values()) == 1, "a spec was derived twice"
    return specs


@pytest.mark.parametrize("force_b", [0, 1])
def test_tlu_derives_real_and_bar_only_in_its_world(monkeypatch, force_b):
    specs = _derived_specs(monkeypatch, game_tlu_forward, force_b)
    # real carries the reply path; bar (the b = 1 stand-in) has none.
    assert [bool(s.reply_path) for s in specs] == [True] + [False] * force_b


@pytest.mark.parametrize("force_b", [0, 1])
def test_slu_derives_bar_only_on_use(monkeypatch, force_b):
    # The guessing adversary queries no oracle, so even at b = 1 only real
    # is derived.
    specs = _derived_specs(monkeypatch, game_slu_backward, force_b)
    assert len(specs) == 1 and specs[0].reply_path


def test_slu_derives_bar_when_an_oracle_answer_needs_it(monkeypatch):
    # At b = 1 the honest reply hop's answer to the walked-back challenge is
    # bar's first layer.
    specs = _derived_specs(monkeypatch, game_slu_backward, 1, DirectionStructureAdversary)
    assert [bool(s.reply_path) for s in specs] == [True, False]


@pytest.mark.parametrize("force_b", [0, 1])
def test_sti_derives_only_the_drawn_world(monkeypatch, force_b):
    specs = _derived_specs(monkeypatch, game_sti_tail, force_b)
    # The guessing adversary's STI path has 3 hops with j = 1; bar keeps the
    # last 2.
    assert [len(s.path) for s in specs] == [2 if force_b else 3]
