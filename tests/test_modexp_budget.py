"""Group membership is checked once, where untrusted values enter, and each
party processes an onion once.  These tests pin the modexp cost of that and
the behaviour that must survive it: range errors, replay refusal, rid use."""

import dataclasses

import pytest

from rsor.crypto import SeedRng
from rsor.games import GameOracles
from rsor.group import PROD_GROUP, GroupParams
from rsor.kem import kem_keygen
from rsor.node import RelayState, SendMessage, relay_forward, relay_on_onion, relay_on_receiver_reply
from rsor.packet import (
    FormatParams,
    InMemoryView,
    OnionSpec,
    form_onion,
    proc_onion,
    receiver_addr,
    recognize_onion,
)

PARAMS = FormatParams(group=PROD_GROUP)


def _spec(n, nr, seed=b"budget-spec"):
    rng = SeedRng(seed)
    names = [b"r%d" % i for i in range(n)]
    rnames = [b"q%d" % i for i in range(nr - 1)] + ([b"sender"] if nr else [])
    keys = {name: kem_keygen(PROD_GROUP, rng.fork(name)) for name in names + rnames}
    spec = OnionSpec(
        seed=seed,
        message=b"budget",
        receiver=receiver_addr(b"svc", PARAMS),
        path=tuple((name, keys[name].pk) for name in names),
        reply_path=tuple((name, keys[name].pk) for name in rnames),
    )
    return spec, keys


@pytest.fixture
def counts(monkeypatch):
    """Count GroupParams.exp and GroupParams.is_element calls."""
    tally = {"exp": 0, "is_element": 0}
    for method in tally:
        original = getattr(GroupParams, method)

        def counted(self, *args, _original=original, _method=method):
            tally[_method] += 1
            return _original(self, *args)

        monkeypatch.setattr(GroupParams, method, counted)
    return tally


def test_forward_hop_costs_three_modexps(counts):
    spec, keys = _spec(3, 0)
    onion = form_onion(2, spec, PARAMS)
    counts.update(exp=0, is_element=0)
    result = proc_onion(keys[b"r1"].sk, onion, b"r1", PARAMS, InMemoryView())
    assert result.kind == "forward"
    # alpha in G, then alpha^sk (decap) and alpha^b (blind).
    assert counts == {"exp": 2, "is_element": 1}


def test_encode_and_exp_do_no_membership_test(counts):
    element = pow(PROD_GROUP.g, 12345, PROD_GROUP.p)
    PROD_GROUP.encode(element)
    PROD_GROUP.exp(element, 7)
    assert counts == {"exp": 1, "is_element": 0}


@pytest.mark.parametrize("value", [0, PROD_GROUP.p, -1])
def test_encode_rejects_out_of_range_values(value):
    with pytest.raises(ValueError):
        PROD_GROUP.encode(value)


@pytest.mark.parametrize("alpha", [0, PROD_GROUP.p, -1])
def test_out_of_range_alpha_is_not_recognized_or_processed(alpha):
    spec, keys = _spec(2, 1)
    onion = form_onion(1, spec, PARAMS)
    bad = dataclasses.replace(onion, header=dataclasses.replace(onion.header, alpha=alpha))
    assert not recognize_onion(1, bad, spec, PARAMS)
    oracles = GameOracles(PARAMS, {b"r0": keys[b"r0"]})
    assert oracles.proc(b"r0", bad) is None
    assert oracles.reply(b"r0", bad, b"answer") is None


def test_replayed_onion_is_refused():
    spec, keys = _spec(2, 1)
    state = RelayState(name=b"r0", keypair=keys[b"r0"])
    ids = SeedRng(b"replay-ids")
    onion = form_onion(1, spec, PARAMS)
    assert relay_on_onion(state, onion, b"sender", PARAMS, ids)["kind"] == "onion-received"
    again = relay_on_onion(state, onion, b"sender", PARAMS, ids)
    assert again == {"actor": "r0", "kind": "dropped", "reason": "replay"}
    other, _ = _spec(2, 1, seed=b"another-spec")
    assert proc_onion(keys[b"r0"].sk, form_onion(1, other, PARAMS), b"r0", PARAMS,
                      state.view).reason != "replay"


def test_exit_processes_a_repliable_onion_once(counts):
    spec, keys = _spec(2, 2)
    exit_name = spec.path[-1][0]
    state = RelayState(name=exit_name, keypair=keys[exit_name])
    ids = SeedRng(b"exit-ids")
    onion = form_onion(2, spec, PARAMS)
    counts.update(exp=0, is_element=0)
    event = relay_on_onion(state, onion, b"r0", PARAMS, ids)
    _event, delivery = relay_forward(state, event["tid"], PARAMS, ids)
    assert isinstance(delivery, SendMessage) and delivery.rid is not None
    sent, reply = relay_on_receiver_reply(state, spec.message, delivery.rid, PARAMS)
    assert sent["kind"] == "reply-sent"
    # One peel: alpha in G, one decap, and the decode of the embedded reply
    # header; minting the rid and answering cost no modexp.
    assert counts == {"exp": 1, "is_element": 2}
    assert reply.next_hop == spec.reply_path[0][0]
    assert reply.onion == form_onion(3, spec, PARAMS)


def test_oversized_reply_is_dropped_as_unrepliable():
    spec, keys = _spec(1, 1)
    state = RelayState(name=b"r0", keypair=keys[b"r0"])
    ids = SeedRng(b"long-ids")
    event = relay_on_onion(state, form_onion(1, spec, PARAMS), b"sender", PARAMS, ids)
    _event, delivery = relay_forward(state, event["tid"], PARAMS, ids)
    too_long = b"x" * (PARAMS.max_msg_len + 1)
    dropped, action = relay_on_receiver_reply(state, too_long, delivery.rid, PARAMS)
    assert dropped["reason"] == "unrepliable" and action is None
    # The rid was used up.
    assert relay_on_receiver_reply(state, b"ok", delivery.rid, PARAMS)[0]["reason"] == "unknown-rid"
