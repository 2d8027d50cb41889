import hashlib

import pytest

from rsor.crypto import KAPPA, SeedRng
from rsor.group import PROD_GROUP
from rsor.kem import kem_chain_create, kem_keygen
from rsor.node import (
    REPLY_BUFFER_CAP,
    ReceiverState,
    RelayState,
    SendMessage,
    SendOnion,
    SenderState,
    receiver_on_message,
    relay_forward,
    relay_on_onion,
    relay_on_receiver_reply,
    sender_on_onion,
    sender_send,
)
from rsor.packet import (
    ADDR_REPLY_RETURN,
    REPLY_OPENING_CAP,
    FormatParams,
    InMemoryView,
    OnionSpec,
    build_header,
    derive,
    encode_addr,
    receiver_addr,
    relay_addr,
    tag_payload,
)

PARAMS = FormatParams(group=PROD_GROUP)


def _network(n, nr, seed=b"net"):
    rng = SeedRng(seed)
    names = [b"r%d" % i for i in range(n)] + [b"q%d" % i for i in range(max(nr - 1, 0))]
    keys = {name: kem_keygen(PROD_GROUP, rng.fork(name)) for name in names + [b"alice"]}
    relays = {name: RelayState(name=name, keypair=keys[name]) for name in names}
    sender = SenderState(name=b"alice", keypair=keys[b"alice"])
    receiver = ReceiverState(name=b"svc")
    rpath = [b"q%d" % i for i in range(nr - 1)] + ([b"alice"] if nr else [])
    spec = OnionSpec(
        seed=rng.fork(b"spec").read(32),
        message=b"ping",
        receiver=receiver_addr(b"svc", PARAMS),
        path=tuple((name, keys[name].pk) for name in names[:n]),
        reply_path=tuple((name, keys[name].pk) for name in rpath),
    )
    return relays, sender, receiver, spec, rng.fork(b"ids")


def _drive(relays, sender, receiver, action, params, ids_rng, reply_message):
    """Run one onion to completion, echoing a reply when possible."""
    onion, current = action.onion, action.next_hop
    while True:
        if current == b"alice":
            return sender_on_onion(sender, onion, params)
        state = relays[current]
        event = relay_on_onion(state, onion, current, params, ids_rng)
        if event["kind"] == "dropped":
            return event
        event2, action2 = relay_forward(state, event["tid"], params, ids_rng)
        if isinstance(action2, SendOnion):
            current, onion = action2.next_hop, action2.onion
            continue
        assert isinstance(action2, SendMessage)
        receiver_on_message(receiver, action2.message, action2.rid, current)
        if action2.rid is None or reply_message is None:
            return event2
        event3, action3 = relay_on_receiver_reply(state, reply_message, action2.rid, params)
        if action3 is None:
            return event3
        current, onion = action3.next_hop, action3.onion


@pytest.mark.parametrize("make", [
    lambda kp: RelayState(name=b"r", keypair=kp, view=InMemoryView()),
    lambda kp: RelayState(name=b"r", keypair=kp, outgoing_buffer={}),
    lambda kp: RelayState(name=b"r", keypair=kp, reply_buffer={}),
    lambda kp: SenderState(name=b"s", keypair=kp, view=InMemoryView()),
    lambda kp: SenderState(name=b"s", keypair=kp, replies=[]),
    lambda kp: ReceiverState(name=b"v", inbox=[]),
], ids=["relay-view", "relay-outgoing", "relay-replies", "sender-view", "sender-replies",
        "receiver-inbox"])
def test_party_state_is_built_by_the_party(make):
    with pytest.raises(TypeError):
        make(kem_keygen(PROD_GROUP, SeedRng(b"state")))


def test_end_to_end_echo_all_lengths():
    for n in range(1, 6):
        for nr in range(1, 6):
            relays, sender, receiver, spec, ids = _network(n, nr, b"e2e%d%d" % (n, nr))
            _event, action = sender_send(sender, spec, PARAMS)
            final = _drive(relays, sender, receiver, action, PARAMS, ids, b"pong")
            assert final["kind"] == "got-reply", (n, nr, final)
            assert sender.replies == [b"pong"]
            assert receiver.inbox[0][0] == b"ping"


def test_non_repliable_delivery():
    relays, sender, receiver, spec, ids = _network(3, 0, b"norep")
    _event, action = sender_send(sender, spec, PARAMS)
    final = _drive(relays, sender, receiver, action, PARAMS, ids, b"pong")
    assert final["kind"] == "message-delivered"
    assert final["repliable"] is False
    assert receiver.inbox[0][1] is None


def test_replayed_onion_dropped():
    relays, sender, receiver, spec, ids = _network(2, 0, b"replay")
    _event, action = sender_send(sender, spec, PARAMS)
    state = relays[action.next_hop]
    event = relay_on_onion(state, action.onion, b"alice", PARAMS, ids)
    assert event["kind"] == "onion-received"
    again = relay_on_onion(state, action.onion, b"alice", PARAMS, ids)
    assert again["kind"] == "dropped" and again["reason"] == "replay"


def test_rid_single_use():
    relays, sender, receiver, spec, ids = _network(1, 2, b"rid1")
    _event, action = sender_send(sender, spec, PARAMS)
    state = relays[b"r0"]
    event = relay_on_onion(state, action.onion, b"alice", PARAMS, ids)
    event2, delivered = relay_forward(state, event["tid"], PARAMS, ids)
    assert delivered.rid is not None
    _ev, first = relay_on_receiver_reply(state, b"one", delivered.rid, PARAMS)
    assert first is not None
    ev, second = relay_on_receiver_reply(state, b"two", delivered.rid, PARAMS)
    assert second is None and ev["reason"] == "unknown-rid"


def test_a_str_reply_is_dropped_as_unrepliable():
    relays, sender, _receiver, spec, ids = _network(1, 2, b"str-reply")
    _event, action = sender_send(sender, spec, PARAMS)
    state = relays[b"r0"]
    event = relay_on_onion(state, action.onion, b"alice", PARAMS, ids)
    _event2, delivered = relay_forward(state, event["tid"], PARAMS, ids)
    dropped, reply = relay_on_receiver_reply(state, "pong", delivered.rid, PARAMS)
    assert dropped["reason"] == "unrepliable" and reply is None


def test_rids_are_uniform_fresh_values():
    relays, sender, receiver, spec, ids = _network(1, 2, b"ridu")
    rids = set()
    for i in range(200):
        rids.add(ids.read(PARAMS.kappa).hex())
    assert len(rids) == 200


def test_unknown_tid_ignored():
    relays, _sender, _receiver, _spec, ids = _network(1, 0, b"tid")
    event, action = relay_forward(relays[b"r0"], "no-such-tid", PARAMS, ids)
    assert event is None and action is None


def test_sender_drops_tampered_reply_silently():
    relays, sender, receiver, spec, ids = _network(1, 1, b"tamper")
    _event, action = sender_send(sender, spec, PARAMS)
    state = relays[b"r0"]
    event = relay_on_onion(state, action.onion, b"alice", PARAMS, ids)
    _event2, delivered = relay_forward(state, event["tid"], PARAMS, ids)
    _ev, send = relay_on_receiver_reply(state, b"answer", delivered.rid, PARAMS)
    tampered = tag_payload(send.onion, b"\xff" * PARAMS.payload_len, PARAMS)
    final = sender_on_onion(sender, tampered, PARAMS)
    assert final["kind"] == "dropped" and final["reason"] == "integrity"
    assert sender.replies == []
    # The expected header is in the replay cache now, so the opening is
    # retired with it, and the intact copy can only drop as a replay.
    assert sender.view.lookup_reply(derive(spec, PARAMS).opening.header) is None
    intact = sender_on_onion(sender, send.onion, PARAMS)
    assert intact["kind"] == "dropped" and intact["reason"] == "replay"
    assert sender.replies == []


def test_sender_requires_own_name_on_reply_path():
    relays, sender, receiver, spec, ids = _network(1, 2, b"own")
    import pytest

    broken = spec._replace(
        reply_path=(spec.reply_path[0],) + ((b"q0", spec.reply_path[0][1]),)
    )
    with pytest.raises(ValueError):
        sender_send(sender, broken, PARAMS)


def test_sender_retires_its_opening_when_the_reply_opens():
    _relays, sender, _receiver, spec, _ids = _network(1, 2, b"retire")
    sender_send(sender, spec, PARAMS)
    d = derive(spec, PARAMS)
    reply = d.onion(len(spec.path) + len(spec.reply_path))
    assert sender.view.lookup_reply(d.opening.header) == d.opening
    assert sender_on_onion(sender, reply, PARAMS)["kind"] == "got-reply"
    assert sender.view.lookup_reply(d.opening.header) is None
    again = sender_on_onion(sender, reply, PARAMS)
    assert again["kind"] == "dropped" and again["reason"] == "replay"
    assert sender.replies == [spec.message]


def test_forged_reply_header_under_a_known_ident_leaves_the_opening():
    _relays, sender, _receiver, spec, _ids = _network(1, 2, b"forged")
    sender_send(sender, spec, PARAMS)
    d = derive(spec, PARAMS)
    reply = d.onion(len(spec.path) + len(spec.reply_path))
    # A one-hop reply header of the adversary's own to the sender carrying
    # the known ident: its MAC verifies, but it is not the expected header.
    # The ident is drawn as derive draws it; the opening keeps no copy.
    ident = SeedRng(spec.seed).fork(b"ident").read(KAPPA)
    chain = kem_chain_create(PROD_GROUP, 12345, [sender.keypair.pk])
    final = (encode_addr(ADDR_REPLY_RETURN, b"alice", PARAMS) + ident
             + bytes((2 * PARAMS.max_hops - 1) * PARAMS.kappa))
    header = build_header(chain, [relay_addr(b"alice", PARAMS)], final, PARAMS)[0]
    assert header != reply[:PARAMS.header_len]
    event = sender_on_onion(sender, header + reply[PARAMS.header_len:], PARAMS)
    assert event["kind"] == "dropped" and event["reason"] == "unsolicited"
    assert sender.view.lookup_reply(d.opening.header) == d.opening
    assert sender_on_onion(sender, reply, PARAMS)["kind"] == "got-reply"


def test_exit_keeps_at_most_reply_buffer_cap_rids():
    relays, sender, _receiver, spec, ids = _network(1, 2, b"cap")
    exit_state = relays[b"r0"]
    rids, specs = [], []
    for i in range(3 * REPLY_BUFFER_CAP):
        seed = hashlib.sha256(b"cap%d" % i).digest()
        specs.append(spec._replace(seed=seed))
        _event, action = sender_send(sender, specs[-1], PARAMS)
        assert len(sender.view._expectations) <= REPLY_OPENING_CAP
        event = relay_on_onion(exit_state, action.onion, b"alice", PARAMS, ids)
        _event2, delivered = relay_forward(exit_state, event["tid"], PARAMS, ids)
        rids.append(delivered.rid)
        assert len(exit_state.reply_buffer) <= REPLY_BUFFER_CAP
        if len(rids) == REPLY_BUFFER_CAP + 1:
            assert len(exit_state.reply_buffer) == REPLY_BUFFER_CAP
            # The oldest rid was evicted to make room for the newest.
            late, nothing = relay_on_receiver_reply(exit_state, b"late", rids[0], PARAMS)
            assert nothing is None and late["reason"] == "unknown-rid"
            _sent, reply = relay_on_receiver_reply(exit_state, b"pong", rids[-1], PARAMS)
            hop = relays[reply.next_hop]
            event = relay_on_onion(hop, reply.onion, b"r0", PARAMS, ids)
            _forwarded, back = relay_forward(hop, event["tid"], PARAMS, ids)
            assert back.next_hop == b"alice"
            assert sender_on_onion(sender, back.onion, PARAMS)["kind"] == "got-reply"
            assert sender.replies == [b"pong"]
    assert len(exit_state.reply_buffer) == REPLY_BUFFER_CAP
    # The sender evicted its oldest openings the same way: the newest reply
    # opens, the oldest drops as unsolicited.
    assert len(sender.view._expectations) == REPLY_OPENING_CAP
    oldest, newest = (derive(s, PARAMS).onion(3) for s in (specs[0], specs[-1]))
    assert sender_on_onion(sender, newest, PARAMS)["kind"] == "got-reply"
    assert sender_on_onion(sender, oldest, PARAMS)["reason"] == "unsolicited"
