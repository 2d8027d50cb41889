"""Protocol runtime: relay, sender, and receiver state machines.

Relays buffer processed onions until the environment tells them to forward
(mix-style scheduling).  Exit relays peel each onion once and remember the
reply block of a repliable one under a fresh rid, so a receiver can answer
later without the onion being processed again.  Senders derive each onion
once and keep only its ReplyOpening (the reply header and keys) under the
reply identifier; they drop anything unsolicited or tampered without
reacting.  Receivers never parse onions at all -- they only see plaintext
messages and rids.
"""

from dataclasses import dataclass, field

from .kem import KemKeyPair
from .packet import (
    InMemoryView,
    Onion,
    OnionSpec,
    build_reply_onion,
    decode_addr,
    derive,
    proc_onion,
)


@dataclass(frozen=True)
class SendOnion:
    next_hop: bytes
    onion: Onion


@dataclass(frozen=True)
class SendMessage:
    receiver: bytes
    message: bytes
    rid: bytes = None  # None for non-repliable deliveries


@dataclass(frozen=True)
class SendReply:
    relay: bytes
    message: bytes
    rid: bytes


def make_event(actor: bytes, kind: str, **fields):
    """One trace record; the simulator adds the time field when logging."""
    record = {"actor": actor.decode("ascii", "replace"), "kind": kind}
    record.update(fields)
    return record


@dataclass
class RelayState:
    name: bytes
    keypair: KemKeyPair
    view: InMemoryView = field(default_factory=InMemoryView)
    outgoing_buffer: dict = field(default_factory=dict)  # tid -> pending entry
    reply_buffer: dict = field(default_factory=dict)     # rid -> ReplyInfo


@dataclass
class SenderState:
    name: bytes
    keypair: KemKeyPair
    view: InMemoryView = field(default_factory=InMemoryView)  # ident -> ReplyOpening
    replies: list = field(default_factory=list)  # received reply messages


@dataclass
class ReceiverState:
    name: bytes
    inbox: list = field(default_factory=list)  # (message, rid or None, from-relay)


# ---------------------------------------------------------------------------
# Relay operations

def relay_on_onion(state: RelayState, onion: Onion, sender_of: bytes, params, rng):
    """Process an arriving onion; buffer the outcome under a fresh tid."""
    result = proc_onion(state.keypair.sk, onion, state.name, params, state.view)
    if result.kind == "fail" and result.reason != "integrity":
        return make_event(state.name, "dropped", reason=result.reason)
    tid = rng.read(params.kappa).hex()
    if result.kind == "fail":
        # The header was valid, so the onion is accepted; the destroyed
        # payload only surfaces when the relay gets around to processing it.
        state.outgoing_buffer[tid] = ("drop", result.reason)
    elif result.kind == "forward":
        state.outgoing_buffer[tid] = ("forward", result.next_hop, result.next_onion)
    else:
        assert result.kind == "exit"
        # Keep only what answering needs: the reply block this peel already
        # parsed (None when the onion is not repliable).
        state.outgoing_buffer[tid] = ("exit", result.receiver, result.message,
                                      result.reply_info)
    return make_event(state.name, "onion-received", tid=tid, via=sender_of.decode("ascii", "replace"))


def relay_forward(state: RelayState, tid: str, params, rng):
    """Environment-triggered flush of one buffered tid.

    Returns (event, action); unknown tids abort with (None, None).  Exit
    deliveries mint a rid only when the onion carried a reply block.
    """
    entry = state.outgoing_buffer.pop(tid, None)
    if entry is None:
        return None, None
    if entry[0] == "drop":
        return make_event(state.name, "dropped", reason=entry[1]), None
    if entry[0] == "forward":
        _kind, next_hop, onion = entry
        event = make_event(state.name, "forwarded", tid=tid,
                           to=next_hop.decode("ascii", "replace"))
        return event, SendOnion(next_hop=next_hop, onion=onion)
    _kind, receiver, message, reply_info = entry
    rid = None
    if reply_info is not None:
        rid = rng.read(params.kappa).hex()
        state.reply_buffer[rid] = reply_info
    event = make_event(state.name, "message-delivered", tid=tid, repliable=rid is not None)
    return event, SendMessage(receiver=receiver, message=message, rid=rid)


def relay_on_receiver_reply(state: RelayState, m_reply: bytes, rid: str, params):
    """A receiver answered (m_reply, rid); build and send the reply onion.

    Each rid works exactly once; unknown or reused rids do nothing, and a
    reply too long for the payload frame is dropped as unrepliable.
    """
    info = state.reply_buffer.pop(rid, None)
    if info is None:
        return make_event(state.name, "dropped", reason="unknown-rid"), None
    try:
        onion = build_reply_onion(info, m_reply, params)
    except ValueError:
        return make_event(state.name, "dropped", reason="unrepliable"), None
    _tag, first_hop = decode_addr(info.first_hop)
    event = make_event(state.name, "reply-sent", to=first_hop.decode("ascii", "replace"))
    return event, SendOnion(next_hop=first_hop, onion=onion)


# ---------------------------------------------------------------------------
# Sender operations

def sender_send(state: SenderState, spec: OnionSpec, params):
    """Derive the onion once, keep its reply opening, send the first layer."""
    if spec.reply_path and spec.reply_path[-1][0] != state.name:
        raise ValueError("reply path must end at this sender")
    d = derive(spec, params)
    if d.opening is not None:
        state.view.expect_reply(d.ident, d.opening)
    first_hop = spec.path[0][0]
    event = make_event(state.name, "forwarded",
                       to=first_hop.decode("ascii", "replace"))
    return event, SendOnion(next_hop=first_hop, onion=d.onion(1))


def sender_on_onion(state: SenderState, onion: Onion, params):
    """Handle a packet arriving back at the sender.

    Recognized, intact replies surface as got-reply; everything else is
    dropped with no behavioral difference beyond the (test-only) drop record.
    """
    result = proc_onion(state.keypair.sk, onion, state.name, params, state.view)
    if result.kind == "reply":
        state.view.forget_reply(result.ident)
        state.replies.append(result.message)
        return make_event(state.name, "got-reply", message=result.message.decode("utf-8", "replace"))
    return make_event(state.name, "dropped", reason=result.reason)


# ---------------------------------------------------------------------------
# Receiver operations

def receiver_on_message(state: ReceiverState, message, rid, from_relay: bytes):
    """Deliver a plaintext message; onions sent to receivers are dropped."""
    if isinstance(message, Onion):
        return make_event(state.name, "dropped", reason="onion-at-receiver")
    state.inbox.append((message, rid, from_relay))
    return make_event(state.name, "message-received",
                      message=message.decode("utf-8", "replace"), repliable=rid is not None)


def receiver_reply(state: ReceiverState, m_reply: bytes, rid: str, to_relay: bytes):
    """Answer a repliable delivery over the plain link to the exit relay."""
    assert rid is not None
    return SendReply(relay=to_relay, message=m_reply, rid=rid)
