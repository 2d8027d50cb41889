"""Protocol runtime: relay, sender, and receiver state machines.

Relays buffer processed onions until the environment tells them to forward
(mix-style scheduling).  Exit relays peel each onion once and remember the
reply block of a repliable one under a fresh rid, so a receiver can answer
later without the onion being processed again; a receiver's answer goes
straight to relay_on_receiver_reply with that rid.  Each relay keeps at most
REPLY_BUFFER_CAP rids and evicts the oldest to make room, so a receiver that
answers too late finds its rid unknown.  Senders derive each onion once and
keep only its ReplyOpening (reply header and keys) in their view,
filed under the reply header; proc_onion recognizes that header before any
group operation and retires the opening when it arrives, tampered or not.
A view holds at most packet.REPLY_OPENING_CAP openings, oldest evicted
first; senders drop anything unsolicited or tampered without reacting.
Onions travel as their wire bytes, and only proc_onion parses them.
Receivers never see an onion at all -- they only see an exit's plaintext
messages and rids.  A party's state is built from its name (and keypair)
alone: its view, buffers and inbox start empty and cannot be passed in.
"""

import collections

from .kem import KemKeyPair
from .packet import (
    InMemoryView,
    OnionSpec,
    build_reply_onion,
    derive,
    proc_onion,
)


REPLY_BUFFER_CAP = 64  # rids one relay keeps for receivers yet to answer


class SendOnion(collections.namedtuple("SendOnion", "next_hop onion")):
    __slots__ = ()


class SendMessage(collections.namedtuple("SendMessage", "receiver message rid",
                                         defaults=(None,))):
    """rid is None for non-repliable deliveries."""

    __slots__ = ()


def make_event(actor, kind: str, **fields):
    """One trace record of either world, actor None when no party logs it
    (links, the adversary's view); the simulator adds the time field when
    logging.  Values stay as the parties hold them, names as bytes; render
    turns a record into trace text where a trace leaves the library."""
    record = {"kind": kind} if actor is None else {"actor": actor, "kind": kind}
    record.update(fields)
    return record


def render(event):
    """Turn a record's values into trace text in place; returns it.  Only
    the values trace_text changes take the call, a third of a trace's."""
    for key, value in event.items():
        if type(value) in _TEXT_CHANGES:
            event[key] = trace_text(value)
    return event


_TEXT_CHANGES = frozenset((bytes, list, tuple))


def trace_text(value):
    """How a value becomes trace text: bytes as UTF-8, invalid bytes
    replaced; lists and tuples element by element; other values as they
    are."""
    if isinstance(value, bytes):
        return str(value, "utf-8", "replace")
    if isinstance(value, (list, tuple)):
        return [trace_text(item) for item in value]
    return value


class RelayState:
    """view: replay cache; outgoing_buffer: tid -> ProcResult; reply_buffer:
    rid -> the reply block its exit peel admitted, as bytes, oldest first."""

    __slots__ = ("name", "keypair", "view", "outgoing_buffer", "reply_buffer")

    def __init__(self, name: bytes, keypair: KemKeyPair):
        self.name, self.keypair = name, keypair
        self.view, self.outgoing_buffer, self.reply_buffer = InMemoryView(), {}, {}


class SenderState:
    """view: replay cache and ReplyOpenings; replies: the reply messages
    received."""

    __slots__ = ("name", "keypair", "view", "replies")

    def __init__(self, name: bytes, keypair: KemKeyPair):
        self.name, self.keypair = name, keypair
        self.view, self.replies = InMemoryView(), []


class ReceiverState:
    """inbox: (message, rid or None, from-relay) per delivery."""

    __slots__ = ("name", "inbox")

    def __init__(self, name: bytes):
        self.name, self.inbox = name, []


# ---------------------------------------------------------------------------
# Relay operations

def relay_on_onion(state: RelayState, onion: bytes, sender_of: bytes, params, rng):
    """Process an arriving onion; buffer the outcome of its one peel under a
    fresh tid.  An integrity failure had a valid header, so the onion is
    accepted; the destroyed payload only surfaces when the relay gets around
    to forwarding it."""
    result = proc_onion(state.keypair.sk, onion, state.name, params, state.view)
    if result.kind == "fail" and result.reason != "integrity":
        return make_event(state.name, "dropped", reason=result.reason)
    tid = rng.read(params.kappa).hex()
    state.outgoing_buffer[tid] = result
    return make_event(state.name, "onion-received", tid=tid, via=sender_of)


def relay_forward(state: RelayState, tid: str, params, rng):
    """Environment-triggered flush of one buffered tid.

    Returns (event, action); unknown tids abort with (None, None).  Exit
    deliveries mint a rid only when the onion carried a reply block; a full
    reply buffer first evicts its oldest rid.
    """
    result = state.outgoing_buffer.pop(tid, None)
    if result is None:
        return None, None
    if result.kind == "fail":
        return make_event(state.name, "dropped", reason=result.reason), None
    if result.kind == "forward":
        event = make_event(state.name, "forwarded", tid=tid, to=result.next_hop)
        return event, SendOnion(next_hop=result.next_hop, onion=result.next_onion)
    # An exit: the reply block this peel parsed is all answering needs.
    rid = None
    if result.reply_block is not None:
        rid = rng.read(params.kappa).hex()
        if len(state.reply_buffer) >= REPLY_BUFFER_CAP:
            del state.reply_buffer[next(iter(state.reply_buffer))]
        state.reply_buffer[rid] = result.reply_block
    event = make_event(state.name, "message-delivered", tid=tid, repliable=rid is not None)
    return event, SendMessage(receiver=result.receiver, message=result.message, rid=rid)


def relay_on_receiver_reply(state: RelayState, m_reply: bytes, rid: str, params):
    """A receiver answered (m_reply, rid); build and send the reply onion.

    Each rid works exactly once; unknown, reused or evicted rids do nothing,
    and a reply too long for the payload frame is dropped as unrepliable.
    """
    block = state.reply_buffer.pop(rid, None)
    if block is None:
        return make_event(state.name, "dropped", reason="unknown-rid"), None
    try:
        onion, first_hop = build_reply_onion(block, m_reply, params)
    except ValueError:
        return make_event(state.name, "dropped", reason="unrepliable"), None
    event = make_event(state.name, "reply-sent", to=first_hop)
    return event, SendOnion(next_hop=first_hop, onion=onion)


# ---------------------------------------------------------------------------
# Sender operations

def sender_send(state: SenderState, spec: OnionSpec, params):
    """Derive the onion once, keep its reply opening, send the first layer."""
    if spec.reply_path and spec.reply_path[-1][0] != state.name:
        raise ValueError("reply path must end at this sender")
    d = derive(spec, params)
    if d.opening is not None:
        state.view.expect_reply(d.opening)
    first_hop = spec.path[0][0]
    event = make_event(state.name, "forwarded", to=first_hop)
    return event, SendOnion(next_hop=first_hop, onion=d.fwd_onions[0])


def sender_on_onion(state: SenderState, onion: bytes, params):
    """Handle a packet arriving back at the sender.

    An expected reply is recognized by its header alone, with no
    membership test, decapsulation, MAC or peel (see proc_onion); intact,
    it surfaces as got-reply.  Everything else is processed as any onion
    and dropped, with no behavioral difference beyond the (test-only) drop
    record.
    """
    result = proc_onion(state.keypair.sk, onion, state.name, params, state.view)
    if result.kind == "reply":
        state.replies.append(result.message)
        return make_event(state.name, "got-reply", message=result.message)
    return make_event(state.name, "dropped", reason=result.reason)


# ---------------------------------------------------------------------------
# Receiver operations

def receiver_on_message(state: ReceiverState, message, rid, from_relay: bytes):
    """Deliver an exit's plaintext message."""
    state.inbox.append((message, rid, from_relay))
    return make_event(state.name, "message-received",
                      message=message, repliable=rid is not None)
