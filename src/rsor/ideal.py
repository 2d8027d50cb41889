"""Executable ideal functionality for repliable service onion routing.

Onions here are abstract records, not bytes: the functionality tracks who
sent what to whom along which paths, hands the adversary exactly the leaks
the model grants it (per-segment tids, corrupted-sender disclosures, exit
leaks), and notifies parties of deliveries.  Honest-segment traversal is
adversary-scheduled via temporary ids that are re-randomized at every
honest relay, which is precisely what makes hops unlinkable in this model.

The adversary role is called S and the environment role Z; both drive the
same instance through the message methods below.  All events are
node.make_event records of the bytes handed in, as in the real world,
appended to adv_events (visible to S) and env_events (visible to Z).
"""

import collections

from .kem import MAX_HOPS
from .node import make_event


class AbstractOnion(collections.namedtuple(
        "AbstractOnion", "sid sender receiver message path reply_path direction")):
    """One onion as the ideal world sees it; its position travels beside it.

    For replies, sender is the exit relay that created the reply onion,
    receiver is the original sender awaiting it, path is the reply path,
    and reply_path is empty.  path holds relay names, positions 1..n
    (position 0 is the sender); direction is "f" forward or "b" backward
    (reply).
    """

    __slots__ = ()

    def hop(self, i):
        """Party at position i: the origin for 0, else path[i-1]."""
        return self.sender if i == 0 else self.path[i - 1]


class RsorIdeal:
    """The ideal functionality's state machine (static corruption)."""

    def __init__(self, bad, rng):
        self.bad = set(bad)
        self._rng = rng
        self.l_o = {}        # tid -> (AbstractOnion, next honest position)
        self.buffers = {}    # (relay, tid') -> (AbstractOnion, its position)
        self.reply_buffers = {}  # (relay, tid') -> (message, back tid)
        self.l_tag = set()   # tagged onions, keyed by (sid, direction)
        self.back = {}       # tid -> (forward AbstractOnion, replying party)
        self.id_fwd = {}     # reply sid -> forward sid
        self.rep = {}        # (exit relay, rid) -> tid
        self.adv_events = []
        self.env_events = []

    # -- event plumbing ----------------------------------------------------

    def _fresh(self, prefix):
        return prefix + "-" + self._rng.read(8).hex()

    def _to_adv(self, kind, **fields):
        self.adv_events.append(make_event(None, kind, **fields))

    def _to_env(self, actor, kind, **fields):
        self.env_events.append(make_event(actor, kind, **fields))

    def _tagged(self, onion):
        return (onion.sid, onion.direction) in self.l_tag

    # -- messages from the environment / adversary -------------------------

    def process_new_onion(self, sender, receiver, message, path, reply_path):
        """A sender hands in a fresh onion description; refused (False, no
        event) for an empty path, one longer than MAX_HOPS or a path that
        visits a party twice, as validate_shape refuses them."""
        if not 1 <= len(path) <= MAX_HOPS or len(reply_path) > MAX_HOPS:
            return False
        if len(set(path)) != len(path) or len(set(reply_path)) != len(reply_path):
            return False
        onion = AbstractOnion(
            sid=self._fresh("sid"),
            sender=sender,
            receiver=receiver,
            message=message,
            path=tuple(path),
            reply_path=tuple(reply_path),
            direction="f",
        )
        self._out_cor_sender(onion, "start")
        self._proc_next_step(onion, 0)
        return True

    def process_new_reply(self, message, tid):
        """Turn a stored Back entry into a travelling reply onion."""
        entry = self.back.pop(tid, None)  # Back entries are single-use
        if entry is None:
            return False
        fwd, origin = entry
        sid = self._fresh("sid")
        self.id_fwd[sid] = fwd.sid
        onion = AbstractOnion(
            sid=sid,
            sender=origin,
            receiver=fwd.sender,
            message=message,
            path=fwd.reply_path,
            reply_path=(),
            direction="b",
        )
        self._out_cor_sender(onion, "start")
        self._proc_next_step(onion, 0)
        return True

    def deliver_onion(self, tid):
        """S releases a travelling onion to its next honest position."""
        entry = self.l_o.pop(tid, None)
        if entry is None:
            return
        onion, j = entry
        if onion.direction == "b" and j == len(onion.path):
            # Arrived back at the reply receiver: deliver quietly, and only
            # if the payload was never tagged in transit.
            if onion.message is not None and not self._tagged(onion):
                self._to_env(onion.receiver, "got-reply", message=onion.message)
            return
        tid_new = self._fresh("tid")
        self._to_env(onion.hop(j), "onion-received", tid=tid_new, via=onion.hop(j - 1))
        self.buffers[(onion.hop(j), tid_new)] = entry

    def forward_onion(self, party, tid):
        """Z or S (via a relay) flushes one buffered temporary id."""
        entry = self.buffers.pop((party, tid), None)
        if entry is not None:
            self._proc_next_step(*entry)
            return
        reply = self.reply_buffers.pop((party, tid), None)
        if reply is not None:
            message, back_tid = reply
            self.process_new_reply(message, back_tid)

    def tag(self, tid):
        """S marks a travelling onion's payload as destroyed."""
        entry = self.l_o.get(tid)
        if entry is not None:
            onion, _j = entry
            self.l_tag.add((onion.sid, onion.direction))

    def deliver_message(self, relay, message, rid, receiver):
        """S forwards an exit delivery over the plaintext edge link."""
        fields = {"message": message, "from": relay}
        if rid is not None:
            fields["rid"] = rid
        self._to_env(receiver, "message-received",
                     repliable=rid is not None, **fields)

    def initiate_reply(self, receiver, relay, message, rid):
        """A receiver answers (m, rid) toward the exit relay it saw."""
        self._to_adv("initiate-reply", receiver=receiver, relay=relay,
                     message=message, rid=rid)

    def deliver_reply(self, receiver, relay, message, rid):
        """S forwards the receiver's (m, rid) pair to the exit relay."""
        self._to_env(relay, "reply-received", rid=rid, sender_of=receiver)
        tid = self.rep.pop((relay, rid), None)  # rids are single-use
        if tid is None:
            return
        tid_new = self._fresh("tid")
        self.reply_buffers[(relay, tid_new)] = (message, tid)
        self._to_env(relay, "reply-onion-ready", tid=tid_new)

    def bypass_reply(self, relay, message, tid):
        """S answers a Back-registered tid directly from a corrupted relay."""
        if tid in self.back:
            self.process_new_reply(message, tid)

    # -- internal procedures ----------------------------------------------

    def _out_cor_sender(self, onion, tid):
        """Full disclosure to S when the responsible endpoint is corrupted.

        Forward onions disclose on a corrupted sender; reply onions on a
        corrupted reply receiver (the original sender, who built the reply
        header and therefore knows everything about it in the real world).
        path is the path this onion travels and reply_path its own, empty
        for a reply; a reply names the forward onion it answers, whose
        records hold the forward path.
        """
        if onion.direction == "f":
            endpoint, fields = onion.sender, {"n": len(onion.path)}
        else:
            endpoint, fields = onion.receiver, {"replying_to": self.id_fwd.get(onion.sid)}
        if endpoint in self.bad:
            self._to_adv("sender-leak", tid=tid, sid=onion.sid,
                         sender=onion.sender, receiver=onion.receiver,
                         message=onion.message, direction=onion.direction,
                         path=onion.path, reply_path=onion.reply_path, **fields)

    def _proc_to_relay(self, onion, i, j):
        tid = self._fresh("tid")
        self._to_adv(
            "segment", tid=tid, frm=onion.hop(i), to=onion.hop(j),
            via=onion.path[i : j - 1],
        )
        self._to_env(onion.hop(i), "forwarded", to=onion.hop(i + 1))
        self._out_cor_sender(onion, tid)
        if onion.direction == "b" and i == 0:
            self._to_adv("tid-sid", tid=tid, sid=onion.sid)
        self.l_o[tid] = (onion, j)

    def _setup_reply(self, onion, i, rid):
        tid = self._fresh("tid")
        self.back[tid] = (onion, onion.hop(i))
        if i == len(onion.path):
            self.rep[(onion.hop(i), rid)] = tid
            self._to_adv("reply-setup", rid=rid)
        else:
            prefix = []
            for name in onion.reply_path:
                prefix.append(name)
                if name not in self.bad:
                    break
            self._to_adv("reply-setup", tid=tid, reply_prefix=prefix)

    def _leak_message(self, onion, i):
        if onion.message is None:
            return
        self._out_cor_sender(onion, "end")
        if onion.reply_path:
            rid = self._fresh("rid")
            self._setup_reply(onion, i, rid)
        if i == len(onion.path):
            self._to_env(onion.hop(i), "message-delivered", receiver=onion.receiver)
        else:
            self._to_env(onion.hop(i), "forwarded", to=onion.hop(i + 1))
        self._to_adv(
            "message-leak", frm=onion.hop(i), message=onion.message,
            receiver=onion.receiver, via=onion.path[i:],
        )

    def _leak_reply(self, onion, i):
        tid = self._fresh("tid")
        self._to_adv(
            "reply-leak", tid=tid, frm=onion.hop(i), message=onion.message,
            receiver=onion.receiver, via=onion.path[i : len(onion.path) - 1],
        )
        self._to_env(onion.hop(i), "forwarded", to=onion.hop(i + 1))
        self._out_cor_sender(onion, tid)

    def _proc_next_step(self, onion, i):
        n = len(onion.path)
        j = next((k for k in range(i + 1, n + 1) if onion.hop(k) not in self.bad), None)
        if j is not None:
            self._proc_to_relay(onion, i, j)
            return
        if self._tagged(onion):
            self._out_cor_sender(onion, "tagged")
            if i < n:
                self._to_adv("tagged-to-corrupt", frm=onion.hop(i),
                             via=onion.path[i:])
                self._to_env(onion.hop(i), "forwarded", to=onion.hop(i + 1))
            else:
                self._to_env(onion.hop(i), "dropped", reason="integrity")
        elif onion.direction == "f":
            self._leak_message(onion, i)
        else:
            self._leak_reply(onion, i)
