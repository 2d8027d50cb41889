"""Executable challengers for the four onion-security properties.

Each indistinguishability game runs a pluggable adversary through the same
move protocol: receive honest-party names and keys, query processing
oracles, submit a challenge description, receive the challenge onion,
query oracles again (with the challenger special-casing recognized
challenge layers), and guess the hidden bit.  These are positive/negative
controls at desk scale, not proofs.
"""

import collections
import math

from .crypto import SeedRng
from .kem import kem_keygen
from .packet import (
    InMemoryView,
    OnionSpec,
    build_reply_onion,
    derive,
    form_onion,
    proc_onion,
    receiver_addr,
    recognize_onion,
    tag_payload,
    validate_spec,
    zero_run,
)
from .sim import Scenario, WorkItem, _Network, _seed_bytes, default_params, parse_count


# ---------------------------------------------------------------------------
# Oracle plumbing shared by all games

def _translate(result):
    if result.kind == "forward":
        return ("forward", result.next_hop, result.next_onion)
    if result.kind == "exit":
        return ("exit", result.message, result.receiver)
    if result.kind == "reply":
        return ("reply", result.message)
    return None


def _reply_from(block, params):
    """The Reply answer an exit holding a reply block gives: a function
    from the adversary's message to (reply onion, first-hop name), or None
    when the onion was not repliable."""
    if block is None:
        return None
    return lambda message: build_reply_onion(block, message, params)


def _out_len(out):
    # Every part of an answer is bytes or a str.
    return 0 if out is None else sum(map(len, out))


class GameOracles:
    """Proc/Reply request channels for the honest parties of one game.

    The adversary sends each onion as its wire bytes.  Either call answers
    None in both worlds, before either world looks at the input, unless the
    party is one of the game's honest parties, the onion exact bytes of
    onion_len, and a Reply's message bytes that fit the frame.  The oracles
    parse nothing: proc_onion does, once.

    challenger(party, onion), installed by the game's world, is handed the
    exact bytes, so a challenge layer cut or extended past onion_len never
    reaches it.  It returns None to leave them to honest processing with
    the party's key, or (out, reply) for a recognized challenge layer: out
    is the Proc answer, and reply is what a Reply to those exact bytes
    gives (see _reply_from).  The handler is consulted before the replay
    test.  Each party peels an onion once, in proc_onion, which makes its
    own replay test against state[party]; a handler's answer makes the same
    test once, on the header bytes sent, and the answer to a replayed
    header is discarded for None.  replies[party] maps the bytes of each
    repliable onion the party processed to its reply until its one Reply.
    Answers are tuples of bytes and str, built by honest code; each one's
    byte length is logged so tests can check that the transcript shape is
    independent of the hidden bit.
    """

    def __init__(self, params, keypairs):
        self.params = params
        self.keys = dict(keypairs)
        self.state = {name: InMemoryView() for name in self.keys}
        self.replies = {name: {} for name in self.keys}
        self.challenger = lambda party, onion: None
        self.transcript = []

    def _log(self, move, out):
        self.transcript.append((move, _out_len(out)))
        return out

    def _admits(self, party, data):
        return (type(party) is bytes and party in self.keys and type(data) is bytes
                and len(data) == self.params.onion_len)

    def proc(self, party, data):
        if not self._admits(party, data):
            return self._log("proc", None)
        state = self.state[party]
        answer = self.challenger(party, data)
        if answer is None:
            result = proc_onion(self.keys[party].sk, data, party, self.params, state)
            out, reply = _translate(result), _reply_from(result.reply_block, self.params)
        elif state.check_and_add(data[:self.params.header_len]):
            out, reply = answer
        else:
            return self._log("proc", None)
        if reply is not None:
            self.replies[party][data] = reply
        return self._log("proc", out)

    def reply(self, party, data, message):
        # Only bytes that proc_onion processed were ever filed.
        if (not self._admits(party, data) or type(message) is not bytes
                or len(message) > self.params.max_msg_len):
            return self._log("reply", None)
        reply = self.replies[party].pop(data, None)  # one reply per onion
        return self._log("reply", None if reply is None else ("reply-onion", *reply(message)))


# ---------------------------------------------------------------------------
# Submission validation

class Submission(collections.namedtuple(
        "Submission", "message receiver path reply_path j j_back", defaults=(None, None))):
    """Challenge description: message, receiver name, honest positions, and
    both paths as ((name, pk-or-None), ...) with None at challenger slots."""

    __slots__ = ()


def _checked_paths(sub, oracles, honest_slots):
    """Check a submission against the game's own rules and fill in the
    challenger public keys; _play's validate_spec checks the rest.

    honest_slots maps (which_path, index) -> party name.  Returns the two
    completed paths, or raises ValueError.
    """
    paths = [list(sub.path), list(sub.reply_path)]
    key_of = {}
    for which in (0, 1):
        for idx, (name, pk) in enumerate(paths[which]):
            # Exact types, so a name or key cannot compare equal its own way.
            if type(name) is not bytes or not (pk is None or type(pk) is int):
                raise ValueError("a name must be bytes and a key an int or None")
            if honest_slots.get((which, idx), name) != name:
                raise ValueError("honest relay expected at this position")
            if name in oracles.keys:
                # Honest parties, in their slots or elsewhere, take their own keys.
                pk = oracles.keys[name].pk
            if name in key_of and key_of[name] != pk:
                raise ValueError("same router name must use the same key")
            key_of[name] = pk
            paths[which][idx] = (name, pk)
    if not sub.receiver:
        raise ValueError("empty receiver name")
    return tuple(paths[0]), tuple(paths[1])


def _random_receiver(rng, params):
    return receiver_addr(rng.read(7).hex().encode(), params)


# ---------------------------------------------------------------------------
# Correctness as a named game

def game_correctness(trials, seed, params=None, corrupt_hop=None):
    """Check all four correctness clauses over random specs.

    corrupt_hop deliberately mismatches that forward hop's public key as a
    negative control; the clause at that hop must then fail with "mac".  A
    corrupt_hop that is not exactly an int in 1..max_hops (True is not)
    raises ValueError before the first trial.
    """
    trials = parse_count(trials)
    params = params or default_params()
    if corrupt_hop is not None and (type(corrupt_hop) is not int
                                    or not 1 <= corrupt_hop <= params.max_hops):
        raise ValueError("corrupt_hop must be an int in 1..%d" % params.max_hops)
    rng = SeedRng(b"correctness" + _seed_bytes(seed))
    failures = []
    for trial in range(trials):
        trng = rng.fork(b"t%d" % trial)
        n = 1 + trng.read(1)[0] % params.max_hops
        nr = trng.read(1)[0] % (params.max_hops + 1)
        failures.extend(_correctness_once(trng, n, nr, params, corrupt_hop))
    return {"pass": not failures, "trials": trials, "failures": failures}


def _correctness_once(rng, n, nr, params, corrupt_hop):
    """One round trip through the real-world network: n forward relays, then
    nr reply hops, the last of which is the sender.  Returns the failed
    clause, if any, as (clause, n, nr, hop, reason), with hops numbered as
    sim.Rule numbers them."""
    path = tuple(b"r%d" % i for i in range(n))
    reply_path = tuple(b"q%d" % i for i in range(nr - 1)) + ((b"sender",) if nr else ())
    message = rng.fork(b"m").read(1 + rng.read(1)[0] % params.max_msg_len)
    reply_message = rng.fork(b"mb").read(1 + rng.read(1)[0] % params.max_msg_len) if nr else None
    item = WorkItem(b"sender", path, b"svc", message, reply_path, reply_message)
    net = _Network(Scenario(name="correctness", relays=path + reply_path[:-1],
                            senders=(b"sender",), receivers=(b"svc",), workload=(item,)),
                   params, rng)
    if corrupt_hop is not None and corrupt_hop <= n:
        # The sender forms the onion with a wrong key; the relay keeps its own.
        net.keys[path[corrupt_hop - 1]] = kem_keygen(params.group, rng.fork(b"wrong"))
    net.send(0, item, rng.fork(b"R").read(32))

    hops = path + reply_path
    for event in net.events:
        if event["kind"] == "dropped":
            hop = hops.index(event["actor"]) + 1
            clause = ("forward-path" if hop < n else "request-reception" if hop == n
                      else "backward-path" if hop < n + nr else "reply-reception")
            return [(clause, n, nr, hop, event["reason"])]
    inbox = [(m, rid is not None, exit_) for m, rid, exit_ in net.receivers[b"svc"].inbox]
    if inbox != [(message, nr > 0, path[-1])]:
        return [("request-reception", n, nr, n, "inbox")]
    if net.senders[b"sender"].replies != ([reply_message] if nr else []):
        return [("reply-reception", n, nr, n + nr, "replies")]
    return []


# ---------------------------------------------------------------------------
# The challenger skeleton the three onion games share

P_H = b"honest-relay"
P_H_BACK = b"honest-return"
P_S = b"honest-sender"


def _play(label, honest, positions, world, adversary, seed, params, force_b,
          bar_keeps_message=False):
    """One run of an onion indistinguishability game.

    honest lists (party, key label) pairs.  positions(sub, oracles)
    checks the submission's positions and returns its completed forward and
    reply paths, then bar's.  bar is the b = 1 stand-in onion: it carries a
    fresh message to a random receiver unless bar_keeps_message.
    world(oracles, rng, sub, bit, real, bar) derives what the drawn world
    uses and returns (challenge onion, handler).  The handler is installed
    as oracles.challenger: it answers the drawn world's recognized
    challenge layers with (Proc answer, reply) and leaves every other onion
    to honest processing by returning None.
    """
    params = params or default_params()
    rng = SeedRng(label + _seed_bytes(seed))
    keys = {party: kem_keygen(params.group, rng.fork(fork)) for party, fork in honest}
    oracles = GameOracles(params, keys)
    adversary.begin(params, tuple(keys), {n: k.pk for n, k in keys.items()}, oracles)
    sub = adversary.submit()
    path, reply_path, bar_path, bar_reply_path = positions(sub, oracles)
    real = OnionSpec(
        seed=rng.fork(b"R").read(32),
        message=sub.message,
        receiver=receiver_addr(sub.receiver, params),
        path=path,
        reply_path=reply_path,
    )
    # Refuse an invalid challenge before the bit exists, so the refusal
    # cannot depend on it; bar's paths are slices of real's.
    validate_spec(real, params)

    bit = force_b if force_b is not None else rng.fork(b"bit").read(1)[0] & 1
    if bar_keeps_message:
        bar_message, bar_receiver = real.message, real.receiver
    else:
        bar_message = rng.fork(b"mbar").read(params.max_msg_len)
        bar_receiver = _random_receiver(rng.fork(b"rbar"), params)
    bar = OnionSpec(
        seed=rng.fork(b"Rbar").read(32),
        message=bar_message,
        receiver=bar_receiver,
        path=bar_path,
        reply_path=bar_reply_path,
    )
    challenge, oracles.challenger = world(oracles, rng, sub, bit, real, bar)
    adversary.on_challenge(challenge)
    guess = adversary.guess()
    return {"b": bit, "guess": guess, "guess_correct": guess == bit,
            "transcript": tuple(oracles.transcript)}


# ---------------------------------------------------------------------------
# TLU-forward: tagging-forward layer unlinkability

def game_tlu_forward(adversary, seed, params=None, force_b=None):
    """One run of the tagging-forward layer-unlinkability game."""
    return _play(b"tlu", ((P_H, b"kH"), (P_S, b"kS")), _tlu_positions, _tlu_world,
                 adversary, seed, params, force_b)


def _tlu_positions(sub, oracles):
    n, j = len(sub.path), sub.j
    if type(j) is not int or not 1 <= j <= n:
        raise ValueError("position j out of range")
    if not sub.reply_path:
        raise ValueError("the game needs a reply path")
    honest_slots = {(0, j - 1): P_H, (1, len(sub.reply_path) - 1): P_S}
    path, reply_path = _checked_paths(sub, oracles, honest_slots)
    return path, reply_path, path[:j], ()


def _tlu_world(oracles, rng, sub, bit, real, bar):
    params, path, j, n = oracles.params, real.path, sub.j, len(real.path)
    d_real = derive(real, params)
    d_bar = derive(bar, params) if bit else None  # only the b = 1 world uses bar
    oracles.state[P_S].expect_reply(d_real.opening)
    tag_rng = rng.fork(b"tagpad")

    def challenger(party, onion):
        if bit == 0 or party != P_H or not recognize_onion(j, onion, d_bar):
            return None
        # The header matched and the width is onion_len, so the payload decides.
        intact = onion == d_bar.onion(j)
        if j < n:
            continuation = (d_real.onion(j + 1) if intact
                            else d_real.header(j + 1) + tag_rng.read(params.payload_len))
            return ("forward", path[j][0], continuation), None
        if not intact:
            return None  # a tagged exit layer fails integrity, as at b = 0
        # FormReply on the literal bar onion is always None (its backward
        # path is empty); the b-independent answer is layer n+1 of real,
        # which is repliable since TLU requires a reply path, carrying the
        # adversary's message.
        return ("exit", real.message, real.receiver), _reply_from(d_real.reply_block, params)

    return (d_bar if bit else d_real).onion(1), challenger


# ---------------------------------------------------------------------------
# SLU-backward: sender layer unlinkability on the reply path

def game_slu_backward(adversary, seed, params=None, force_b=None):
    """One run of the backward layer-unlinkability game."""
    return _play(b"slu", ((P_H, b"kH"), (P_S, b"kS")), _slu_positions, _slu_world,
                 adversary, seed, params, force_b)


def _slu_positions(sub, oracles):
    n, nr, j_back = len(sub.path), len(sub.reply_path), sub.j_back
    # j_back = nr would put P_H in the sender's slot (P_S's, at nr - 1).
    if type(j_back) is not int or not 0 <= j_back < nr:
        raise ValueError("position out of range")
    honest_slots = {(1, nr - 1): P_S}
    honest_slots[(0, n - 1) if j_back == 0 else (1, j_back - 1)] = P_H
    path, reply_path = _checked_paths(sub, oracles, honest_slots)
    return path, reply_path, reply_path[j_back:], ()


def _slu_world(oracles, rng, sub, bit, real, bar):
    """The challenge is real's first layer in both worlds; at b = 1 the
    honest relay hands back bar, the reply path from position j_back on.

    With j_back > 0, P_H's Proc of its reply-path layer forwards bar's first
    layer.  With j_back = 0, P_H is real's exit: Proc of that exact layer
    delivers real's message, and its one Reply is bar's first layer.  In
    both worlds P_S outputs nothing for the layer it absorbs as the sender,
    so it files no reply expectation.
    """
    params, j_back = oracles.params, sub.j_back
    n, nr = len(real.path), len(real.reply_path)
    d_real = derive(real, params)
    next_name = real.reply_path[j_back][0]
    d_bar = None

    def derived_bar():
        # Only b = 1 oracle answers use bar, so it is derived on first use.
        nonlocal d_bar
        if d_bar is None:
            d_bar = derive(bar, params)
        return d_bar

    def challenger(party, onion):
        if party == P_S and _absorbed_at_sender(onion):
            return None, None  # the challenger outputs nothing
        if party != P_H or bit == 0:
            return None  # honest processing is exactly the b=0 answer
        if j_back == 0:
            # P_H is real's exit: it delivers real's message, and its one
            # reply is bar's first layer.  Any other payload fails integrity
            # in honest processing, as at b = 0.
            if onion != d_real.onion(n):
                return None
            return (("exit", real.message, real.receiver),
                    lambda message: (derived_bar().onion(1), next_name))
        if not recognize_onion(n + j_back, onion, d_real):
            return None
        return ("forward", next_name, derived_bar().onion(1)), None

    def _absorbed_at_sender(onion):
        if bit == 0:
            return recognize_onion(n + nr, onion, d_real)
        return recognize_onion(nr - j_back, onion, derived_bar())

    return d_real.onion(1), challenger


# ---------------------------------------------------------------------------
# STI: tail indistinguishability of the path end plus reply start

def game_sti_tail(adversary, seed, params=None, force_b=None):
    """One run of the tail-indistinguishability game."""
    # The corrupted exit reads bar's message, so bar carries real's.
    return _play(b"sti", ((P_H, b"kH"), (P_H_BACK, b"kHb"), (P_S, b"kS")),
                 _sti_positions, _sti_world, adversary, seed, params, force_b,
                 bar_keeps_message=True)


def _sti_positions(sub, oracles):
    n, nr = len(sub.path), len(sub.reply_path)
    j, j_back = sub.j, sub.j_back
    if type(j) is not int or not 0 <= j < n:
        raise ValueError("position j out of range (j = n is rejected)")
    # j_back = nr would put P_H_BACK in the sender's slot (P_S's, at nr - 1).
    if type(j_back) is not int or not 1 <= j_back < nr:
        raise ValueError("backward position out of range")
    honest_slots = {(1, j_back - 1): P_H_BACK, (1, nr - 1): P_S}
    if j > 0:
        if sub.path[j - 1][0] not in (P_H, P_H_BACK):
            raise ValueError("honest relay expected at position j")
        honest_slots[(0, j - 1)] = sub.path[j - 1][0]
    path, reply_path = _checked_paths(sub, oracles, honest_slots)
    if path[-1][0] in oracles.keys:
        raise ValueError("the exit relay must be corrupted")
    return path, reply_path, path[j:], reply_path[:j_back]


def _sti_world(oracles, rng, sub, bit, real, bar):
    n, j, j_back = len(real.path), sub.j, sub.j_back
    # Only the drawn world's spec is ever formed or recognized.  The
    # challenge is its layer at hop j+1 of the real path, and the challenger
    # absorbs its layer at the honest backward hop.
    d = derive(bar if bit else real, oracles.params)
    first, absorbed = (1, (n - j) + j_back) if bit else (j + 1, n + j_back)

    def challenger(party, onion):
        if party == P_H_BACK and recognize_onion(absorbed, onion, d):
            return None, None  # the challenger outputs nothing
        return None

    return d.onion(first), challenger


# ---------------------------------------------------------------------------
# Adversaries

class _BaseAdversary:
    """Common plumbing: stores the game surface and plays the adversary's
    corrupted relays.  relay(name) is the one key rule: the key comes from
    keypair(name).  Its relays peel against one replay view, so each peels
    an onion once, and an exit answers from that peel (exit_reply)."""

    def __init__(self, rng):
        self.rng = rng
        self.oracles = None
        self.challenge = None
        self.relays = {}
        self.view = InMemoryView()

    def begin(self, params, parties, pks, oracles):
        self.params = params
        self.parties = parties
        self.pks = pks
        self.oracles = oracles

    def keypair(self, label):
        return kem_keygen(self.params.group, self.rng.fork(label))

    def relay(self, name):
        """Fork relay name's key and return its (name, pk) path entry."""
        self.relays[name] = self.keypair(name)
        return name, self.relays[name].pk

    def peel(self, name, onion):
        return proc_onion(self.relays[name].sk, onion, name, self.params, self.view)

    def walk(self, onion, names):
        """The onion the last named relay forwards, or None."""
        for name in names:
            result = self.peel(name, onion)
            if result.kind != "forward":
                return None
            onion = result.next_onion
        return onion

    def exit_reply(self, onion, name, message):
        """build_reply_onion's answer for message from name's peel of onion
        as a repliable exit, or None."""
        result = self.peel(name, onion)
        if result.kind != "exit" or result.reply_block is None:
            return None
        return build_reply_onion(result.reply_block, message, self.params)

    def on_challenge(self, onion):
        self.challenge = onion

    def coin(self):
        return self.rng.read(1)[0] & 1


class GuessingAdversary(_BaseAdversary):
    """Negative control: valid submission, fair-coin guess."""

    def submit(self):
        x1, x2, x3 = (self.relay(name) for name in (b"x1", b"x2", b"x3"))
        if len(self.parties) == 3:  # STI surface
            return Submission(
                message=b"probe", receiver=b"svc", j=1, j_back=1,
                path=((P_H, None), x1, x2),
                reply_path=((P_H_BACK, None), x3, (P_S, None)),
            )
        return Submission(
            message=b"probe", receiver=b"svc", j=2, j_back=1,
            path=(x1, (P_H, None), x2),
            reply_path=((P_H, None), x3, (P_S, None)),
        )

    def guess(self):
        return self.coin()


class ByteComparisonAdversary(GuessingAdversary):
    """Negative control for TLU: tries to compare the challenge against a
    self-built onion.  The challenger's randomness is unknowable, so the
    comparison conveys nothing and the guess degrades to a coin."""

    def submit(self):
        self._sub = super().submit()
        return self._sub

    def guess(self):
        def keyed(path):
            return tuple((n, pk if pk is not None else self.pks[n]) for n, pk in path)

        sub = self._sub
        mine = form_onion(1, OnionSpec(
            seed=self.rng.fork(b"guess-seed").read(32),
            message=sub.message,
            receiver=receiver_addr(sub.receiver, self.params),
            path=keyed(sub.path),
            reply_path=keyed(sub.reply_path),
        ), self.params)
        at_delta = self.params.header_len
        if mine[:at_delta] == self.challenge[:at_delta]:
            return 0  # never happens for a sound scheme
        return self.coin()


class TagConsistencyAdversary(_BaseAdversary):
    """Negative control for TLU: tags the challenge before the honest hop and
    checks whether what comes back still decrypts to structured bytes
    downstream.  The tag-forwarding rule re-randomizes the payload in both
    worlds, so the exit sees garbage either way."""

    def submit(self):
        return Submission(
            message=b"tag-probe", receiver=b"svc", j=2, j_back=1,
            path=(self.relay(b"x1"), (P_H, None), self.relay(b"x2")),
            reply_path=(self.relay(b"x3"), (P_S, None)),
        )

    def guess(self):
        onion = self.walk(self.challenge, (b"x1",))
        if onion is None:
            return self.coin()
        tagged = tag_payload(onion, self.rng.fork(b"mask").read(self.params.payload_len),
                             self.params)
        out = self.oracles.proc(P_H, tagged)
        if out is None or out[0] != "forward":
            return 1  # real onions never vanish at the honest mid hop
        if self.peel(b"x2", out[2]).kind == "exit":
            return 0  # structured payload survived the tag: impossible world
        return self.coin()


class DirectionStructureAdversary(_BaseAdversary):
    """Negative control for SLU: walks the challenge to the honest reply hop
    and tests whether the onion it gets back is distinguishable, by routing
    structure, from a forward onion."""

    def submit(self):
        return Submission(
            message=b"dir-probe", receiver=b"svc", j_back=1,
            path=(self.relay(b"x1"), self.relay(b"x2")),
            reply_path=((P_H, None), self.relay(b"x3"), (P_S, None)),
        )

    def guess(self):
        # Forward trip through our own relays, then the reply from the
        # exit's one peel.
        onion = self.walk(self.challenge, (b"x1",))
        formed = None if onion is None else self.exit_reply(onion, b"x2", b"reply-probe")
        if formed is None:
            return self.coin()
        out = self.oracles.proc(P_H, formed[0])
        if out is None or out[0] != "forward":
            return self.coin()
        if self.peel(b"x3", out[2]).kind not in ("forward", "exit"):
            return 1  # a malformed hand-back would expose the replacement
        return self.coin()


class PathLengthPaddingAdversary(_BaseAdversary):
    """The legacy zero-padding distinguisher, expressed as a game adversary.

    It peels the challenge with its own downstream keys as far as the
    corrupted tail allows and reads the width of the all-zero filler run in
    the final routing slot.  In STI (corrupted exit) the run length differs
    between the two worlds whenever j > 0; in TLU the deepest reachable
    layer sits at the honest relay, whose stream key hides the filler.
    """

    def submit(self):
        self._mode = "sti" if len(self.parties) == 3 else "tlu"
        x1, x2, x3, x4 = (self.relay(name) for name in (b"x1", b"x2", b"x3", b"x4"))
        if self._mode == "sti":  # honest hop at j=2, exit corrupted
            reply_path = ((P_H_BACK, None), (P_S, None))
        else:
            reply_path = (self.relay(b"x5"), (P_S, None))
        return Submission(
            message=b"pad-probe", receiver=b"svc", j=2, j_back=1,
            path=(x1, (P_H, None), x2, x3, x4), reply_path=reply_path,
        )

    def guess(self):
        if self._mode == "tlu":
            # Deepest reachable layer: the honest relay's.  Measure there
            # (with x1's key, the only one the adversary has on the way).
            names, reader = (b"x1",), b"x1"
        else:
            names, reader = (b"x2", b"x3"), b"x4"
        onion = self.walk(self.challenge, names)
        if onion is None:
            return self.coin()
        run = zero_run(self.relays[reader].sk, onion, self.params)
        return 1 if run >= 4 * self.params.kappa else 0


# ---------------------------------------------------------------------------
# Batch driving and statistics

GAMES = {
    "correctness": None,
    "tlu": game_tlu_forward,
    "slu": game_slu_backward,
    "sti": game_sti_tail,
}

ADVERSARIES = {
    "guessing": (GuessingAdversary, ("tlu", "slu", "sti"), "negative"),
    "byte-comparison": (ByteComparisonAdversary, ("tlu",), "negative"),
    "tag-consistency": (TagConsistencyAdversary, ("tlu",), "negative"),
    "direction-structure": (DirectionStructureAdversary, ("slu",), "negative"),
    "path-length-padding": (PathLengthPaddingAdversary, ("tlu", "sti"), "positive"),
}


def fair_coin_pvalue(wins, games):
    """Exact two-sided binomial test of wins out of games against p = 1/2.

    The null distribution is symmetric, so the outcomes at most as likely as
    the observed one are the two tails beyond min(wins, games - wins).
    """
    tail = sum(math.comb(games, i) for i in range(min(wins, games - wins) + 1))
    return min(1.0, 2 * tail / 2**games)


def run_game_batch(game, adversary_name, games, seed, params=None):
    """Run many independent games; returns wins plus a binomial p-value
    against the fair-coin null hypothesis.  Raises ValueError, before any
    game runs, for a pairing ADVERSARIES does not list or a count below 1."""
    if adversary_name not in ADVERSARIES or game not in ADVERSARIES[adversary_name][1]:
        raise ValueError("adversary %s is not registered for game %s" % (adversary_name, game))
    games = parse_count(games)
    game_fn = GAMES[game]
    adversary_cls = ADVERSARIES[adversary_name][0]
    master = SeedRng(_seed_bytes(seed) + game.encode() + adversary_name.encode())
    wins = 0
    for i in range(games):
        grng = master.fork(b"g%d" % i)
        adversary = adversary_cls(grng.fork(b"adv"))
        outcome = game_fn(adversary, grng.fork(b"chal").read(16), params=params)
        wins += outcome["guess_correct"]
    return {
        "game": game,
        "adversary": adversary_name,
        "games": games,
        "wins": wins,
        "win_rate": wins / games,
        "binomial_pvalue": fair_coin_pvalue(wins, games),
        "expectation": ADVERSARIES[adversary_name][2],
    }
