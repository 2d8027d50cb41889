"""Deterministic in-memory network simulator and attack scenarios.

Runs whole workloads of onions over a relay topology, one onion at a time:
each runs to completion before the next one starts, and each event's time
is its index in the trace.  Records JSON-lines traces, rendered as text by
node.render just before a run returns, and can drive the ideal
functionality with the identical schedule for trace comparison.  One
real-world network object holds the parties' states and the adversary's
rules and drives every onion hop by hop, scenarios, the nymserver attack
and the correctness game alike.  Also houses the three reproduced attacks
(payload tagging linkage, the legacy nymserver drop attack, and the legacy
zero-padding path-length leak).
"""

import collections

from .crypto import SeedRng
from .group import SQR_GROUP
from .ideal import RsorIdeal
from .kem import kem_keygen
from .node import (
    ReceiverState,
    RelayState,
    SendMessage,
    SendOnion,
    SenderState,
    make_event,
    receiver_on_message,
    relay_forward,
    relay_on_onion,
    relay_on_receiver_reply,
    render,
    sender_on_onion,
    sender_send,
    trace_text,
)
from .packet import (
    FormatParams,
    OnionSpec,
    build_reply_onion,
    check_name,
    decode_addr,
    derive,
    form_onion,
    parse_reply_block,
    receiver_addr,
    tag_payload,
    validate_shape,
    zero_run,
)


# ---------------------------------------------------------------------------
# Scenario description

class WorkItem(collections.namedtuple(
        "WorkItem", "sender path receiver message reply_path reply_message",
        defaults=((), None))):
    """One sender action: an onion to a receiver, optionally answered.  path
    and reply_path are relay names; the reply path's last entry is the
    sender."""

    __slots__ = ()


class Rule(collections.namedtuple("Rule", "action item hop")):
    """Adversary script entry addressing an onion by observable coordinates:
    the workload index and the 1-based arrival hop (reply hops continue the
    numbering after the forward trip; a corrupted relay's hop counts in both
    worlds).  action is "drop" or "tag"."""

    __slots__ = ()


class Scenario(collections.namedtuple(
        "Scenario", "name relays senders receivers workload corrupted adversary seed",
        defaults=((), (), 0))):
    __slots__ = ()


def _seed_bytes(seed) -> bytes:
    """bytes as given, an int in [0, 2**64) as 8 big-endian bytes."""
    if isinstance(seed, bytes):
        return seed
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed %d is outside [0, 2**64)" % seed)
    return seed.to_bytes(8, "big")


def parse_seed(text) -> int:
    """An int seed from text; ValueError where _seed_bytes refuses it."""
    seed = int(text)
    _seed_bytes(seed)
    return seed


def parse_count(text) -> int:
    """A trial or game count from text or an int; ValueError below 1."""
    count = int(text)
    if count < 1:
        raise ValueError("count %d is below 1" % count)
    return count


def default_params(**fields):
    """FormatParams over SQR_GROUP; fields override FormatParams defaults.

    With no fields, every call returns the one module-level instance,
    ``FormatParams(group=SQR_GROUP)``, whose cached widths are then
    computed once per process; a FormatParams's fields cannot change, so
    sharing it is safe.  Any override builds a new instance.

    Of the three groups in ``group``, the signed quadratic residues are the
    default: membership there is a range test, not a Legendre test, and
    security is exactly ``PROD_GROUP``'s (the same 258-bit field, far below
    128-bit security).  ``PROD_GROUP`` and ``TOY_GROUP`` stay the
    Legendre-tested groups.
    """
    return FormatParams(group=SQR_GROUP, **fields) if fields else _DEFAULT_PARAMS


_DEFAULT_PARAMS = FormatParams(group=SQR_GROUP)


# ---------------------------------------------------------------------------
# Real-world engine

def _gen_keys(names, rng, group):
    return {name: kem_keygen(group, rng.fork(b"key:" + name)) for name in names}


class _Network:
    """The real world of one scenario: every party's state, built once, the
    adversary's rules over them, and the event trace.  Every onion of a run,
    replies included, travels hop by hop through run_onion."""

    def __init__(self, scenario, params, rng):
        self.params = params
        self.keys = _gen_keys(scenario.relays + scenario.senders, rng.fork(b"keys"), params.group)
        self.relays = {n: RelayState(name=n, keypair=self.keys[n]) for n in scenario.relays}
        self.senders = {n: SenderState(name=n, keypair=self.keys[n]) for n in scenario.senders}
        self.receivers = {n: ReceiverState(name=n) for n in scenario.receivers}
        self.corrupted = set(scenario.corrupted)
        self.rules = {(r.item, r.hop): r for r in scenario.adversary}
        self.ids_rng = rng.fork(b"ids")
        self.adv_rng = rng.fork(b"adv")
        self.events = []

    def log(self, event):
        # Every event is a fresh record that no one else keeps, so the time
        # goes into it rather than into a copy.
        event["time"] = len(self.events)
        self.events.append(event)

    def link(self, src, dst, secure=False):
        # Secure relay-to-relay links leak nothing but a constant-size marker.
        self.log(make_event(None, "link", src=src, dst=dst, marker="onion", secure=secure))

    def send(self, idx, item, seed):
        """Form workload item idx at its sender and run it to completion."""
        spec = OnionSpec(
            seed=seed,
            message=item.message,
            receiver=receiver_addr(item.receiver, self.params),
            path=tuple((name, self.keys[name].pk) for name in item.path),
            reply_path=tuple((name, self.keys[name].pk) for name in item.reply_path),
        )
        event, action = sender_send(self.senders[item.sender], spec, self.params)
        self.log(event)
        self.run_onion(idx, item.sender, action, item.reply_message)

    def run_onion(self, idx, prev, action, reply_message=None):
        """Drive the SendOnion action from prev, and the reply its exit may
        send, hop by hop until it is delivered, dropped or at a sender.
        Hops count from 1; the reply's continue the forward numbering."""
        hop = 1
        while action is not None:
            current, onion = action.next_hop, action.onion
            rule = self.rules.get((idx, hop)) if self.rules else None
            if rule is not None and rule.action == "drop":
                self.log(make_event(None, "adv-drop", item=idx, hop=hop))
                return
            if rule is not None and rule.action == "tag":
                onion = tag_payload(onion, self.adv_rng.read(self.params.payload_len),
                                    self.params)
                self.log(make_event(None, "adv-tag", item=idx, hop=hop))
            self.link(prev, current, secure=current in self.relays and prev in self.relays)

            if current in self.senders:
                event = sender_on_onion(self.senders[current], onion, self.params)
                if event["kind"] == "dropped":
                    event["diagnostic"] = True
                self.log(event)
                return

            state = self.relays[current]
            event = relay_on_onion(state, onion, prev, self.params, self.ids_rng)
            action = None
            if event["kind"] != "dropped":
                self.log(event)
                event, action = relay_forward(state, event["tid"], self.params, self.ids_rng)
            self.log(event)
            if current in self.corrupted:
                self.log(_observed(event, action))
            if isinstance(action, SendMessage):
                action = self._deliver(state, action, reply_message)
            prev, hop = current, hop + 1

    def _deliver(self, state, action, reply_message):
        """Hand an exit's message to its receiver; returns the SendOnion of
        the reply the receiver has the exit send, or None."""
        _tag, rname = decode_addr(action.receiver)
        rstate = self.receivers.get(rname)
        if rstate is None:
            self.log(make_event(None, "adv-drop-receiverless", receiver=rname))
            return None
        self.link(state.name, rname)
        self.log(receiver_on_message(rstate, action.message, action.rid, state.name))
        if action.rid is None or reply_message is None:
            return None
        self.link(rname, state.name)
        self.log(make_event(state.name, "reply-received", rid=action.rid, sender_of=rname))
        event, action = relay_on_receiver_reply(state, reply_message, action.rid, self.params)
        self.log(event)
        return action


def _observed(event, action):
    """The adv-observe record of a corrupted relay whose last step logged
    event and returned action (None: dropped)."""
    fields = {"relay": event["actor"]}
    if action is None:
        fields.update(saw="drop", reason=event["reason"])
    elif isinstance(action, SendOnion):
        fields["saw"] = "forward"
    else:
        _tag, rname = decode_addr(action.receiver)
        fields.update(saw="exit", message=action.message, receiver=rname)
    return make_event(None, "adv-observe", **fields)


def _check_workload(scenario: Scenario, params):
    """ValueError unless every declared name fits an address field, no name
    is both a relay and a sender, every corrupted name is a declared relay
    or sender, each onion's sender and relays are declared, its reply path
    ends at its sender, validate_shape accepts it and its reply message fits
    the payload frame.  Names and the reply message must be exact bytes, as
    the real world's address fields and payload frame need.  A receiver may
    be undeclared: its exit drops the delivery."""
    for name in scenario.relays + scenario.senders + scenario.receivers:
        check_name(name, params)
    for name in scenario.corrupted:
        if name not in scenario.relays + scenario.senders:
            raise ValueError("corrupted %r is not in relays or senders" % trace_text(name))
    # The real world hands an onion addressed to such a name to the sender,
    # which drops it; the ideal world would forward it as a relay.
    both = set(scenario.relays) & set(scenario.senders)
    if both:
        raise ValueError("%r is both a relay and a sender" % trace_text(min(both)))
    for item in scenario.workload:
        if item.sender not in scenario.senders:
            raise ValueError("onion sender %r is not in senders" % trace_text(item.sender))
        for name in item.path + item.reply_path[:-1]:
            if name not in scenario.relays:
                raise ValueError("onion relay %r is not in relays" % trace_text(name))
        if item.reply_path and item.reply_path[-1] != item.sender:
            raise ValueError("reply path ends at %r, not at its sender"
                             % trace_text(item.reply_path[-1]))
        check_name(item.receiver, params)
        validate_shape(item.path, item.reply_path, item.message, params)
        # The real exit would drop a str or over-long reply as unrepliable,
        # where the ideal world delivers it.
        if item.reply_message is not None and type(item.reply_message) is not bytes:
            raise ValueError("reply message must be bytes")
        if item.reply_message is not None and len(item.reply_message) > params.max_msg_len:
            raise ValueError("reply message does not fit the payload frame")


def run_scenario(scenario: Scenario):
    """Execute a scenario in the real world; returns the rendered trace.

    Fully deterministic in the scenario and its seed: relay keys, onion
    seeds, and all temporary ids come from one seeded stream.  Raises
    ValueError for a seed or workload parse_config would refuse.
    """
    params = default_params()
    _check_workload(scenario, params)
    rng = SeedRng(_seed_bytes(scenario.seed))
    net = _Network(scenario, params, rng)
    for idx, item in enumerate(scenario.workload):
        net.send(idx, item, rng.fork(b"item:%d" % idx).read(32))
    for event in net.events:
        render(event)
    return net.events


# ---------------------------------------------------------------------------
# Ideal-world engine (same schedule, abstract onions)

def run_ideal_scenario(scenario: Scenario):
    """Drive the ideal functionality with the scenario's schedule.

    Returns (env_trace, adv_trace), rendered.  The env trace matches the
    real trace after normalization, within the scope traces_equivalent
    states; deliveries to unknown receivers are dropped in both worlds.
    """
    _check_workload(scenario, default_params())
    rng = SeedRng(_seed_bytes(scenario.seed) + b"ideal")
    ideal = RsorIdeal(bad=scenario.corrupted, rng=rng)
    rules = {(r.item, r.hop): r for r in scenario.adversary}
    for idx in range(len(scenario.workload)):
        _pump_ideal(ideal, scenario, idx, rules)
    for events in (ideal.env_events, ideal.adv_events):
        for time, event in enumerate(events):
            render(event)["time"] = time
    return ideal.env_events, ideal.adv_events


def _pump_ideal(ideal, scenario, idx, rules):
    """Hand workload item idx to the ideal functionality and play S and Z
    on the events it causes until it is quiescent."""
    item = scenario.workload[idx]
    ai, ei = len(ideal.adv_events), len(ideal.env_events)
    ideal.process_new_onion(item.sender, item.receiver, item.message, item.path, item.reply_path)
    hop, last_rid = 0, None
    while ai < len(ideal.adv_events) or ei < len(ideal.env_events):
        if ai < len(ideal.adv_events):
            event = ideal.adv_events[ai]
            ai += 1
            kind = event["kind"]
            if kind in ("segment", "message-leak"):
                # The hops this step covers: arrivals at a segment's corrupted
                # via relays and at its honest to, or at a leak's via relays.
                first, hop = hop + 1, hop + len(event["via"]) + (kind == "segment")
                actions = {rules[idx, h].action for h in range(first, hop + 1)
                           if (idx, h) in rules}
            if kind == "segment" and "drop" not in actions:
                if "tag" in actions:
                    ideal.tag(event["tid"])
                ideal.deliver_onion(event["tid"])
            elif kind == "reply-setup" and "rid" in event:
                last_rid = event["rid"]
            elif kind == "message-leak" and not actions and item.receiver in scenario.receivers:
                # A drop or a tag before the exit withholds the delivery, and
                # the real world drops a delivery to an unknown receiver.
                ideal.deliver_message(event["frm"], item.message, last_rid, item.receiver)
            elif kind == "initiate-reply":
                ideal.deliver_reply(item.receiver, event["relay"],
                                    item.reply_message, event["rid"])
            continue
        event = ideal.env_events[ei]
        ei += 1
        kind = event["kind"]
        if kind in ("onion-received", "reply-onion-ready"):
            ideal.forward_onion(event["actor"], event["tid"])
        elif kind == "message-received" and event["repliable"] and item.reply_message is not None:
            ideal.initiate_reply(item.receiver, event["from"],
                                 item.reply_message, event["rid"])


# ---------------------------------------------------------------------------
# Trace normalization and comparison

def normalize_trace(trace):
    """Environment-visible event multiset, canonicalized across worlds.

    Temporary ids are dropped (both worlds mint them freshly), diagnostic
    records are excluded, and the real world's reply-sent is folded into
    forwarded (the ideal world splits the same step differently).
    """
    out = []
    for event in trace:
        kind = event.get("kind")
        actor = event.get("actor")
        if event.get("diagnostic"):
            continue
        if kind == "onion-received":
            out.append(("onion-received", actor))
        elif kind in ("forwarded", "reply-sent"):
            out.append(("forwarded", actor))
        elif kind == "message-delivered":
            out.append(("message-delivered", actor))
        elif kind == "message-received":
            out.append(("message-received", actor, event.get("message"),
                        bool(event.get("repliable"))))
        elif kind == "got-reply":
            out.append(("got-reply", actor, event.get("message")))
        elif kind == "reply-received":
            out.append(("reply-received", actor))
        elif kind == "dropped":
            out.append(("dropped", actor, event.get("reason")))
    return sorted(out)


def traces_equivalent(real_trace, ideal_env_trace) -> bool:
    """Whether both worlds show the environment the same events.  Claimed
    only for scenarios with no corrupted party (drop and tag rules allowed):
    the real trace logs a corrupted party's own events, which the ideal
    world leaves to the adversary, and run_ideal_scenario does not play a
    corrupted exit (no rid, no reply).  node.REPLY_BUFFER_CAP shows in
    neither trace, since the real network answers each rid at once or
    never, so no rid is evicted before its answer."""
    return normalize_trace(real_trace) == normalize_trace(ideal_env_trace)


def write_trace(out, trace):
    """Write trace to the text stream out as JSON lines, one event a line
    with its keys sorted: the form the CLI prints and the golden files hold."""
    # Imported here: nothing else in the library needs json.
    import json

    for event in trace:
        out.write(json.dumps(event, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Attack scenario: payload tagging linkage (corrupted first hop + exits)

def scenario_tagging_linkage(seed, tag=True):
    """First hop tags one sender's onion; the corrupted exit that sees the
    integrity failure reveals which exit the tagged sender was using."""
    rng = SeedRng(_seed_bytes(seed) + b"tagging")
    swap = rng.read(1)[0] & 1
    exits = (b"exit2", b"exit1") if swap else (b"exit1", b"exit2")
    scenario = Scenario(
        name="tagging-linkage",
        relays=(b"hop1", b"mid1", b"mid2", b"exit1", b"exit2"),
        senders=(b"alice", b"bob"),
        receivers=(b"svc1", b"svc2"),
        corrupted=(b"hop1", b"exit1", b"exit2"),
        workload=(
            WorkItem(b"alice", (b"hop1", b"mid1", exits[0]), b"svc1", b"ping-a"),
            WorkItem(b"bob", (b"hop1", b"mid2", exits[1]), b"svc2", b"ping-b"),
        ),
        adversary=(Rule("tag", 0, 2),) if tag else (),
        seed=int.from_bytes(rng.read(8), "big"),
    )
    trace = run_scenario(scenario)
    failures = [
        e["relay"] for e in trace
        if e.get("kind") == "adv-observe" and e.get("saw") == "drop"
        and e.get("reason") == "integrity"
    ]
    # The trace is rendered, so the guess is a relay's trace text.
    if tag:
        guess = failures[0] if failures else None
    else:
        guess = trace_text((b"exit1", b"exit2")[rng.read(1)[0] & 1])
    truth = trace_text(exits[0])  # alice's (the tagged sender's) exit
    delivered = [
        e for e in trace
        if e.get("kind") == "message-received" and e.get("message") == "ping-a"
    ]
    return {
        "linked": guess == truth,
        "linked_pair": ("alice", guess),
        "tagged_message_delivered": bool(delivered),
        "trace": trace,
    }


def _attack(name, won, trials, seed, **fields):
    """One attack's summary over trials seeds derived from seed;
    won(trial_seed) says whether the attack won that trial, and fields join
    the summary."""
    trials = parse_count(trials)
    seed = _seed_bytes(seed)
    wins = sum(won(SeedRng(seed + b"trial:%d" % t).read(16)) for t in range(trials))
    return {"attack": name, **fields, "trials": trials, "wins": wins,
            "success_rate": wins / trials}


def attack_tagging(trials, seed, tag=True):
    return _attack("tagging", lambda s: scenario_tagging_linkage(s, tag=tag)["linked"],
                   trials, seed)


# ---------------------------------------------------------------------------
# Attack scenario: legacy nymserver drop attack

class Nymserver:
    """The legacy third party: pseudonym table mapping nyms to reply blocks.

    Exists only for the legacy scenario; the adapted format embeds the reply
    block in the single onion and has no such actor.
    """

    def __init__(self, params):
        self.params = params
        self.table = {}
        self.events = []

    def register(self, nym: bytes, reply_block: bytes):
        block = parse_reply_block(reply_block, self.params)
        if block is None:
            self.events.append({"kind": "nym-bad-registration"})
            return
        self.table[nym] = block
        self.events.append({"kind": "nym-registered", "nym": nym.hex()})

    def lookup_and_send(self, nym: bytes, message: bytes):
        """Wrap an incoming message for the pseudonym, or visibly fail."""
        block = self.table.get(nym)
        if block is None:
            self.events.append({"kind": "no-reply-onion", "nym": nym.hex()})
            return None
        onion, first_hop = build_reply_onion(block, message, self.params)
        self.events.append({"kind": "reply-onion-sent", "nym": nym.hex()})
        return SendOnion(next_hop=first_hop, onion=onion)


def scenario_nymserver_attack(seed, legacy: bool, guess="oracle"):
    """Reproduce the two-onion nymserver drop attack.

    Legacy flow: the sender's reply block travels in a second onion to the
    nymserver.  The adversary drops one of the two onions at the first hop;
    if it hits the registration, the later pseudonym lookup visibly produces
    no reply onion, linking the sender to the pseudonym.  The adapted flow
    has a single onion and no pseudonym lookup, so the attack's observable
    does not exist.
    """
    if not legacy:
        return {"attack_succeeds": False, "expressible": False}
    rng = SeedRng(_seed_bytes(seed) + b"nymserver")
    params = default_params(payload_len=700)
    if guess == "oracle":
        dropped = 1  # always hits the registration onion
    else:
        dropped = rng.fork(b"guess").read(1)[0] & 1
    # The two onions are sent below: onion 1's message holds a reply block
    # built from the network's own keys.
    net = _Network(Scenario(
        name="nymserver", relays=(b"a", b"b", b"c", b"d", b"e"), senders=(b"sender",),
        receivers=(b"partner", b"nymsrv"), workload=(),
        adversary=(Rule("drop", dropped, 1),),
    ), params, rng)
    ns = Nymserver(params)
    nym = rng.fork(b"nym").read(8)

    # Build the reply block the sender wants the nymserver to hold.
    reply_spec = OnionSpec(
        seed=rng.fork(b"reply-seed").read(32),
        message=b"",
        receiver=receiver_addr(b"nymsrv", params),
        path=tuple((n, net.keys[n].pk) for n in (b"a",)),
        reply_path=tuple((n, net.keys[n].pk) for n in (b"d", b"e", b"sender")),
    )
    d = derive(reply_spec, params)
    net.senders[b"sender"].view.expect_reply(d.opening)

    # Onion 0: the conversation message; onion 1: the nym registration.
    net.send(0, WorkItem(b"sender", (b"a", b"b", b"c"), b"partner",
                         b"hello via nym " + nym.hex().encode()),
             rng.fork(b"seed-a").read(32))
    net.send(1, WorkItem(b"sender", (b"a", b"b", b"c"), b"nymsrv", nym + d.reply_block),
             rng.fork(b"seed-b").read(32))
    for message, _rid, _relay in net.receivers[b"nymsrv"].inbox:
        ns.register(message[:8], message[8:8 + params.reply_block_len])

    # The pseudonym's conversation partner writes to the nym regardless.
    result = ns.lookup_and_send(nym, b"letter for the pseudonym")
    if result is not None:
        net.run_onion(2, b"nymsrv", result)

    return {
        "attack_succeeds": any(e["kind"] == "no-reply-onion" for e in ns.events),
        "expressible": True,
        "dropped_registration": dropped == 1,
        "reply_round_trip": bool(net.senders[b"sender"].replies),
        "nymserver_events": ns.events,
    }


def attack_nymserver(trials, seed, legacy=True, guess="oracle"):
    return _attack("nymserver",
                   lambda s: scenario_nymserver_attack(s, legacy, guess)["attack_succeeds"],
                   trials, seed, legacy=legacy)


# ---------------------------------------------------------------------------
# Attack scenario: zero-padding path-length leak at a corrupted exit

def scenario_zero_padding_leak(seed, legacy: bool):
    """A corrupted exit estimates the path length from trailing filler.

    With the legacy all-zero filler the estimate is exact; with random
    filler the estimator degenerates to a constant guess.
    """
    rng = SeedRng(_seed_bytes(seed) + b"padding")
    params = default_params(legacy_zero_filler=legacy)
    names = (b"a", b"b", b"c", b"d", b"exit")
    keys = _gen_keys(names, rng.fork(b"keys"), params.group)
    true_n = 2 if rng.read(1)[0] & 1 else 5
    path_names = names[5 - true_n :]
    spec = OnionSpec(
        seed=rng.fork(b"seed").read(32),
        message=b"how long was my path",
        receiver=receiver_addr(b"svc", params),
        path=tuple((n, keys[n].pk) for n in path_names),
    )
    # What the corrupted exit reads off its own, authentic layer.
    run = zero_run(keys[b"exit"].sk, form_onion(len(path_names), spec, params), params)
    guessed_n = 2 if run >= 5 * params.kappa else 5
    return {
        "path_length_recovered": guessed_n == true_n,
        "true_length": true_n,
        "guessed_length": guessed_n,
        "zero_run": run,
    }


def attack_padding(trials, seed, legacy=True):
    return _attack("padding",
                   lambda s: scenario_zero_padding_leak(s, legacy)["path_length_recovered"],
                   trials, seed, legacy=legacy)


# ---------------------------------------------------------------------------
# Named scenarios and key-value config

def baseline_scenario(seed=0):
    """Honest round trip: one repliable onion, receiver echoes an answer."""
    return Scenario(
        name="baseline",
        relays=(b"a", b"b", b"c", b"d", b"e"),
        senders=(b"alice",),
        receivers=(b"svc",),
        workload=(
            WorkItem(
                b"alice", (b"a", b"b", b"c"), b"svc", b"ping",
                reply_path=(b"d", b"e", b"alice"), reply_message=b"pong",
            ),
        ),
        seed=seed,
    )


def two_senders_scenario(seed=0):
    """Two disjoint honest flows, one repliable, one not."""
    return Scenario(
        name="two-senders",
        relays=(b"a", b"b", b"c", b"d", b"e"),
        senders=(b"alice", b"bob"),
        receivers=(b"svc1", b"svc2"),
        workload=(
            WorkItem(
                b"alice", (b"a", b"b"), b"svc1", b"one",
                reply_path=(b"c", b"alice"), reply_message=b"ack",
            ),
            WorkItem(b"bob", (b"d", b"e"), b"svc2", b"two"),
        ),
        seed=seed,
    )


SCENARIOS = {
    "baseline": baseline_scenario,
    "two-senders": two_senders_scenario,
}


def parse_config(text: str) -> Scenario:
    """Build a Scenario from a simple key-value config.

    Recognized keys (comma-separated lists, '|'-separated onion fields):
      name, relays, senders, receivers, corrupted, seed,
      onion = sender|path|receiver|message[|reply_path|reply_message]
    Raises ValueError on a config run_scenario could not run.
    """
    values = {"name": "config", "relays": (), "senders": (), "receivers": (),
              "corrupted": (), "seed": 0}
    workload = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("bad config line: %r" % raw)
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "onion":
            fields = [part.strip() for part in value.split("|")]
            if len(fields) not in (4, 6):
                raise ValueError("onion needs 4 or 6 fields: %r" % raw)
            item = WorkItem(
                sender=fields[0].encode(),
                path=tuple(p.strip().encode() for p in fields[1].split(",")),
                receiver=fields[2].encode(),
                message=fields[3].encode(),
                reply_path=tuple(
                    p.strip().encode() for p in fields[4].split(",")
                ) if len(fields) == 6 else (),
                reply_message=fields[5].encode() if len(fields) == 6 else None,
            )
            workload.append(item)
        elif key == "seed":
            values["seed"] = parse_seed(value)
        elif key == "name":
            values["name"] = value
        elif key in ("relays", "senders", "receivers", "corrupted"):
            values[key] = tuple(p.strip().encode() for p in value.split(",") if p.strip())
        else:
            raise ValueError("unknown config key: %r" % key)
    scenario = Scenario(workload=tuple(workload), **values)
    _check_workload(scenario, default_params())
    return scenario
