"""Deterministic in-memory network simulator and attack scenarios.

Runs whole workloads of onions over a relay topology with logical-time
scheduling, records JSON-lines traces, and can drive the ideal
functionality with the identical schedule for trace comparison.  Also
houses the three reproduced attacks (payload tagging linkage, the legacy
nymserver drop attack, and the legacy zero-padding path-length leak) plus
the static usage-condition lint.
"""

import json
from dataclasses import dataclass

from .crypto import SeedRng, mac
from .group import PROD_GROUP
from .ideal import RsorIdeal
from .kem import kem_decap, kem_keygen
from .node import (
    ReceiverState,
    RelayState,
    SendMessage,
    SendOnion,
    SenderState,
    make_event,
    receiver_on_message,
    receiver_reply,
    relay_forward,
    relay_on_onion,
    relay_on_receiver_reply,
    sender_on_onion,
    sender_send,
)
from .packet import (
    FormatParams,
    OnionSpec,
    build_reply_onion,
    decode_addr,
    derive,
    form_onion,
    parse_reply_block,
    receiver_addr,
    serialize_reply_block,
    tag_payload,
    zero_run,
)


# ---------------------------------------------------------------------------
# Scenario description

@dataclass(frozen=True)
class WorkItem:
    """One sender action: an onion to a receiver, optionally answered."""

    sender: bytes
    path: tuple           # relay names
    receiver: bytes
    message: bytes
    reply_path: tuple = ()  # relay names, last entry = sender
    reply_message: bytes = None


@dataclass(frozen=True)
class Rule:
    """Adversary script entry addressing an onion by observable coordinates:
    the workload index and the 1-based arrival hop (reply hops continue the
    numbering after the forward trip)."""

    action: str  # "drop" or "tag"
    item: int
    hop: int


@dataclass(frozen=True)
class Scenario:
    name: str
    relays: tuple
    senders: tuple
    receivers: tuple
    workload: tuple
    corrupted: tuple = ()
    adversary: tuple = ()
    legacy_zero_padding: bool = False
    seed: int = 0
    # Usage-condition surface (linted, not executed):
    exit_rule: str = "uniform"
    sender_reacts_to_drops: bool = False
    session_markers: tuple = ()


def _seed_bytes(seed) -> bytes:
    if isinstance(seed, bytes):
        return seed
    return int(seed).to_bytes(8, "big")


def default_params(legacy_zero_filler=False, payload_len=355):
    return FormatParams(
        group=PROD_GROUP,
        legacy_zero_filler=legacy_zero_filler,
        payload_len=payload_len,
    )


# ---------------------------------------------------------------------------
# Real-world engine

class _Trace:
    def __init__(self):
        self.events = []

    def log(self, event):
        if event is None:
            return
        event = dict(event)
        event["time"] = len(self.events)
        self.events.append(event)


def _spec_for_item(item, keys, seed, params):
    return OnionSpec(
        seed=seed,
        message=item.message,
        receiver=receiver_addr(item.receiver, params),
        path=tuple((name, keys[name].pk) for name in item.path),
        reply_path=tuple((name, keys[name].pk) for name in item.reply_path),
    )


def _gen_keys(names, rng, group):
    return {name: kem_keygen(group, rng.fork(b"key:" + name)) for name in names}


def run_scenario(scenario: Scenario):
    """Execute a scenario in the real world; returns the event trace.

    Fully deterministic in the scenario and its seed: relay keys, onion
    seeds, and all temporary ids come from one seeded stream.
    """
    rng = SeedRng(_seed_bytes(scenario.seed))
    params = default_params(legacy_zero_filler=scenario.legacy_zero_padding)
    keys = _gen_keys(scenario.relays + scenario.senders, rng.fork(b"keys"), params.group)
    relays = {name: RelayState(name=name, keypair=keys[name]) for name in scenario.relays}
    senders = {name: SenderState(name=name, keypair=keys[name]) for name in scenario.senders}
    receivers = {name: ReceiverState(name=name) for name in scenario.receivers}
    corrupted = set(scenario.corrupted)
    rules = {(r.item, r.hop): r for r in scenario.adversary}
    ids_rng = rng.fork(b"ids")
    adv_rng = rng.fork(b"adv")
    trace = _Trace()

    for idx, item in enumerate(scenario.workload):
        spec = _spec_for_item(
            item, keys, rng.fork(b"item:%d" % idx).read(32), params
        )
        event, action = sender_send(senders[item.sender], spec, params)
        trace.log(event)
        _run_onion(
            scenario, idx, item, action, relays, senders, receivers,
            corrupted, rules, params, ids_rng, adv_rng, trace, hop=1,
        )
    return trace.events


def _log_link(trace, src, dst, secure):
    # Secure relay-to-relay links leak nothing but a constant-size marker.
    trace.log({"kind": "link", "src": src.decode("ascii", "replace"),
               "dst": dst.decode("ascii", "replace"),
               "marker": "onion", "secure": secure})


def _run_onion(scenario, idx, item, action, relays, senders, receivers,
               corrupted, rules, params, ids_rng, adv_rng, trace, hop):
    """Drive one onion (and its eventual reply) hop by hop to completion."""
    prev = item.sender
    onion = action.onion
    current = action.next_hop
    while True:
        rule = rules.get((idx, hop))
        if rule is not None and rule.action == "drop":
            trace.log({"kind": "adv-drop", "item": idx, "hop": hop})
            return
        if rule is not None and rule.action == "tag":
            onion = tag_payload(onion, adv_rng.read(params.payload_len))
            trace.log({"kind": "adv-tag", "item": idx, "hop": hop})
        _log_link(trace, prev, current, secure=current in relays and prev in relays)

        if current in senders:
            event = sender_on_onion(senders[current], onion, params)
            if event["kind"] == "dropped":
                event["diagnostic"] = True
            trace.log(event)
            return

        state = relays[current]
        event = relay_on_onion(state, onion, prev, params, ids_rng)
        trace.log(event)
        if event["kind"] == "dropped":
            if current in corrupted:
                trace.log({"kind": "adv-observe", "relay": event["actor"],
                           "saw": "drop", "reason": event["reason"]})
            return
        event2, action2 = relay_forward(state, event["tid"], params, ids_rng)
        trace.log(event2)
        if action2 is None:
            if current in corrupted:
                trace.log({"kind": "adv-observe", "relay": event["actor"],
                           "saw": "drop", "reason": event2["reason"]})
            return
        if isinstance(action2, SendOnion):
            if current in corrupted:
                trace.log({"kind": "adv-observe", "relay": event["actor"],
                           "saw": "forward"})
            prev, current, onion = current, action2.next_hop, action2.onion
            hop += 1
            continue

        assert isinstance(action2, SendMessage)
        _tag, rname = decode_addr(action2.receiver)
        if current in corrupted:
            trace.log({"kind": "adv-observe", "relay": event["actor"],
                       "saw": "exit",
                       "message": action2.message.decode("utf-8", "replace"),
                       "receiver": rname.decode("ascii", "replace")})
        rstate = receivers.get(rname)
        if rstate is None:
            trace.log({"kind": "adv-drop-receiverless",
                       "receiver": rname.decode("ascii", "replace")})
            return
        _log_link(trace, current, rname, secure=False)
        trace.log(receiver_on_message(rstate, action2.message, action2.rid, current))
        if action2.rid is None or item.reply_message is None:
            return
        reply_action = receiver_reply(rstate, item.reply_message, action2.rid, current)
        _log_link(trace, rname, current, secure=False)
        trace.log(make_event(current, "reply-received", rid=action2.rid,
                             sender_of=rname.decode("ascii", "replace")))
        event3, action3 = relay_on_receiver_reply(
            state, reply_action.message, reply_action.rid, params
        )
        trace.log(event3)
        if action3 is None:
            return
        prev, current, onion = current, action3.next_hop, action3.onion
        hop += 1


# ---------------------------------------------------------------------------
# Ideal-world engine (same schedule, abstract onions)

def run_ideal_scenario(scenario: Scenario):
    """Drive the ideal functionality with the scenario's schedule.

    Returns (env_trace, adv_trace).  The env trace is comparable to the
    real trace after normalization.
    """
    rng = SeedRng(_seed_bytes(scenario.seed) + b"ideal")
    ideal = RsorIdeal(bad=scenario.corrupted, rng=rng)
    rules = {(r.item, r.hop): r for r in scenario.adversary}
    names = {n.decode("ascii", "replace"): n
             for n in scenario.relays + scenario.senders + scenario.receivers}

    for idx, item in enumerate(scenario.workload):
        ideal.process_new_onion(
            item.sender, item.receiver, item.message, item.path, item.reply_path
        )
        _pump_ideal(ideal, item, idx, rules, names)

    env = [dict(e, time=i) for i, e in enumerate(ideal.env_events)]
    adv = [dict(e, time=i) for i, e in enumerate(ideal.adv_events)]
    return env, adv


def _pump_ideal(ideal, item, idx, rules, names):
    ai = ei = 0
    hop = 0
    last_rid = None
    while ai < len(ideal.adv_events) or ei < len(ideal.env_events):
        if ai < len(ideal.adv_events):
            event = ideal.adv_events[ai]
            ai += 1
            kind = event["kind"]
            if kind == "segment":
                hop += 1
                rule = rules.get((idx, hop))
                if rule is not None and rule.action == "drop":
                    continue
                if rule is not None and rule.action == "tag":
                    ideal.tag(event["tid"])
                ideal.deliver_onion(event["tid"])
            elif kind == "reply-setup" and "rid" in event:
                last_rid = event["rid"]
            elif kind == "message-leak":
                ideal.deliver_message(
                    names[event["frm"]], event["message"], last_rid,
                    names[event["receiver"]],
                )
            elif kind == "initiate-reply":
                ideal.deliver_reply(
                    names[event["receiver"]], names[event["relay"]],
                    event["message"], event["rid"],
                )
            continue
        event = ideal.env_events[ei]
        ei += 1
        kind = event["kind"]
        if kind == "onion-received":
            ideal.forward_onion(names[event["actor"]], event["tid"])
        elif kind == "message-received" and event.get("repliable"):
            if item.reply_message is not None:
                ideal.initiate_reply(
                    names[event["actor"]], names[event["from"]],
                    item.reply_message, event["rid"],
                )
        elif kind == "reply-onion-ready":
            ideal.forward_onion(names[event["actor"]], event["tid"])


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
            out.append(("message-received", actor, _msg(event.get("message")),
                        bool(event.get("repliable"))))
        elif kind == "got-reply":
            out.append(("got-reply", actor, _msg(event.get("message"))))
        elif kind == "reply-received":
            out.append(("reply-received", actor))
        elif kind == "dropped":
            out.append(("dropped", actor, event.get("reason")))
    return sorted(out)


def _msg(value):
    if isinstance(value, bytes):
        return value.decode("utf-8", "replace")
    return value


def traces_equivalent(real_trace, ideal_env_trace) -> bool:
    return normalize_trace(real_trace) == normalize_trace(ideal_env_trace)


def write_trace(path, trace):
    with open(path, "w", encoding="ascii") as fh:
        for event in trace:
            fh.write(json.dumps(_jsonable(event), sort_keys=True) + "\n")


def _jsonable(event):
    out = {}
    for key, value in event.items():
        if isinstance(value, bytes):
            value = value.decode("utf-8", "replace")
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# Usage-condition lint (static checks over a scenario description)

def check_usage_conditions(scenario: Scenario):
    """Lint a scenario against the safe-usage conditions.

    1. Exit relays must be chosen independently of the receiver/message.
    2. Senders must not produce observable output on dropped/tagged replies.
    3. Sessions must not be visible (linkable) at the exit relay.
    """
    violations = []
    if scenario.exit_rule != "uniform":
        violations.append("exit-choice-leaks-information")
    if scenario.sender_reacts_to_drops:
        violations.append("sender-output-on-dropped-reply")
    markers = [m for m in scenario.session_markers if m is not None]
    if len(set(markers)) < len(markers):
        violations.append("linkable-session-at-exit")
    return violations


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
    if tag:
        guess = failures[0].encode("ascii") if failures else None
    else:
        guess = (b"exit1", b"exit2")[rng.read(1)[0] & 1]
    truth = exits[0]  # alice's (the tagged sender's) exit
    delivered = [
        e for e in trace
        if e.get("kind") == "message-received" and e.get("message") == "ping-a"
    ]
    return {
        "linked": guess == truth,
        "linked_pair": ("alice", guess.decode("ascii") if guess else None),
        "tagged_message_delivered": bool(delivered),
        "trace": trace,
    }


def _seed_tuple(seed, t):
    return SeedRng(_seed_bytes(seed) + b"trial:%d" % t).read(16)


def attack_tagging(trials, seed, tag=True):
    wins = sum(
        scenario_tagging_linkage(_seed_tuple(seed, t), tag=tag)["linked"]
        for t in range(trials)
    )
    return {"attack": "tagging", "trials": trials, "wins": wins,
            "success_rate": wins / trials}


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
        info = parse_reply_block(reply_block, self.params)
        if info is None:
            self.events.append({"kind": "nym-bad-registration"})
            return
        self.table[nym] = info
        self.events.append({"kind": "nym-registered", "nym": nym.hex()})

    def lookup_and_send(self, nym: bytes, message: bytes):
        """Wrap an incoming message for the pseudonym, or visibly fail."""
        info = self.table.get(nym)
        if info is None:
            self.events.append({"kind": "no-reply-onion", "nym": nym.hex()})
            return None
        onion = build_reply_onion(info, message, self.params)
        _tag, first_hop = decode_addr(info.first_hop)
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
    relay_names = (b"a", b"b", b"c", b"d", b"e")
    keys = _gen_keys(relay_names + (b"sender",), rng.fork(b"keys"), params.group)
    relays = {n: RelayState(name=n, keypair=keys[n]) for n in relay_names}
    sender = SenderState(name=b"sender", keypair=keys[b"sender"])
    ns = Nymserver(params)
    nym = rng.fork(b"nym").read(8)

    # Build the reply block the sender wants the nymserver to hold.
    reply_spec = OnionSpec(
        seed=rng.fork(b"reply-seed").read(32),
        message=b"",
        receiver=receiver_addr(b"nymsrv", params),
        path=tuple((n, keys[n].pk) for n in (b"a",)),
        reply_path=tuple((n, keys[n].pk) for n in (b"d", b"e", b"sender")),
    )
    d = derive(reply_spec, params)
    block = serialize_reply_block(d.reply_info, params)
    sender.view.expect_reply(d.ident, d.opening)

    # Onion A: the conversation message; Onion B: the nym registration.
    spec_a = OnionSpec(
        seed=rng.fork(b"seed-a").read(32), message=b"hello via nym " + nym.hex().encode(),
        receiver=receiver_addr(b"partner", params),
        path=tuple((n, keys[n].pk) for n in (b"a", b"b", b"c")),
    )
    spec_b = OnionSpec(
        seed=rng.fork(b"seed-b").read(32), message=nym + block,
        receiver=receiver_addr(b"nymsrv", params),
        path=tuple((n, keys[n].pk) for n in (b"a", b"b", b"c")),
    )

    if guess == "oracle":
        dropped = 1  # always hits the registration onion
    else:
        dropped = rng.fork(b"guess").read(1)[0] & 1

    ids_rng = rng.fork(b"ids")
    for index, spec in enumerate((spec_a, spec_b)):
        if index == dropped:
            continue
        action = _walk(relays, SendOnion(b"a", form_onion(1, spec, params)), b"sender",
                       params, ids_rng)
        if (isinstance(action, SendMessage)
                and decode_addr(action.receiver)[1] == b"nymsrv"):
            ns.register(action.message[:8], action.message[8:8 + params.reply_block_len])

    # The pseudonym's conversation partner writes to the nym regardless.
    result = ns.lookup_and_send(nym, b"letter for the pseudonym")
    no_reply_signal = any(e["kind"] == "no-reply-onion" for e in ns.events)
    got_reply = False
    if result is not None:
        action = _walk(relays, result, b"nymsrv", params, ids_rng)
        if isinstance(action, SendOnion) and action.next_hop == sender.name:
            got_reply = sender_on_onion(sender, action.onion, params)["kind"] == "got-reply"

    return {
        "attack_succeeds": no_reply_signal,
        "expressible": True,
        "dropped_registration": dropped == 1,
        "reply_round_trip": got_reply,
        "nymserver_events": ns.events,
    }


def _walk(relays, action, prev, params, ids_rng):
    """Push an onion through honest relays, each forwarding at once, until it
    leaves them.  Returns the last action: a SendOnion to a non-relay, a
    SendMessage, or None when a relay dropped it."""
    while isinstance(action, SendOnion) and action.next_hop in relays:
        state = relays[action.next_hop]
        event = relay_on_onion(state, action.onion, prev, params, ids_rng)
        if event["kind"] == "dropped":
            return None
        prev = action.next_hop
        _event, action = relay_forward(state, event["tid"], params, ids_rng)
    return action


def attack_nymserver(trials, seed, legacy=True, guess="oracle"):
    wins = sum(
        scenario_nymserver_attack(_seed_tuple(seed, t), legacy, guess)["attack_succeeds"]
        for t in range(trials)
    )
    return {"attack": "nymserver", "legacy": legacy, "trials": trials,
            "wins": wins, "success_rate": wins / trials}


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
    header = form_onion(len(path_names), spec, params).header
    # What the corrupted exit reads off its own, authentic layer.
    layer = kem_decap(params.group, keys[b"exit"].sk, header.alpha, params.kappa)
    assert mac(layer.k_mu, header.beta, params.kappa) == header.gamma
    run = zero_run(layer, header, params)
    guessed_n = 2 if run >= 5 * params.kappa else 5
    return {
        "path_length_recovered": guessed_n == true_n,
        "true_length": true_n,
        "guessed_length": guessed_n,
        "zero_run": run,
    }


def attack_padding(trials, seed, legacy=True):
    wins = sum(
        scenario_zero_padding_leak(_seed_tuple(seed, t), legacy)["path_length_recovered"]
        for t in range(trials)
    )
    return {"attack": "padding", "legacy": legacy, "trials": trials,
            "wins": wins, "success_rate": wins / trials}


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
            values["seed"] = int(value)
        elif key == "name":
            values["name"] = value
        elif key in ("relays", "senders", "receivers", "corrupted"):
            values[key] = tuple(p.strip().encode() for p in value.split(",") if p.strip())
        else:
            raise ValueError("unknown config key: %r" % key)
    return Scenario(workload=tuple(workload), **values)
