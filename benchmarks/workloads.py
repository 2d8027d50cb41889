"""The benchmark's three workloads: inputs, the timed op, and output checks.

Inputs come from the workload seed through Python's ``random`` module; the
library only ever sees the generated scenarios, specs and onions.  Every
workload is generated in blocks that cover its input mix exactly once
(path lengths, repliability, game rotation) in a seed-shuffled order, so
the mix of one run does not depend on the seed or on how many ops fit in
the run.

Library functions are called through their modules (``sim.run_scenario``,
never a from-imported name) so that the tracer's rebinding reaches them.
"""

import random

from rsor import crypto, games, group, kem, node, packet, sim

POOL = tuple(b"r%d" % i for i in range(10))  # the relay pool
SENDER = b"alice"
RECEIVER = b"svc"
MAX_HOPS = 5


def _rng(workload, seed, label):
    return random.Random("%s:%d:%s" % (workload, seed, label))


def _text(rng):
    return rng.randbytes(rng.randint(4, 24)).hex().encode("ascii")


def _paths(rng, n_fwd, n_rep):
    """Forward relays and reply relays (the sender excluded) from the pool."""
    return tuple(rng.sample(POOL, n_fwd)), tuple(rng.sample(POOL, n_rep))


class Roundtrip:
    """One one-item repliable scenario per op, run as ``rsor-sim run`` runs
    it, and checked against the ideal world."""

    name = "roundtrip"

    def __init__(self, seed):
        self.seed = seed

    def block(self, index):
        rng = _rng(self.name, self.seed, "block:%d" % index)
        shapes = [(n, nr) for n in range(1, MAX_HOPS + 1) for nr in range(1, MAX_HOPS + 1)]
        rng.shuffle(shapes)
        return [self._scenario(rng, n, nr) for n, nr in shapes]

    def warmup_input(self):
        return self._scenario(_rng(self.name, self.seed, "warmup"), 3, 3)

    def _scenario(self, rng, n_fwd, n_rep):
        fwd, rep = _paths(rng, n_fwd, n_rep - 1)
        item = sim.WorkItem(
            sender=SENDER, path=fwd, receiver=RECEIVER, message=_text(rng),
            reply_path=rep + (SENDER,), reply_message=_text(rng),
        )
        return sim.Scenario(
            name="bench-roundtrip",
            relays=tuple(sorted(set(fwd + rep))),
            senders=(SENDER,),
            receivers=(RECEIVER,),
            workload=(item,),
            seed=rng.getrandbits(63),
        )

    def prepare(self, scenario):
        return scenario

    def hops(self, scenario):
        item = scenario.workload[0]
        return len(item.path) + len(item.reply_path)

    def run(self, scenario):
        return sim.run_scenario(scenario)

    def check(self, scenario, trace):
        reply = scenario.workload[0].reply_message.decode("ascii")
        got = any(e.get("kind") == "got-reply" and e.get("actor") == SENDER.decode()
                  and e.get("message") == reply for e in trace)
        return got and sim.traces_equivalent(trace, sim.run_ideal_scenario(scenario)[0])


class Relay:
    """Onions formed outside the timed region and pushed hop by hop through
    long-lived relay states until the exit delivers them."""

    name = "relay"

    def __init__(self, seed):
        self.seed = seed
        self.params = sim.default_params()
        grp = self.params.group
        keyrng = crypto.SeedRng(b"bench-relay-keys:%d" % seed)
        self.keys = {n: kem.kem_keygen(grp, keyrng.fork(n)) for n in POOL + (SENDER,)}
        self.relays = {n: node.RelayState(name=n, keypair=self.keys[n]) for n in POOL}
        self.ids_rng = crypto.SeedRng(b"bench-relay-ids:%d" % seed)

    def block(self, index):
        rng = _rng(self.name, self.seed, "block:%d" % index)
        shapes = [(n, rep) for n in range(1, MAX_HOPS + 1) for rep in (False, True)]
        rng.shuffle(shapes)
        return [self._spec(rng, n, rep) for n, rep in shapes]

    def warmup_input(self):
        return self._spec(_rng(self.name, self.seed, "warmup"), 3, True)

    def _spec(self, rng, n_fwd, repliable):
        fwd, rep = _paths(rng, n_fwd, rng.randint(0, 2) if repliable else 0)
        return packet.OnionSpec(
            seed=rng.randbytes(32),
            message=_text(rng),
            receiver=packet.receiver_addr(RECEIVER, self.params),
            path=self._keyed(fwd),
            reply_path=self._keyed(rep + (SENDER,)) if repliable else (),
        )

    def _keyed(self, names):
        return tuple((name, self.keys[name].pk) for name in names)

    def prepare(self, spec):
        return spec, packet.form_onion(1, spec, self.params)

    def hops(self, prepared):
        return len(prepared[0].path)

    def run(self, prepared):
        spec, onion = prepared
        prev, current = SENDER, spec.path[0][0]
        while True:
            state = self.relays[current]
            event = node.relay_on_onion(state, onion, prev, self.params, self.ids_rng)
            if event["kind"] == "dropped":
                return event
            _event, action = node.relay_forward(state, event["tid"], self.params, self.ids_rng)
            if not isinstance(action, node.SendOnion):
                return action
            prev, current, onion = current, action.next_hop, action.onion

    def check(self, prepared, action):
        spec = prepared[0]
        return (isinstance(action, node.SendMessage)
                and action.receiver == spec.receiver
                and action.message == spec.message
                and (action.rid is not None) == bool(spec.reply_path))

    def reply_buffer_entries(self):
        return sum(len(state.reply_buffer) for state in self.relays.values())


class Games:
    """One game per op from a rotation of every registered (game, adversary)
    pair plus one correctness trial, as ``rsor-sim game`` runs them."""

    name = "games"

    def __init__(self, seed):
        self.seed = seed
        self.rotation = sorted(
            (game, adversary) for adversary, (_cls, names, _kind) in games.ADVERSARIES.items()
            for game in names
        ) + [("correctness", None)]
        self.params = packet.FormatParams(group=group.PROD_GROUP)
        # The README's positive control runs the STI padding distinguisher
        # against the legacy zero filler.
        self.legacy = packet.FormatParams(group=group.PROD_GROUP, legacy_zero_filler=True)

    def block(self, index):
        rng = _rng(self.name, self.seed, "block:%d" % index)
        order = list(self.rotation)
        rng.shuffle(order)
        return [(game, adversary, rng.getrandbits(63)) for game, adversary in order]

    def warmup_input(self):
        return ("sti", "guessing", _rng(self.name, self.seed, "warmup").getrandbits(63))

    def prepare(self, item):
        return item

    def hops(self, item):
        return 0  # games peel single layers; no onion traverses a path

    def run(self, item):
        game, adversary, game_seed = item
        if game == "correctness":
            return games.game_correctness(1, game_seed, params=self.params)
        params = self.legacy if (game, adversary) == ("sti", "path-length-padding") else self.params
        return games.run_game_batch(game, adversary, 1, game_seed, params=params)

    def check(self, item, result):
        game, adversary, _seed = item
        if game == "correctness":
            return result["pass"]
        if (game, adversary) == ("sti", "path-length-padding"):
            return result["wins"] == 1
        # Negative controls are judged in batches, not per game, and the TLU
        # padding control is a documented expected failure.
        return True


WORKLOADS = {cls.name: cls for cls in (Roundtrip, Relay, Games)}
