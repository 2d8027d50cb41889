"""Golden files pinning wire bytes, scenario traces and game outcomes.

The files under tests/data/ were written by an earlier revision of the
code; these tests recompute every record with the current code and compare.
A failure means a refactor changed observable behaviour: onion bytes, the
deterministic simulator trace, the ideal world's env and adv traces, or some
registered adversary's (b, guess, transcript) in a security game or in the
KEM game.

Regenerate (only when a format change is intended) with
    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from rsor.crypto import SeedRng
from rsor.games import ADVERSARIES, GAMES, P_H, P_S, Submission, _BaseAdversary
from rsor.group import PROD_GROUP, SQR_GROUP
from rsor.kem import GuessingKemAdversary, WhiteBoxKemAdversary, kem_game_run, kem_keygen
from rsor.packet import FormatParams, OnionSpec, receiver_addr
from rsor.sim import (
    Rule,
    Scenario,
    WorkItem,
    baseline_scenario,
    run_ideal_scenario,
    run_scenario,
    scenario_nymserver_attack,
    two_senders_scenario,
    write_trace,
)

from vectors import onion_vector_lines

DATA = Path(__file__).resolve().parent / "data"
FILLERS = {"random": False, "zero": True}
GAME_SEEDS = range(10)


def _params(filler, group=PROD_GROUP):
    return FormatParams(group=group, legacy_zero_filler=FILLERS[filler])


def vector_lines(filler, group=PROD_GROUP):
    """Test vectors of one repliable spec with n = 3 and n_back = 2."""
    params = _params(filler, group)
    rng = SeedRng(b"golden-vectors")
    names = (b"r0", b"r1", b"r2", b"q0", b"sender")
    keys = {name: kem_keygen(params.group, rng.fork(name)).pk for name in names}
    spec = OnionSpec(
        seed=b"golden-spec-seed",
        message=b"golden message",
        receiver=receiver_addr(b"svc", params),
        path=tuple((name, keys[name]) for name in names[:3]),
        reply_path=tuple((name, keys[name]) for name in names[3:]),
    )
    return onion_vector_lines(spec, params)


def trace_lines(path):
    """The JSON-lines trace of the seeded baseline round trip."""
    with open(path, "w", encoding="ascii") as out:
        write_trace(out, run_scenario(baseline_scenario(seed=5)))
    return path.read_text(encoding="ascii").splitlines()


def adversarial_scenario():
    """Seed 5, relays a-e with a, c and e corrupted, one item per outcome:
    a repliable round trip, a delivery to an unknown receiver, a payload
    tagged on arrival at its corrupted exit (hop 2), a reply tagged on its
    last hop (the sender's diagnostic drop) and a drop at hop 2."""
    return Scenario(
        name="adversarial",
        relays=(b"a", b"b", b"c", b"d", b"e"),
        senders=(b"alice", b"bob"),
        receivers=(b"svc",),
        corrupted=(b"a", b"c", b"e"),
        workload=(
            WorkItem(b"alice", (b"a", b"b", b"c"), b"svc", b"ping",
                     reply_path=(b"d", b"e", b"alice"), reply_message=b"pong"),
            WorkItem(b"bob", (b"b", b"e"), b"ghost", b"to nobody"),
            WorkItem(b"bob", (b"b", b"c"), b"svc", b"tagged at exit"),
            WorkItem(b"alice", (b"a", b"b"), b"svc", b"hi",
                     reply_path=(b"d", b"alice"), reply_message=b"tagged reply"),
            WorkItem(b"bob", (b"d", b"a", b"b"), b"svc", b"dropped"),
        ),
        adversary=(Rule("tag", 2, 2), Rule("tag", 3, 4), Rule("drop", 4, 2)),
        seed=5,
    )


def ideal_trace_records():
    """(scenario, corrupted, rules, env, adv) of run_ideal_scenario for
    baseline and two-senders at seed 5: no corruption with no rule and with
    a tag at hop 1, each single relay or sender corrupted with no rule, and
    the first item's exit corrupted with a tag and with a drop at hop 1.
    Between them they reach every adversary leak the functionality has."""
    records = []
    for scenario in (baseline_scenario(5), two_senders_scenario(5)):
        exit_relay = scenario.workload[0].path[-1]
        runs = [((), ()), ((), (Rule("tag", 0, 1),))]
        runs += [((name,), ()) for name in scenario.relays + scenario.senders]
        runs += [((exit_relay,), (Rule(action, 0, 1),)) for action in ("tag", "drop")]
        for corrupted, rules in runs:
            env, adv = run_ideal_scenario(
                scenario._replace(corrupted=corrupted, adversary=rules))
            records.append([scenario.name, [name.decode() for name in corrupted],
                            [[r.action, r.item, r.hop] for r in rules], env, adv])
    return records


NYM_SEEDS = range(12)


def nymserver_records():
    """(seed, legacy, guess, result) for every NYM_SEEDS run of the nymserver
    attack, both flows and both guess rules."""
    return [[seed, legacy, guess, scenario_nymserver_attack(seed, legacy, guess)]
            for seed in NYM_SEEDS for legacy in (True, False)
            for guess in ("oracle", "uniform")]


def game_records(filler):
    """(game, adversary, seed, b, guess, transcript) for every registered
    pair and each seed in GAME_SEEDS."""
    params = _params(filler)
    records = []
    for adversary, (cls, games, _kind) in sorted(ADVERSARIES.items()):
        for game in games:
            for seed in GAME_SEEDS:
                rng = SeedRng(b"golden-game/%s/%s/%d" % (game.encode(), adversary.encode(), seed))
                out = GAMES[game](cls(rng.fork(b"adv")), seed, params=params)
                records.append([game, adversary, seed, out["b"], out["guess"],
                                [list(entry) for entry in out["transcript"]]])
    return records


KEM_SEEDS = range(4)
KEM_ADVERSARIES = (("guessing", GuessingKemAdversary, False),
                   ("white-box", WhiteBoxKemAdversary, True))


def _challenge_digest(alpha0, pre, challenge, post):
    """SHA-256 over what the KEM challenger hands on_challenge."""
    layers = lambda pairs: [[keys.hex(), b] for keys, b in pairs]
    alpha, keys, b = challenge
    handed = [alpha0, layers(pre), [alpha, keys.hex(), b], layers(post)]
    return hashlib.sha256(json.dumps(handed).encode("ascii")).hexdigest()


def _recording(adversary, digests):
    """Wrap adversary.on_challenge so each call also appends its digest."""
    on_challenge = adversary.on_challenge

    def record(*handed):
        digests.append(_challenge_digest(*handed))
        on_challenge(*handed)

    adversary.on_challenge = record
    return adversary


def kem_game_records():
    """(adversary, n, j, seed, b, guess, transcript, challenge digest) of
    kem_game_run for both KEM adversaries, the white-box one told the chain
    secret, at every n in 1..max_hops, every position j and each seed in
    KEM_SEEDS."""
    records = []
    for name, cls, reveal in KEM_ADVERSARIES:
        for n in range(1, 6):
            for j in range(n):
                for seed in KEM_SEEDS:
                    rng = SeedRng(b"golden-kem/%s/%d/%d/%d" % (name.encode(), n, j, seed))
                    digests = []
                    adversary = _recording(cls(rng.fork(b"adv"), n=n, j=j), digests)
                    out = kem_game_run(adversary, PROD_GROUP, rng.fork(b"game"),
                                       reveal_secret=reveal)
                    records.append([name, n, j, seed, out["b"], out["guess"],
                                    [list(entry) for entry in out["transcript"]]] + digests)
    return records


class OracleWalkAdversary(_BaseAdversary):
    """Walks the challenge through its own relays to the honest relay and
    drives the Proc and Reply oracles there: a first proc, a replayed proc,
    a reply, a second reply, then follows the answer to the honest sender,
    all through _BaseAdversary's relay, walk and exit_reply.  Every
    oracle answer is summarised in self.seen, so the golden file pins what
    the challenger answers in each world, not only the answer lengths.

    variant picks the honest relay's position: "tlu-mid" (j = 2 < n),
    "tlu-exit" (j = n), "slu-exit" (j_back = 0) and "slu-reply" (j_back = 1).
    """

    def __init__(self, rng, variant):
        super().__init__(rng)
        self.variant = variant
        self.seen = []

    def submit(self):
        x1, x2, x3 = (self.relay(name) for name in (b"x1", b"x2", b"x3"))
        path, reply_path, j, j_back = {
            "tlu-mid": ((x1, (P_H, None), x2), (x3, (P_S, None)), 2, None),
            "tlu-exit": ((x1, x2, (P_H, None)), (x3, (P_S, None)), 3, None),
            "slu-exit": ((x1, (P_H, None)), (x3, (P_S, None)), None, 0),
            "slu-reply": ((x1, x2), ((P_H, None), x3, (P_S, None)), None, 1),
        }[self.variant]
        return Submission(message=b"walk", receiver=b"svc", path=path,
                          reply_path=reply_path, j=j, j_back=j_back)

    def _note(self, out):
        def summary(part):
            # Names and messages are far shorter than an onion.
            if len(part) == self.params.onion_len:
                return hashlib.sha256(part).hexdigest()
            return part.decode("latin-1") if isinstance(part, bytes) else part

        self.seen.append(None if out is None else [summary(part) for part in out])
        return out

    # The adversary's own hops the challenge crosses before P_H (slu-reply:
    # before its own exit x2, which then answers toward P_H).
    PEEL = {"tlu-mid": [b"x1"], "tlu-exit": [b"x1", b"x2"],
            "slu-exit": [b"x1"], "slu-reply": [b"x1"]}

    def guess(self):
        onion = self.walk(self.challenge, self.PEEL[self.variant])
        if onion is not None and self.variant == "slu-reply":
            formed = self.exit_reply(onion, b"x2", b"walk-back")
            onion = formed[0] if formed else None
        if onion is None:
            return self.coin()
        first = self._note(self.oracles.proc(P_H, onion))
        self._note(self.oracles.proc(P_H, onion))
        back = self._note(self.oracles.reply(P_H, onion, b"answer"))
        self._note(self.oracles.reply(P_H, onion, b"again"))
        if self.variant != "tlu-mid":
            # A reply onion, or a forwarded reply layer, reaches P_S via x3.
            onward = back[1] if back else first[2] if first and first[0] == "forward" else None
            at_s = onward and self.walk(onward, [b"x3"])
            if at_s is not None:
                self._note(self.oracles.proc(P_S, at_s))
        return self.coin()


ORACLE_WALKS = {"tlu-mid": "tlu", "tlu-exit": "tlu", "slu-exit": "slu", "slu-reply": "slu"}


def oracle_walk_records(filler):
    """(game, variant, seed, b, guess, transcript, seen) for both forced bits
    of each seed in GAME_SEEDS."""
    params = _params(filler)
    records = []
    for variant, game in ORACLE_WALKS.items():
        for seed in GAME_SEEDS:
            for bit in (0, 1):
                adv = OracleWalkAdversary(SeedRng(b"walk/%s/%d" % (variant.encode(), seed)), variant)
                out = GAMES[game](adv, seed, params=params, force_b=bit)
                records.append([game, variant, seed, out["b"], out["guess"],
                                [list(entry) for entry in out["transcript"]], adv.seen])
    return records


def _read_lines(name):
    return (DATA / name).read_text(encoding="ascii").splitlines()


def test_onion_vectors_match_golden():
    for filler in FILLERS:
        assert vector_lines(filler) == _read_lines("vectors_%s_filler.txt" % filler)


def test_signed_group_onion_vectors_match_golden():
    for filler in FILLERS:
        assert vector_lines(filler, SQR_GROUP) == _read_lines("vectors_sqr_%s_filler.txt" % filler)


def test_baseline_trace_matches_golden(tmp_path):
    assert trace_lines(tmp_path / "trace.jsonl") == _read_lines("baseline_trace_seed5.jsonl")


def test_adversarial_trace_matches_golden(tmp_path):
    with open(tmp_path / "trace.jsonl", "w", encoding="ascii") as out:
        write_trace(out, run_scenario(adversarial_scenario()))
    assert (tmp_path / "trace.jsonl").read_text(encoding="ascii").splitlines() == \
        _read_lines("adversarial_trace_seed5.jsonl")


def test_ideal_traces_match_golden():
    golden = [json.loads(line) for line in _read_lines("ideal_traces.jsonl")]
    assert ideal_trace_records() == golden


def test_nymserver_attack_matches_golden():
    golden = [json.loads(line) for line in _read_lines("nymserver_attack.jsonl")]
    assert nymserver_records() == golden


def test_game_outcomes_match_golden():
    for filler in FILLERS:
        golden = [json.loads(line) for line in _read_lines("games_%s_filler.jsonl" % filler)]
        assert game_records(filler) == golden


def test_oracle_walks_match_golden():
    for filler in FILLERS:
        golden = [json.loads(line) for line in _read_lines("walks_%s_filler.jsonl" % filler)]
        assert oracle_walk_records(filler) == golden


def test_kem_games_match_golden():
    golden = [json.loads(line) for line in _read_lines("kem_games.jsonl")]
    assert kem_game_records() == golden


def _write_all():
    DATA.mkdir(exist_ok=True)
    for filler in FILLERS:
        (DATA / ("vectors_%s_filler.txt" % filler)).write_text(
            "\n".join(vector_lines(filler)) + "\n", encoding="ascii")
        (DATA / ("vectors_sqr_%s_filler.txt" % filler)).write_text(
            "\n".join(vector_lines(filler, SQR_GROUP)) + "\n", encoding="ascii")
        (DATA / ("games_%s_filler.jsonl" % filler)).write_text(
            "".join(json.dumps(r) + "\n" for r in game_records(filler)), encoding="ascii")
        (DATA / ("walks_%s_filler.jsonl" % filler)).write_text(
            "".join(json.dumps(r) + "\n" for r in oracle_walk_records(filler)), encoding="ascii")
    for name, scenario in (("baseline", baseline_scenario(seed=5)),
                           ("adversarial", adversarial_scenario())):
        with open(DATA / ("%s_trace_seed5.jsonl" % name), "w", encoding="ascii") as out:
            write_trace(out, run_scenario(scenario))
    (DATA / "ideal_traces.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in ideal_trace_records()),
        encoding="ascii")
    (DATA / "nymserver_attack.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in nymserver_records()), encoding="ascii")
    (DATA / "kem_games.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in kem_game_records()), encoding="ascii")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write_all()
