import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from rsor.crypto import SeedRng
from rsor.games import game_correctness, run_game_batch
from rsor.group import PROD_GROUP, SQR_GROUP
from rsor.kem import kem_keygen
from rsor.node import RelayState, SendOnion, relay_forward, relay_on_onion
from rsor.packet import (
    FormatParams,
    InMemoryView,
    OnionSpec,
    build_reply_onion,
    derive,
    proc_onion,
    receiver_addr,
)
from rsor.sim import (
    Nymserver,
    Rule,
    Scenario,
    WorkItem,
    _Network,
    attack_nymserver,
    attack_padding,
    attack_tagging,
    baseline_scenario,
    default_params,
    normalize_trace,
    parse_config,
    parse_count,
    parse_seed,
    run_ideal_scenario,
    run_scenario,
    scenario_nymserver_attack,
    scenario_tagging_linkage,
    scenario_zero_padding_leak,
    traces_equivalent,
    two_senders_scenario,
    write_trace,
)


def test_default_params_is_one_instance_unless_overridden():
    params = default_params()
    assert default_params() is params
    assert params == FormatParams(group=SQR_GROUP)
    for fields in ({"payload_len": 700}, {"legacy_zero_filler": True},
                   {"payload_len": params.payload_len}):
        other = default_params(**fields)
        assert other is not params and other is not default_params(**fields)
        assert other == FormatParams(group=SQR_GROUP, **fields)


def test_run_is_deterministic():
    t1 = run_scenario(baseline_scenario(seed=5))
    t2 = run_scenario(baseline_scenario(seed=5))
    assert t1 == t2
    t3 = run_scenario(baseline_scenario(seed=6))
    assert t1 != t3


def test_baseline_round_trip_events():
    trace = run_scenario(baseline_scenario(seed=1))
    kinds = [e["kind"] for e in trace]
    assert "message-received" in kinds
    assert kinds[-1] == "got-reply"
    got = [e for e in trace if e["kind"] == "got-reply"]
    assert got[0]["actor"] == "alice" and got[0]["message"] == "pong"


def test_two_senders_scenario():
    trace = run_scenario(two_senders_scenario(seed=2))
    received = [e for e in trace if e["kind"] == "message-received"]
    assert {e["message"] for e in received} == {"one", "two"}
    assert sum(e["kind"] == "got-reply" for e in trace) == 1


def test_time_fields_monotonic():
    trace = run_scenario(baseline_scenario(seed=3))
    assert [e["time"] for e in trace] == list(range(len(trace)))


def test_secure_links_are_opaque():
    trace = run_scenario(baseline_scenario(seed=4))
    links = [e for e in trace if e["kind"] == "link"]
    assert links
    for link in links:
        # A link event carries only endpoints and a constant marker.
        assert set(link) == {"kind", "src", "dst", "marker", "secure", "time"}
        assert link["marker"] == "onion"


def test_adversary_drop_rule_stops_onion():
    scenario = baseline_scenario(seed=7)
    scenario = scenario._replace(adversary=(Rule("drop", 0, 2),))
    trace = run_scenario(scenario)
    kinds = [e["kind"] for e in trace]
    assert "adv-drop" in kinds
    assert "message-received" not in kinds


def test_real_ideal_correspondence_baseline():
    scenario = baseline_scenario(seed=11)
    real = run_scenario(scenario)
    env, _adv = run_ideal_scenario(scenario)
    assert traces_equivalent(real, env)


def test_real_ideal_correspondence_with_tagging():
    scenario = baseline_scenario(seed=12)
    scenario = scenario._replace(adversary=(Rule("tag", 0, 2),))
    real = run_scenario(scenario)
    env, _adv = run_ideal_scenario(scenario)
    assert traces_equivalent(real, env)
    assert ("dropped", "c", "integrity") in normalize_trace(real)


def test_real_ideal_correspondence_two_senders():
    # Each item's ideal run starts at its own events, not at the first item's.
    for seed in range(3):
        scenario = two_senders_scenario(seed=seed)
        env, _adv = run_ideal_scenario(scenario)
        assert traces_equivalent(run_scenario(scenario), env)


def _with_rules(scenario, *rules):
    return scenario._replace(adversary=rules)


@pytest.mark.parametrize("scenario", [
    *(_with_rules(baseline_scenario(seed=3), Rule(action, 0, hop))
      for action in ("drop", "tag") for hop in range(1, 8)),
    _with_rules(two_senders_scenario(seed=1), Rule("drop", 1, 2), Rule("tag", 0, 3)),
], ids=lambda s: "%s-%s" % (s.name, "-".join("%s%d.%d" % (r.action, r.item, r.hop)
                                              for r in s.adversary)))
def test_real_ideal_correspondence_under_drop_and_tag_rules(scenario):
    env, _adv = run_ideal_scenario(scenario)
    assert traces_equivalent(run_scenario(scenario), env)


def test_real_ideal_correspondence_unknown_receiver():
    scenario = Scenario(
        name="ghost", relays=(b"a", b"b", b"c"), senders=(b"alice",), receivers=(b"svc",),
        workload=(
            WorkItem(b"alice", (b"a", b"b"), b"ghost", b"boo",
                     reply_path=(b"c", b"alice"), reply_message=b"who"),
            WorkItem(b"alice", (b"b", b"a"), b"ghost", b"boo-2"),
        ),
        seed=8,
    )
    real = run_scenario(scenario)
    assert [e["receiver"] for e in real if e["kind"] == "adv-drop-receiverless"] == \
        ["ghost", "ghost"]
    env, _adv = run_ideal_scenario(scenario)
    assert traces_equivalent(real, env)


def test_real_ideal_correspondence_with_names_that_are_not_utf8():
    """b"\\xff" and b"\\xfe" render alike in trace text; both worlds still run
    on the parties' own names, so the ideal round trip completes."""
    scenario = Scenario(
        name="not-utf8", relays=(b"\xff", b"\xfe", b"c", b"d", b"e"),
        senders=(b"alice",), receivers=(b"svc",),
        workload=(WorkItem(b"alice", (b"\xff", b"\xfe", b"c"), b"svc", b"ping",
                           reply_path=(b"d", b"e", b"alice"), reply_message=b"pong"),),
        seed=3,
    )
    env, _adv = run_ideal_scenario(scenario)
    assert ("got-reply", "alice", "pong") in normalize_trace(env)
    assert traces_equivalent(run_scenario(scenario), env)


def _deliveries(trace):
    """Who got which message or reply in one world's trace."""
    return sorted((e["kind"], e["actor"], e["message"]) for e in trace
                  if e["kind"] in ("message-received", "got-reply"))


def test_both_worlds_deliver_alike_under_corruption_and_single_rules():
    """With at most two parties corrupted, none of them a repliable item's
    exit or sender (run_ideal_scenario plays neither), both worlds deliver
    the same messages and replies under no rule and under every single drop
    or tag rule at hops 1-7 of any item."""
    for make, seed in itertools.product((baseline_scenario, two_senders_scenario), range(2)):
        scenario = make(seed)
        unplayed = {party for item in scenario.workload if item.reply_path
                    for party in (item.path[-1], item.sender)}
        parties = [p for p in scenario.relays + scenario.senders if p not in unplayed]
        rules = [()] + [(Rule(action, idx, hop),) for idx in range(len(scenario.workload))
                        for action in ("drop", "tag") for hop in range(1, 8)]
        for k in range(3):
            for corrupted, rule in itertools.product(itertools.combinations(parties, k), rules):
                case = scenario._replace(corrupted=corrupted, adversary=rule)
                env, _adv = run_ideal_scenario(case)
                assert _deliveries(run_scenario(case)) == _deliveries(env), (corrupted, rule)


def test_normalize_skips_diagnostics():
    trace = [
        {"kind": "dropped", "actor": "alice", "reason": "integrity", "diagnostic": True},
        {"kind": "forwarded", "actor": "a"},
    ]
    assert normalize_trace(trace) == [("forwarded", "a")]


def test_write_trace_json_lines(tmp_path):
    trace = run_scenario(baseline_scenario(seed=13))
    path = tmp_path / "trace.jsonl"
    with open(path, "w", encoding="ascii") as out:
        write_trace(out, trace)
    lines = path.read_text().splitlines()
    assert len(lines) == len(trace)
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["time"] == 0


def test_tagging_linkage_single_run():
    result = scenario_tagging_linkage(0, tag=True)
    assert result["linked"]
    assert not result["tagged_message_delivered"]


def test_tagging_attack_rates():
    assert attack_tagging(trials=20, seed=1)["success_rate"] == 1.0
    untagged = attack_tagging(trials=40, seed=2, tag=False)["success_rate"]
    assert 0.3 <= untagged <= 0.7


def test_nymserver_attack_legacy_vs_adapted():
    legacy = scenario_nymserver_attack(3, legacy=True)
    assert legacy["expressible"] and legacy["attack_succeeds"]
    adapted = scenario_nymserver_attack(3, legacy=False)
    assert not adapted["expressible"] and not adapted["attack_succeeds"]


def test_nymserver_reply_round_trip_when_not_dropped():
    result = scenario_nymserver_attack(4, legacy=True, guess="uniform")
    if not result["dropped_registration"]:
        assert result["reply_round_trip"]
        assert not result["attack_succeeds"]


# A nymserver and the genuine reply block of a one-hop spec.
_NYM_BLOCK = """
from rsor.crypto import SeedRng
from rsor.kem import kem_keygen
from rsor.packet import OnionSpec, derive, receiver_addr
from rsor.sim import Nymserver, default_params

params = default_params(payload_len=700)
pks = [kem_keygen(params.group, SeedRng(b"nym-k%d" % i)).pk for i in range(2)]
spec = OnionSpec(seed=b"nym-block", message=b"m", receiver=receiver_addr(b"svc", params),
                 path=((b"r0", pks[0]),), reply_path=((b"sender", pks[1]),))
block = derive(spec, params).reply_block
nymserver = Nymserver(params)
"""

# Registers reply blocks one byte short, one byte long and far too short,
# then the genuine block; only the genuine one may register.
_WRONG_WIDTH_REGISTRATIONS = _NYM_BLOCK + """
for registered in (block[:-1], block + b"\\x00", b"short", block):
    nymserver.register(b"12345678", registered)
kinds = [event["kind"] for event in nymserver.events]
"""

# Registers the genuine block as a str of its width, a bytearray and a
# memoryview, then as bytes: only exact bytes may register, and the table
# then holds exact bytes, not a caller's mutable object.
_NON_BYTES_REGISTRATIONS = _NYM_BLOCK + """
for registered in (block.decode("latin-1"), bytearray(block), memoryview(block), block):
    nymserver.register(b"12345678", registered)
kinds = [event["kind"] for event in nymserver.events]
held = type(nymserver.table[b"12345678"]).__name__
"""


def _run_under_python_O(script):
    """script's stdout under python -O, which must strip its asserts."""
    script = 'assert False, "asserts must be stripped"\n' + script
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_nymserver_refuses_reply_blocks_of_the_wrong_width():
    namespace = {}
    exec(_WRONG_WIDTH_REGISTRATIONS, namespace)
    assert namespace["kinds"] == ["nym-bad-registration"] * 3 + ["nym-registered"]


def test_nymserver_refuses_reply_blocks_of_the_wrong_width_under_python_O():
    # The width check must not be an assert, which python -O strips.
    out = _run_under_python_O(_WRONG_WIDTH_REGISTRATIONS + "print(kinds)")
    assert out == repr(["nym-bad-registration"] * 3 + ["nym-registered"])


def test_nymserver_refuses_reply_blocks_that_are_not_bytes():
    namespace = {}
    exec(_NON_BYTES_REGISTRATIONS, namespace)
    assert namespace["kinds"] == ["nym-bad-registration"] * 3 + ["nym-registered"]
    assert namespace["held"] == "bytes"


def test_nymserver_refuses_reply_blocks_that_are_not_bytes_under_python_O():
    out = _run_under_python_O(_NON_BYTES_REGISTRATIONS + "print(kinds, held)")
    assert out == "%r bytes" % (["nym-bad-registration"] * 3 + ["nym-registered"])


def test_every_holder_keeps_the_reply_block_derive_wrote():
    # The exit's peel, the relay's rid buffer and a nym's table entry all
    # hold the one block, as exact bytes, and each answers like derive's
    # own reply layer.
    params = default_params()
    rng = SeedRng(b"block-holders")
    names = (b"r0", b"r1", b"q0", b"sender")
    keys = {name: kem_keygen(params.group, rng.fork(name)) for name in names}
    spec = OnionSpec(seed=b"block-holders", message=b"m", receiver=receiver_addr(b"svc", params),
                     path=tuple((n, keys[n].pk) for n in names[:2]),
                     reply_path=tuple((n, keys[n].pk) for n in names[2:]))
    d = derive(spec, params)
    n = len(spec.path)
    exit_name = spec.path[-1][0]
    peeled = proc_onion(keys[exit_name].sk, d.onion(n), exit_name, params, InMemoryView())
    relay, ids = RelayState(exit_name, keys[exit_name]), rng.fork(b"ids")
    event = relay_on_onion(relay, d.onion(n), b"r0", params, ids)
    _event, delivery = relay_forward(relay, event["tid"], params, ids)
    nymserver = Nymserver(params)
    nymserver.register(b"12345678", d.reply_block)
    holders = (peeled.reply_block, relay.reply_buffer[delivery.rid],
               nymserver.table[b"12345678"])
    for block in holders:
        assert type(block) is bytes and block == d.reply_block
        assert build_reply_onion(block, spec.message, params)[0] == d.onion(n + 1)


def test_padding_attack_rates():
    assert attack_padding(trials=20, seed=5, legacy=True)["success_rate"] == 1.0
    fixed = attack_padding(trials=40, seed=6, legacy=False)["success_rate"]
    assert 0.3 <= fixed <= 0.7


def test_padding_single_run_fields():
    result = scenario_zero_padding_leak(9, legacy=True)
    assert result["path_length_recovered"]
    assert result["true_length"] in (2, 5)


def test_parse_config_round_trip():
    text = """
    # demo scenario
    name = demo
    relays = a, b, c
    senders = alice
    receivers = svc
    corrupted = c
    seed = 42
    onion = alice | a, b | svc | hello | c, alice | world
    """
    scenario = parse_config(text)
    assert scenario.name == "demo"
    assert scenario.relays == (b"a", b"b", b"c")
    assert scenario.corrupted == (b"c",)
    assert scenario.seed == 42
    item = scenario.workload[0]
    assert item.path == (b"a", b"b")
    assert item.reply_path == (b"c", b"alice")
    assert item.reply_message == b"world"
    trace = run_scenario(scenario)
    assert any(e["kind"] == "got-reply" for e in trace)


def test_parse_config_rejects_garbage():
    with pytest.raises(ValueError):
        parse_config("what even is this")
    with pytest.raises(ValueError):
        parse_config("onion = too | few")
    with pytest.raises(ValueError):
        parse_config("mystery = 1")


@pytest.mark.parametrize("onion, named", [
    ("bob | a, b | svc | hi", "'bob'"),
    ("alice | a, z | svc | hi", "'z'"),
    ("alice | a, b | svc | hi | z, alice | ho", "'z'"),
    ("alice | a, b | svc | hi | c, b | ho", "'b'"),
])
def test_parse_config_rejects_unknown_parties(onion, named):
    with pytest.raises(ValueError, match=named):
        parse_config("relays = a, b, c\nsenders = alice\nonion = " + onion)


LONG = "n" * 16  # one byte more than an address field holds after its tag


@pytest.mark.parametrize("config", [
    "relays = a\nsenders = alice\nonion = alice | a | %s | hi" % LONG,
    "relays = a, %s\nsenders = alice\nonion = alice | a | svc | hi | %s, alice | ho"
    % (LONG, LONG),
    "relays = a\nsenders = %s\nonion = %s | a | svc | hi | a, %s | ho" % (LONG, LONG, LONG),
    "relays = a\nsenders = alice\nreceivers = %s" % LONG,
])
def test_parse_config_rejects_names_too_long_for_an_address(config):
    with pytest.raises(ValueError, match=LONG):
        parse_config(config)
    # One byte shorter fits, and the scenario runs.
    run_scenario(parse_config(config.replace(LONG, LONG[:-1])))


@pytest.mark.parametrize("item, named", [
    (WorkItem(b"bob", (b"a", b"b"), b"svc", b"hi"), "'bob'"),
    (WorkItem(b"alice", (b"a", b"z"), b"svc", b"hi"), "'z'"),
    (WorkItem(b"alice", (b"a",), b"svc", b"hi", (b"z", b"alice"), b"ho"), "'z'"),
    (WorkItem(b"alice", (b"a",), b"svc", b"hi", (b"c", b"b"), b"ho"), "'b'"),
    (WorkItem(b"alice", (b"a",), b"svc", b"hi", (b"c", b"alice"), b"m" * 65), "reply message"),
    (WorkItem(b"alice", (b"a", b"alice"), b"svc", b"hi"), "'alice' is both"),
])
def test_both_worlds_refuse_what_parse_config_refuses(item, named):
    relays = (b"a", b"b", b"c") + ((b"alice",) if b"alice" in item.path else ())
    scenario = Scenario(name="built", relays=relays, senders=(b"alice",),
                        receivers=(b"svc",), workload=(item,))
    for run in (run_scenario, run_ideal_scenario):
        with pytest.raises(ValueError, match=named):
            run(scenario)


@pytest.mark.parametrize("change, named", [
    ({"corrupted": (b"\xff",)}, "is not in relays or senders"),
    ({"workload": (WorkItem(b"\xfe", (b"a",), b"svc", b"hi"),)}, "onion sender"),
    ({"workload": (WorkItem(b"alice", (b"\xfd",), b"svc", b"hi"),)}, "onion relay"),
    ({"relays": (b"a", b"\xff"), "senders": (b"alice", b"\xff")}, "is both a relay"),
    ({"workload": (WorkItem(b"alice", (b"a",), b"svc", b"hi", (b"a", b"\xfc"), b"ho"),)},
     "not at its sender"),
], ids=["corrupted", "sender", "relay", "both", "reply-end"])
def test_both_worlds_name_the_problem_for_names_that_are_not_utf8(change, named):
    scenario = Scenario(name="built", relays=(b"a",), senders=(b"alice",), receivers=(b"svc",),
                        workload=(WorkItem(b"alice", (b"a",), b"svc", b"hi"),))._replace(**change)
    for run in (run_scenario, run_ideal_scenario):
        with pytest.raises(ValueError, match=named) as raised:
            run(scenario)
        assert raised.type is ValueError  # not a UnicodeDecodeError


@pytest.mark.parametrize("declared", ["relays", "senders", "receivers"])
def test_both_worlds_refuse_a_declared_name_too_long_for_an_address(declared):
    scenario = baseline_scenario(seed=1)
    names = getattr(scenario, declared) + (LONG.encode(),)
    scenario = scenario._replace(**{declared: names})
    for run in (run_scenario, run_ideal_scenario):
        with pytest.raises(ValueError, match=LONG):
            run(scenario)


def _str_relay(scenario):
    item = scenario.workload[0]
    return scenario._replace(relays=("a",) + scenario.relays[1:],
                             workload=(item._replace(path=("a",) + item.path[1:]),))


def _str_item_field(**fields):
    return lambda s: s._replace(workload=(s.workload[0]._replace(**fields),))


@pytest.mark.parametrize("change, named", [
    (_str_item_field(receiver="svc"), "'svc' is not bytes"),
    (_str_relay, "'a' is not bytes"),
    (_str_item_field(reply_message="pong"), "reply message must be bytes"),
], ids=["receiver", "relay", "reply-message"])
def test_both_worlds_refuse_a_str_name_or_reply_message(change, named):
    # The real world needs exact bytes in an address field and the payload
    # frame, where the ideal world would run a str through.
    scenario = change(baseline_scenario(seed=1))
    for run in (run_scenario, run_ideal_scenario):
        with pytest.raises(ValueError, match=named):
            run(scenario)


@pytest.mark.parametrize("corrupted", [b"zz", b"svc"])
def test_every_entry_point_refuses_an_undeclared_corrupted_name(corrupted):
    """Only a declared relay or sender can be corrupted: the real world
    ignores any other corrupted name."""
    named = "corrupted '%s'" % corrupted.decode()
    with pytest.raises(ValueError, match=named):
        parse_config("relays = a, b\nsenders = alice\nreceivers = svc\n"
                     "corrupted = %s\nonion = alice | a, b | svc | hi" % corrupted.decode())
    scenario = baseline_scenario(seed=1)._replace(corrupted=(b"b", corrupted))
    for run in (run_scenario, run_ideal_scenario):
        with pytest.raises(ValueError, match=named):
            run(scenario)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_int_seeds_raise_value_error(seed):
    with pytest.raises(ValueError, match="seed"):
        run_scenario(baseline_scenario(seed=seed))
    with pytest.raises(ValueError, match="seed"):
        game_correctness(1, seed)
    with pytest.raises(ValueError, match="seed"):
        run_game_batch("tlu", "guessing", 1, seed)
    with pytest.raises(ValueError, match="seed"):
        attack_tagging(1, seed)
    with pytest.raises(ValueError, match="seed"):
        parse_seed(str(seed))


@pytest.mark.parametrize("count", [0, -1])
def test_counts_below_one_raise_value_error(count):
    for attack in (attack_tagging, attack_nymserver, attack_padding):
        with pytest.raises(ValueError, match="count"):
            attack(count, 0)
    with pytest.raises(ValueError, match="count"):
        run_game_batch("tlu", "guessing", count, 0)
    with pytest.raises(ValueError, match="count"):
        game_correctness(count, 0)
    with pytest.raises(ValueError, match="count"):
        parse_count(str(count))
    assert parse_count("1") == 1


def test_parse_config_allows_unknown_receiver():
    scenario = parse_config("relays = a\nsenders = alice\nonion = alice | a | ghost | hi")
    assert scenario.workload[0].receiver == b"ghost"


def test_empty_scenario_lint_clean():
    empty = Scenario(name="empty", relays=(), senders=(), receivers=(), workload=())
    assert run_scenario(empty) == []


# ---------------------------------------------------------------------------
# Hostile bytes on a link: whatever arrives, the receiving party logs one
# closing event and nothing raises.

FUZZ_SCENARIO = Scenario(name="fuzz", relays=(b"r0", b"r1"), senders=(b"alice",),
                         receivers=(b"svc",), workload=())
DROP_REASONS = {"bad-width", "bad-element", "mac", "replay", "integrity", "unsolicited",
                "misdirected", "bad-address"}


def _link_target(group):
    """(params, derived, layers): a one-hop onion whose exit r0 can reply
    over r1 to alice, with the layer r0 peels and the reply alice awaits."""
    params = FormatParams(group=group)
    keys = _Network(FUZZ_SCENARIO, params, SeedRng(b"link-fuzz")).keys
    spec = OnionSpec(seed=b"link-fuzz", message=b"m", receiver=receiver_addr(b"svc", params),
                     path=((b"r0", keys[b"r0"].pk),),
                     reply_path=((b"r1", keys[b"r1"].pk), (b"alice", keys[b"alice"].pk)))
    d = derive(spec, params)
    return params, d, {b"r0": d.onion(1), b"alice": d.onion(3)}


LINK_TARGETS = {group.name: _link_target(group) for group in (PROD_GROUP, SQR_GROUP)}
_ONION_LEN = FormatParams(group=PROD_GROUP).onion_len
_HEADER_LEN = FormatParams(group=PROD_GROUP).header_len
_BETA_AT, _GAMMA_AT = PROD_GROUP.elem_len, _HEADER_LEN - 16
# Byte spans of alpha, beta, gamma and the payload; both groups share them.
_FIELDS = [(0, _BETA_AT), (_BETA_AT, _GAMMA_AT), (_GAMMA_AT, _HEADER_LEN),
           (_HEADER_LEN, _ONION_LEN)]


@st.composite
def _link_input(draw):
    """(group name, party, what arrives): random bytes of 0 to twice the
    onion's width, the party's own layer as a bytearray or a str, or that
    layer with one bit flipped in alpha, beta, gamma or the payload."""
    group = draw(st.sampled_from(sorted(LINK_TARGETS)))
    party = draw(st.sampled_from([b"r0", b"alice"]))
    layer = LINK_TARGETS[group][2][party]
    kind = draw(st.sampled_from(["random", "bytearray", "str", "flip"]))
    if kind == "random":
        return group, party, draw(st.binary(max_size=2 * _ONION_LEN))
    if kind == "bytearray":
        return group, party, bytearray(layer)
    if kind == "str":
        return group, party, layer.decode("latin-1")
    start, stop = draw(st.sampled_from(_FIELDS))
    bit = draw(st.integers(8 * start, 8 * stop - 1))
    flipped = bytearray(layer)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return group, party, bytes(flipped)


@settings(max_examples=200, deadline=None)
@given(_link_input())
@example(("sqr", b"r0", LINK_TARGETS["sqr"][2][b"r0"]))
@example(("sqr", b"alice", LINK_TARGETS["sqr"][2][b"alice"]))
def test_run_onion_logs_a_closing_event_for_any_bytes(case):
    group, party, data = case
    params, d, layers = LINK_TARGETS[group]
    # A fresh network each time, with the same keys: alice awaits her reply.
    net = _Network(FUZZ_SCENARIO, params, SeedRng(b"link-fuzz"))
    net.senders[b"alice"].view.expect_reply(d.opening)
    net.run_onion(0, b"r1" if party == b"alice" else b"alice", SendOnion(party, data))
    last = net.events[-1]
    if type(data) is bytes and data == layers[party]:
        assert last["kind"] == ("got-reply" if party == b"alice" else "message-received")
    else:
        assert last["kind"] == "dropped" and last["actor"] == party
    assert {e["reason"] for e in net.events if e["kind"] == "dropped"} <= DROP_REASONS
