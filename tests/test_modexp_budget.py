"""Group membership is checked once, where untrusted values enter, and each
party processes an onion once.  These tests pin the modexp cost of that, the
LIONESS cost of a round trip, the cipher passes and hashes of a forward hop,
and the behaviour that must survive them: range errors, replay refusal, rid
use."""

import hashlib
import os
import subprocess
import sys
import textwrap

import pytest

import rsor.crypto
import rsor.group as group_module
import rsor.packet
from rsor import sim
from rsor.crypto import SeedRng
from rsor.games import GameOracles
from rsor.group import PROD_GROUP, GroupParams
from rsor.kem import GuessingKemAdversary, kem_game_run, kem_keygen
from rsor.node import (
    RelayState,
    SenderState,
    SendMessage,
    relay_forward,
    relay_on_onion,
    relay_on_receiver_reply,
    sender_on_onion,
    sender_send,
)
from rsor.packet import (
    FormatParams,
    InMemoryView,
    OnionSpec,
    derive,
    form_onion,
    proc_onion,
    receiver_addr,
    recognize_onion,
)

PARAMS = FormatParams(group=PROD_GROUP)


def _spec(n, nr, seed=b"budget-spec"):
    rng = SeedRng(seed)
    names = [b"r%d" % i for i in range(n)]
    rnames = [b"q%d" % i for i in range(nr - 1)] + ([b"sender"] if nr else [])
    keys = {name: kem_keygen(PROD_GROUP, rng.fork(name)) for name in names + rnames}
    spec = OnionSpec(
        seed=seed,
        message=b"budget",
        receiver=receiver_addr(b"svc", PARAMS),
        path=tuple((name, keys[name].pk) for name in names),
        reply_path=tuple((name, keys[name].pk) for name in rnames),
    )
    return spec, keys


@pytest.fixture
def counts(monkeypatch):
    """Count GroupParams.base, GroupParams.exp and GroupParams.is_element calls."""
    tally = {"base": 0, "exp": 0, "is_element": 0}
    for method in tally:
        original = getattr(GroupParams, method)

        def counted(self, *args, _original=original, _method=method):
            tally[_method] += 1
            return _original(self, *args)

        monkeypatch.setattr(GroupParams, method, counted)
    return tally


@pytest.fixture
def wire_counts(monkeypatch):
    """Count GroupParams.encode and GroupParams.decode calls and the header
    encodings packet.serialize_header makes."""
    tally = {"encode": 0, "decode": 0, "serialize_header": 0}
    for owner, name in ((GroupParams, "encode"), (GroupParams, "decode"),
                        (rsor.packet, "serialize_header")):

        def counted(*args, _original=getattr(owner, name), _name=name):
            tally[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    return tally


@pytest.fixture
def cipher_and_hash_counts(monkeypatch):
    """Count crypto._aes_ctr and hashlib.sha256 calls by the name of the
    function that made them; a SeedRng's key hash, made in __init__ or in
    fork, counts as "SeedRng"."""
    tally = {"_aes_ctr": {}, "sha256": {}}

    def counting(name, original):
        def counted(*args):
            caller = sys._getframe(1).f_code.co_name
            if caller in ("__init__", "fork"):
                caller = "SeedRng"
            tally[name][caller] = tally[name].get(caller, 0) + 1
            return original(*args)
        return counted

    monkeypatch.setattr(rsor.crypto, "_aes_ctr", counting("_aes_ctr", rsor.crypto._aes_ctr))
    monkeypatch.setattr(hashlib, "sha256", counting("sha256", hashlib.sha256))
    return tally


def test_sender_derive_kernel_budget(counts, cipher_and_hash_counts):
    spec, _keys = _spec(3, 3)
    counts.update(base=0, exp=0, is_element=0)
    for tally in cipher_and_hash_counts.values():
        tally.clear()
    derive(spec, PARAMS)
    # Per layer of both trips, alpha (base) and s (exp); kem_keygen made
    # every hop key, so none is tested for membership.
    assert counts == {"base": 6, "exp": 6, "is_element": 0}
    # One keystream per header layer, two stream rounds per forward payload
    # layer, and one keystream chunk for each of the six SeedRng forks that
    # are read (x and filler per trip, ident and k-tilde); the root stream
    # is only forked.
    assert cipher_and_hash_counts["_aes_ctr"] == {"prg_xor": 6, "prp_enc": 6, "read": 6}
    # The four oracles of each of the six KEM layers, the seven SeedRng
    # keys, a two-hash HMAC per header MAC and two per LIONESS call, and
    # LIONESS's four round keys.
    sha256 = cipher_and_hash_counts["sha256"]
    assert sha256 == {"_h_b": 6, "_h_sym": 18, "SeedRng": 7, "_hmac_sha256": 24,
                      "_prp_subkeys": 12}
    assert sum(sha256.values()) == 67


def test_forward_hop_costs_three_modexps(counts):
    spec, keys = _spec(3, 0)
    onion = form_onion(2, spec, PARAMS)
    counts.update(base=0, exp=0, is_element=0)
    result = proc_onion(keys[b"r1"].sk, onion, b"r1", PARAMS, InMemoryView())
    assert result.kind == "forward"
    # alpha in G, then alpha^sk (decap) and alpha^b (blind).
    assert counts == {"base": 0, "exp": 2, "is_element": 1}


def test_relay_hop_decodes_its_alpha_and_encodes_only_the_next(wire_counts):
    spec, keys = _spec(3, 0)
    state = RelayState(name=b"r1", keypair=keys[b"r1"])
    ids = SeedRng(b"wire-ids")
    onion, expected = form_onion(2, spec, PARAMS), form_onion(3, spec, PARAMS)
    wire_counts.update(encode=0, decode=0, serialize_header=0)
    event = relay_on_onion(state, onion, b"r0", PARAMS, ids)
    _event, action = relay_forward(state, event["tid"], PARAMS, ids)
    assert action.onion == expected
    # The replay tag hashes the header bytes as they arrived: the alpha
    # field is decoded once, for the membership test.  Decap's random
    # oracles encode alpha and s, and the blinded alpha is encoded into
    # the next layer.
    assert wire_counts == {"encode": 3, "decode": 1, "serialize_header": 0}


def test_game_proc_tests_a_forward_layer_for_membership_once(counts):
    spec, keys = _spec(3, 0)
    oracles = GameOracles(PARAMS, {b"r1": keys[b"r1"]})
    data, expected = form_onion(2, spec, PARAMS), form_onion(3, spec, PARAMS)
    counts.update(base=0, exp=0, is_element=0)
    assert oracles.proc(b"r1", data) == ("forward", b"r2", expected)
    # The oracle parses nothing: proc_onion's decode is the one membership
    # test, then decap and blind.
    assert counts == {"base": 0, "exp": 2, "is_element": 1}


def test_forward_hop_runs_one_cipher_pass_per_stream(monkeypatch):
    spec, keys = _spec(3, 0)
    onion = form_onion(2, spec, PARAMS)
    tally = {"prg": 0, "_aes_ctr": 0}
    for module, name in ((rsor.crypto, "prg"), (rsor.packet, "prg"), (rsor.crypto, "_aes_ctr")):

        def counted(*args, _original=getattr(module, name), _name=name):
            tally[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    result = proc_onion(keys[b"r1"].sk, onion, b"r1", PARAMS, InMemoryView())
    # The header peel and LIONESS's two stream rounds each run CTR over the
    # data: no keystream of zeros is made.
    assert tally == {"prg": 0, "_aes_ctr": 3}
    monkeypatch.undo()
    assert result.next_onion == form_onion(3, spec, PARAMS)


def test_forward_hop_makes_fifteen_sha256_calls(monkeypatch):
    spec, keys = _spec(3, 0)
    onion = form_onion(2, spec, PARAMS)
    tally = {}
    original = hashlib.sha256

    def counted(*args):
        caller = sys._getframe(1).f_code.co_name
        tally[caller] = tally.get(caller, 0) + 1
        return original(*args)

    monkeypatch.setattr(hashlib, "sha256", counted)
    result = proc_onion(keys[b"r1"].sk, onion, b"r1", PARAMS, InMemoryView())
    monkeypatch.undo()
    assert result.kind == "forward"
    # The KEM layer's four oracles, the replay tag, LIONESS's four round
    # keys, and two HMACs of two hashes each in LIONESS and one in the MAC.
    assert tally == {"_h_b": 1, "_h_sym": 3, "_hmac_sha256": 6, "_tag": 1, "_prp_subkeys": 4}
    assert sum(tally.values()) == 15


def test_sixteen_relay_hops_draw_their_tids_from_one_keystream_chunk(monkeypatch):
    spec, keys = _spec(2, 0)
    onions = [form_onion(1, spec._replace(seed=b"tid-budget/%d" % i), PARAMS)
              for i in range(16)]
    relay = RelayState(name=b"r0", keypair=keys[b"r0"])
    rng = SeedRng(b"tid-budget-ids")
    calls = []
    original = rsor.crypto._aes_ctr
    monkeypatch.setattr(rsor.crypto, "_aes_ctr", lambda *args: calls.append(1) or original(*args))
    for onion in onions:
        event = relay_on_onion(relay, onion, b"sender", PARAMS, rng)
        _event, action = relay_forward(relay, event["tid"], PARAMS, rng)
        assert action.next_hop == b"r1"
    # Three cipher passes per peel; the sixteen 16-byte tids share one chunk.
    assert len(calls) <= 3 * 16 + 1


def test_derive_checks_each_hop_key_once(counts):
    spec, _keys = _spec(5, 0)
    counts.update(base=0, exp=0, is_element=0)
    derive(spec, PARAMS)
    # kem_keygen recorded these keys as members, so validate_spec tests
    # none of them; the chain then costs alpha (base: g to a power, from
    # the fixed-base table) and s (exp, a modexp in libcrypto) per hop.
    assert counts == {"base": 5, "exp": 5, "is_element": 0}

    # Keys made outside kem_keygen are tested on the first derive only.
    rng = SeedRng(b"derive-checks-each-hop-key-once")
    foreign = tuple((name, PROD_GROUP.exp(PROD_GROUP.g, PROD_GROUP.random_scalar(rng.fork(name))))
                    for name, _pk in spec.path[2:])
    spec = spec._replace(path=spec.path[:2] + foreign)
    for tests in (3, 0):
        counts.update(base=0, exp=0, is_element=0)
        derive(spec, PARAMS)
        assert counts == {"base": 5, "exp": 5, "is_element": tests}


def test_keygen_costs_one_fixed_base_power(counts):
    kem_keygen(PROD_GROUP, SeedRng(b"keygen-budget"))
    assert counts == {"base": 1, "exp": 0, "is_element": 0}


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("bit", [0, 1])
def test_kem_game_costs_one_chain(counts, n, bit):
    # Keygen and the adversary's n - 1 keys are one base power each, the
    # challenge chain one base and one exp power per position, whichever
    # bit was drawn; the submitted keys came from kem_keygen, so none is
    # tested for membership.
    for seed in range(64):
        counts.update(base=0, exp=0, is_element=0)
        adversary = GuessingKemAdversary(SeedRng(b"kem-budget"), n=n, j=n // 2)
        if kem_game_run(adversary, PROD_GROUP, SeedRng(b"kem-budget/%d" % seed))["b"] == bit:
            break
    else:
        pytest.fail("no seed drew bit %d" % bit)
    assert counts == {"base": 2 * n, "exp": n, "is_element": 0}


def test_baseline_round_trip_group_budget(counts):
    # 6 keygens (base) and two 3-hop chains (base and exp per hop).  Each
    # of the 5 relay hops tests its alpha and decapsulates, the 4 that
    # forward also blind, and the exit decodes the embedded reply header.
    # The sender's own reply hop matches the header it expects and makes no
    # group operation.  No hop key is tested: kem_keygen recorded every one.
    sim.run_scenario(sim.baseline_scenario(0))
    assert counts == {"base": 12, "exp": 15, "is_element": 6}


def test_sender_opens_its_expected_reply_with_no_group_operation(counts, wire_counts):
    n, nr = 2, 3
    spec, keys = _spec(n, nr)
    d = derive(spec, PARAMS)
    sender = SenderState(name=b"sender", keypair=keys[b"sender"])
    sender.view.expect_reply(d.opening)
    reply = d.onion(n + nr)
    counts.update(base=0, exp=0, is_element=0)
    wire_counts.update(encode=0, decode=0, serialize_header=0)
    event = sender_on_onion(sender, reply, PARAMS)
    assert event["kind"] == "got-reply" and sender.replies == [spec.message]
    # The sender built this header: no membership test, no decap, and no
    # encoding, since the replay tag hashes the header bytes it arrived as.
    assert counts == {"base": 0, "exp": 0, "is_element": 0}
    assert wire_counts == {"encode": 0, "decode": 0, "serialize_header": 0}
    # A copy is no longer expected, so it is processed like any onion.
    again = sender_on_onion(sender, reply, PARAMS)
    assert again["kind"] == "dropped" and again["reason"] == "replay"
    assert counts == {"base": 0, "exp": 1, "is_element": 1}


def test_base_makes_no_libcrypto_call(monkeypatch):
    calls = []

    class CountsModexps:
        def __getattr__(self, name, _lib=group_module._LIBCRYPTO):
            if name != "BN_mod_exp_mont":
                return getattr(_lib, name)

            def counted(*args):
                calls.append(args)
                return _lib.BN_mod_exp_mont(*args)

            return counted

    group = sim.default_params().group
    group._g_table  # base builds it at call TABLE_AFTER; build it now
    monkeypatch.setattr(group_module, "_LIBCRYPTO", CountsModexps())
    sim.run_scenario(sim.baseline_scenario(0))
    # The 15 exp powers of the budget above; its 12 base powers read the
    # fixed-base table.
    assert len(calls) == 15
    # Before its table, a group's base is one modexp.
    group._replace().base(3)
    assert len(calls) == 16


def test_off_group_key_and_empty_seed_raise_under_python_O():
    # python -O strips asserts, so the one key check must not be one.
    script = textwrap.dedent("""
        from rsor.crypto import SeedRng
        from rsor.group import PROD_GROUP
        from rsor.kem import kem_keygen
        from rsor.packet import FormatParams, OnionSpec, derive, receiver_addr

        assert False, "asserts must be stripped"
        params = FormatParams(group=PROD_GROUP)
        pk = kem_keygen(PROD_GROUP, SeedRng(b"k")).pk
        spec = OnionSpec(seed=b"s", message=b"m", receiver=receiver_addr(b"svc", params),
                         path=((b"r0", pk), (b"r1", PROD_GROUP.p - 1)))
        for bad in (spec, spec._replace(path=spec.path[:1], seed=b"")):
            try:
                derive(bad, params)
            except ValueError:
                continue
            raise SystemExit("derive accepted %r" % (bad,))
        print("ok")
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and out.stdout.strip() == "ok", out.stderr


def test_undersized_format_params_raise_under_python_O():
    # An assert here would let an undersized payload_len through under -O,
    # and every hop would then fail with bad-width.
    script = textwrap.dedent("""
        from rsor.group import PROD_GROUP
        from rsor.packet import FormatParams

        assert False, "asserts must be stripped"
        params = FormatParams(group=PROD_GROUP)
        # kappa and max_hops are format constants, not constructor fields.
        for bad, refusal in (({"kappa": 7}, TypeError), ({"max_hops": 0}, TypeError),
                             ({"payload_len": params.min_payload_len - 1}, ValueError)):
            try:
                FormatParams(group=PROD_GROUP, **bad)
            except refusal:
                continue
            raise SystemExit("FormatParams accepted %r" % (bad,))
        FormatParams(group=PROD_GROUP, payload_len=params.min_payload_len)
        print("ok")
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and out.stdout.strip() == "ok", out.stderr


@pytest.fixture
def prp_counts(monkeypatch):
    """Count the LIONESS calls made through rsor.packet."""
    tally = {"prp_enc": 0, "prp_dec": 0}
    for name in tally:

        def counted(*args, _original=getattr(rsor.packet, name), _name=name):
            tally[_name] += 1
            return _original(*args)

        monkeypatch.setattr(rsor.packet, name, counted)
    return tally


def test_round_trip_seals_only_the_payload_layers_that_travel(prp_counts):
    n, nr = 3, 3
    spec, keys = _spec(n, nr)
    relays = {name: RelayState(name=name, keypair=kp) for name, kp in keys.items()}
    sender = SenderState(name=b"sender", keypair=keys[b"sender"])
    ids = SeedRng(b"prp-ids")
    _event, action = sender_send(sender, spec, PARAMS)
    # One seal per forward hop; the reply payload layers are not built.
    assert prp_counts == {"prp_enc": n, "prp_dec": 0}

    arrivals = [action.onion]  # arrivals[i - 1] reaches hop i
    current, prev = action.next_hop, b"sender"
    while current != b"sender":
        state = relays[current]
        event = relay_on_onion(state, arrivals[-1], prev, PARAMS, ids)
        _event, out = relay_forward(state, event["tid"], PARAMS, ids)
        if isinstance(out, SendMessage):
            _event, out = relay_on_receiver_reply(state, spec.message, out.rid, PARAMS)
        prev, current = current, out.next_hop
        arrivals.append(out.onion)
    assert len(arrivals) == n + nr

    prp_counts.update(prp_enc=0, prp_dec=0)
    event = sender_on_onion(sender, arrivals[-1], PARAMS)
    assert event["kind"] == "got-reply" and sender.replies == [spec.message]
    # Re-apply the nr - 1 relay peels, then strip k_tilde; the sender's own
    # layer was never applied, so it is neither peeled nor re-sealed.
    assert prp_counts == {"prp_enc": nr - 1, "prp_dec": 1}

    d = derive(spec, PARAMS)
    for j in range(1, nr + 1):
        assert d.onion(n + j) == arrivals[n + j - 1]
    assert d.onions == tuple(arrivals)


def test_recognizing_a_reply_layer_seals_no_payload(prp_counts):
    n, nr = 3, 3
    spec, _keys = _spec(n, nr)
    arrivals = derive(spec, PARAMS).onions
    for j in range(1, nr + 1):
        d = derive(spec, PARAMS)
        prp_counts.update(prp_enc=0, prp_dec=0)
        # A header-only comparison: no reply payload layer is sealed for it.
        assert recognize_onion(n + j, arrivals[n + j - 1], d)
        assert not recognize_onion(n + j, arrivals[n + j - 2], d)
        assert prp_counts == {"prp_enc": 0, "prp_dec": 0}


def test_game_reply_answers_from_the_proc_peel(counts):
    spec, keys = _spec(2, 2)
    d = derive(spec, PARAMS)
    oracles = GameOracles(PARAMS, {b"r1": keys[b"r1"]})
    data = d.onion(2)
    assert oracles.proc(b"r1", data)[0] == "exit"
    counts.update(base=0, exp=0, is_element=0)
    out = oracles.reply(b"r1", data, spec.message)
    assert counts == {"base": 0, "exp": 0, "is_element": 0}
    assert out == ("reply-onion", d.onion(3), spec.reply_path[0][0])


def test_encode_and_exp_do_no_membership_test(counts):
    element = pow(PROD_GROUP.g, 12345, PROD_GROUP.p)
    PROD_GROUP.encode(element)
    PROD_GROUP.exp(element, 7)
    assert counts == {"base": 0, "exp": 1, "is_element": 0}


@pytest.mark.parametrize("value", [0, PROD_GROUP.p, -1])
def test_encode_rejects_out_of_range_values(value):
    with pytest.raises(ValueError):
        PROD_GROUP.encode(value)


@pytest.mark.parametrize("alpha", [0, PROD_GROUP.p, -1])
def test_out_of_range_alpha_is_not_recognized_or_processed(alpha):
    spec, keys = _spec(2, 1)
    onion = form_onion(1, spec, PARAMS)
    # On the wire, -1 is an alpha field of all 0xff bytes.
    elem_len = PARAMS.group.elem_len
    data = alpha.to_bytes(elem_len, "big", signed=True) + onion[elem_len:]
    assert not recognize_onion(1, data, derive(spec, PARAMS))
    oracles = GameOracles(PARAMS, {b"r0": keys[b"r0"]})
    assert oracles.proc(b"r0", data) is None
    assert oracles.reply(b"r0", data, b"answer") is None


def test_replayed_onion_is_refused():
    spec, keys = _spec(2, 1)
    state = RelayState(name=b"r0", keypair=keys[b"r0"])
    ids = SeedRng(b"replay-ids")
    onion = form_onion(1, spec, PARAMS)
    assert relay_on_onion(state, onion, b"sender", PARAMS, ids)["kind"] == "onion-received"
    again = relay_on_onion(state, onion, b"sender", PARAMS, ids)
    assert again == {"actor": b"r0", "kind": "dropped", "reason": "replay"}
    other, _ = _spec(2, 1, seed=b"another-spec")
    assert proc_onion(keys[b"r0"].sk, form_onion(1, other, PARAMS), b"r0", PARAMS,
                      state.view).reason != "replay"


def test_exit_processes_a_repliable_onion_once(counts):
    spec, keys = _spec(2, 2)
    exit_name = spec.path[-1][0]
    state = RelayState(name=exit_name, keypair=keys[exit_name])
    ids = SeedRng(b"exit-ids")
    onion = form_onion(2, spec, PARAMS)
    counts.update(base=0, exp=0, is_element=0)
    event = relay_on_onion(state, onion, b"r0", PARAMS, ids)
    _event, delivery = relay_forward(state, event["tid"], PARAMS, ids)
    assert isinstance(delivery, SendMessage) and delivery.rid is not None
    sent, reply = relay_on_receiver_reply(state, spec.message, delivery.rid, PARAMS)
    assert sent["kind"] == "reply-sent"
    # One peel: alpha in G, one decap, and the decode of the embedded reply
    # header; minting the rid and answering cost no modexp.
    assert counts == {"base": 0, "exp": 1, "is_element": 2}
    assert reply.next_hop == spec.reply_path[0][0]
    assert reply.onion == form_onion(3, spec, PARAMS)


def test_oversized_reply_is_dropped_as_unrepliable():
    spec, keys = _spec(1, 1)
    state = RelayState(name=b"r0", keypair=keys[b"r0"])
    ids = SeedRng(b"long-ids")
    event = relay_on_onion(state, form_onion(1, spec, PARAMS), b"sender", PARAMS, ids)
    _event, delivery = relay_forward(state, event["tid"], PARAMS, ids)
    too_long = b"x" * (PARAMS.max_msg_len + 1)
    dropped, action = relay_on_receiver_reply(state, too_long, delivery.rid, PARAMS)
    assert dropped["reason"] == "unrepliable" and action is None
    # The rid was used up.
    assert relay_on_receiver_reply(state, b"ok", delivery.rid, PARAMS)[0]["reason"] == "unknown-rid"
