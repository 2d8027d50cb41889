import os
import subprocess
import sys

import pytest

from rsor.crypto import KAPPA, SeedRng, prg, xor_bytes
from rsor.group import PROD_GROUP
from rsor.kem import kem_keygen
from rsor.packet import (
    ADDR_RECEIVER,
    REPLAY_SHARDS,
    REPLY_OPENING_CAP,
    FormatParams,
    InMemoryView,
    OnionSpec,
    ReplyOpening,
    _header_fields,
    _holds_tag,
    _open_payload,
    _unframe,
    build_padding,
    decode_addr,
    derive,
    form_onion,
    form_reply,
    proc_onion,
    receiver_addr,
    recognize_onion,
    serialize_header,
    tag_payload,
    validate_spec,
)
from rsor.sim import default_params

from vectors import onion_vector_lines


PARAMS = FormatParams(group=PROD_GROUP)


def _keys(names, seed=b"keys"):
    rng = SeedRng(seed)
    return {name: kem_keygen(PROD_GROUP, rng.fork(name)) for name in names}


def _spec(n, nr, seed=b"spec-seed", message=b"hello service", params=PARAMS):
    names = [b"r%d" % i for i in range(n)]
    rnames = [b"q%d" % i for i in range(nr - 1)] + ([b"sender"] if nr else [])
    keys = _keys(names + rnames, seed + b"-k")
    return (
        OnionSpec(
            seed=seed,
            message=message,
            receiver=receiver_addr(b"svc", params),
            path=tuple((name, keys[name].pk) for name in names),
            reply_path=tuple((name, keys[name].pk) for name in rnames),
        ),
        keys,
    )


def test_widths():
    assert PARAMS.beta_len == 11 * 16
    assert PARAMS.header_len == 33 + 176 + 16
    assert PARAMS.onion_len == PARAMS.header_len + 355
    assert PARAMS.reply_block_len == 16 + PARAMS.header_len + 16
    onion = form_onion(1, _spec(3, 2)[0], PARAMS)
    assert type(onion) is bytes and len(onion) == PARAMS.onion_len


def _formula_widths(payload_len):
    """Every FormatParams width for PROD_GROUP (33-byte elements), kappa 16
    and 5 hops, from the format's formulas."""
    header = 33 + 11 * 16 + 16
    reply_block = 16 + header + 16
    return {
        "addr_len": 16, "beta_len": 11 * 16, "header_len": header,
        "reply_block_len": reply_block, "min_payload_len": 16 + 16 + reply_block + 3,
        "msg_slot_len": payload_len - (16 + 16 + reply_block),
        "max_msg_len": payload_len - (16 + 16 + reply_block) - 2,
        "stream_len": 13 * 16, "onion_len": header + payload_len,
    }


def test_widths_are_right_after_caching():
    base = FormatParams(group=PROD_GROUP)
    read = {name: getattr(base, name) for name in _formula_widths(355)}
    assert read == _formula_widths(355)
    # A copy of a read instance and a fresh one both compute their own widths.
    copy = base._replace(payload_len=400)
    fresh = FormatParams(group=PROD_GROUP, payload_len=400)
    for params in (copy, fresh):
        assert {name: getattr(params, name) for name in read} == _formula_widths(400)
    # The cached widths sit outside the fields: read or not, equal fields
    # compare and hash equal.
    unread = FormatParams(group=PROD_GROUP, payload_len=400)
    assert copy == fresh == unread
    assert hash(copy) == hash(fresh) == hash(unread)
    assert copy != base


@pytest.mark.parametrize("build", [
    lambda: PARAMS._replace(payload_len=10),
    lambda: FormatParams._make((PROD_GROUP, 10, False)),
], ids=["replace", "make"])
def test_replace_and_make_keep_the_payload_len_floor(build):
    # namedtuple's own _make, which _replace calls, skips __new__; a
    # ValueError, not an assert, so python -O refuses it too.
    with pytest.raises(ValueError, match="payload_len"):
        build()


@pytest.mark.parametrize("record, name", [
    (PARAMS, "payload_len"), (PARAMS, "beta_len"), (PARAMS, "extra"),
    (PROD_GROUP, "p"), (PROD_GROUP, "_g_table"), (PROD_GROUP, "extra"),
    (PROD_GROUP, "_base_calls"),
])
def test_params_refuse_attribute_writes(record, name):
    # Module-level instances are shared, so a write would reach every caller.
    before = getattr(record, name, None)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(record, name, 1)
    assert getattr(record, name, None) == before


def test_width_invariant_across_path_lengths():
    widths = set()
    for n in range(1, 6):
        for nr in (0, 2):
            spec, _keys_ = _spec(n, nr, seed=b"w%d%d" % (n, nr))
            widths.add(len(form_onion(1, spec, PARAMS)))
    assert len(widths) == 1


def test_padding_length_recurrence():
    spec, _ = _spec(5, 0)
    chain = derive(spec, PARAMS).fwd_chain
    for i in range(6):
        assert len(build_padding(chain, i, PARAMS)) == 2 * i * PARAMS.kappa


def test_padding_is_beta_suffix():
    # Phi_{i-1} must be exactly what hop i's beta carries behind the live
    # routing bytes, which is why a peeling relay reveals consistent bytes.
    spec, _ = _spec(4, 0)
    d = derive(spec, PARAMS)
    for i in range(1, 5):
        phi = build_padding(d.fwd_chain, i - 1, PARAMS)
        if phi:
            assert _header_fields(d.onion(i), PARAMS)[1].endswith(phi)


def test_forward_trip_and_dual_construction():
    spec, keys = _spec(4, 0)
    view = InMemoryView()
    onion = form_onion(1, spec, PARAMS)
    for i in range(1, 5):
        name = spec.path[i - 1][0]
        # The travelling onion must be byte-identical to a fresh derivation.
        assert onion == form_onion(i, spec, PARAMS)
        result = proc_onion(keys[name].sk, onion, name, PARAMS, view)
        if i < 4:
            assert result.kind == "forward"
            assert result.next_hop == spec.path[i][0]
            onion = result.next_onion
        else:
            assert result.kind == "exit"
            assert result.message == b"hello service"
            assert result.receiver == spec.receiver
            assert decode_addr(result.receiver) == (ADDR_RECEIVER, b"svc")
            assert result.reply_block is None


def test_reply_round_trip():
    spec, keys = _spec(2, 3)
    view = InMemoryView()
    onion = form_onion(1, spec, PARAMS)
    for i in range(1, 3):
        name = spec.path[i - 1][0]
        result = proc_onion(keys[name].sk, onion, name, PARAMS, view)
        if i < 2:
            onion = result.next_onion
    assert result.kind == "exit"
    assert result.reply_block is not None

    formed = form_reply(b"pong!", onion, spec.path[-1][0], keys[spec.path[-1][0]].sk, PARAMS)
    assert formed is not None
    reply_onion, next_hop = formed
    for i in range(2):
        name = spec.reply_path[i][0]
        assert next_hop == name
        result = proc_onion(keys[name].sk, reply_onion, name, PARAMS, view)
        assert result.kind == "forward"
        reply_onion, next_hop = result.next_onion, result.next_hop

    assert next_hop == b"sender"
    sview = InMemoryView()
    d = derive(spec, PARAMS)
    sview.expect_reply(d.opening)
    result = proc_onion(keys[b"sender"].sk, reply_onion, b"sender", PARAMS, sview)
    assert result.kind == "reply"
    assert result.message == b"pong!"


def test_form_reply_matches_direct_layers():
    # A reply carrying the spec's own message equals form_onion(n+1) exactly.
    spec, keys = _spec(1, 2)
    onion = form_onion(1, spec, PARAMS)
    exit_name = spec.path[-1][0]
    formed = form_reply(spec.message, onion, exit_name, keys[exit_name].sk, PARAMS)
    assert formed[0] == form_onion(2, spec, PARAMS)


def test_recognize_onion():
    spec, _ = _spec(3, 0)
    other, _ = _spec(3, 0, seed=b"other-seed")
    d, d_other = derive(spec, PARAMS), derive(other, PARAMS)
    for i in range(1, 4):
        onion = form_onion(i, spec, PARAMS)
        assert recognize_onion(i, onion, d)
        assert not recognize_onion(i, onion, d_other)
        if i > 1:
            assert not recognize_onion(i - 1, onion, d)
    # Tampered payloads are still recognized (header-only comparison).
    tagged = tag_payload(form_onion(1, spec, PARAMS), b"\x01" * PARAMS.payload_len, PARAMS)
    assert recognize_onion(1, tagged, d)


def test_recognize_onion_refuses_a_layer_past_either_end():
    spec, _ = _spec(1, 2, seed=b"range")
    d = derive(spec, PARAMS)
    onion = d.onion(1)
    assert recognize_onion(3, d.onion(3), d)
    # Both ends raise the same ValueError as Derived.onion.
    for i in (0, 4, 5):
        with pytest.raises(ValueError):
            recognize_onion(i, onion, d)
        with pytest.raises(ValueError):
            d.onion(i)


def test_tagging_absorbed_until_exit():
    rng = SeedRng(b"tag-masks")
    spec, keys = _spec(3, 0, seed=b"tag-spec")
    for trial in range(100):
        onion = tag_payload(form_onion(1, spec, PARAMS), rng.read(PARAMS.payload_len), PARAMS)
        view = InMemoryView()
        for i in range(1, 3):
            name = spec.path[i - 1][0]
            result = proc_onion(keys[name].sk, onion, name, PARAMS, view)
            assert result.kind == "forward", "headers must survive payload tags"
            onion = result.next_onion
        result = proc_onion(keys[b"r2"].sk, onion, b"r2", PARAMS, view)
        assert result.kind == "fail"
        assert result.reason == "integrity"


def test_header_bitflip_fuzzing():
    spec, keys = _spec(2, 0, seed=b"fuzz")
    raw = form_onion(1, spec, PARAMS)
    rng = SeedRng(b"fuzz-flips")
    header_span = PARAMS.header_len
    rejected = 0
    trials = 300
    for _ in range(trials):
        pos = int.from_bytes(rng.read(4), "big") % header_span
        bit = rng.read(1)[0] % 8
        mutated = bytearray(raw)
        mutated[pos] ^= 1 << bit
        result = proc_onion(keys[b"r0"].sk, bytes(mutated), b"r0", PARAMS, InMemoryView())
        assert result.kind == "fail"
        rejected += 1
    assert rejected == trials


def test_replay_rejected():
    spec, keys = _spec(2, 0, seed=b"replay")
    onion = form_onion(1, spec, PARAMS)
    view = InMemoryView()
    assert proc_onion(keys[b"r0"].sk, onion, b"r0", PARAMS, view).kind == "forward"
    again = proc_onion(keys[b"r0"].sk, onion, b"r0", PARAMS, view)
    assert again.kind == "fail" and again.reason == "replay"


def test_replay_cache_remembers_every_tag_across_its_shards():
    # More headers than shards, so shards are shared and some hold several.
    headers = [b"header-%d" % i for i in range(4 * REPLAY_SHARDS)]
    view = InMemoryView()
    assert all(view.check_and_add(h) for h in headers)
    assert not any(view.check_and_add(h) for h in headers)
    assert view.check_and_add(b"header-new")


def test_replay_cache_keeps_flat_buckets_in_arrival_order():
    headers = [b"header-%d" % i for i in range(5000)]
    view = InMemoryView()
    assert all(view.check_and_add(h) for h in headers)
    assert len(view._seen) == REPLAY_SHARDS
    assert all(b is None or type(b) is bytearray for b in view._seen)
    arrival = {InMemoryView._tag(h): i for i, h in enumerate(headers)}
    for first, bucket in enumerate(view._seen):
        if bucket is None:
            continue
        assert len(bucket) % KAPPA == 0
        tags = [bytes(bucket[at:at + KAPPA]) for at in range(0, len(bucket), KAPPA)]
        assert all(tag[0] == first for tag in tags)
        order = [arrival[tag] for tag in tags]
        assert order == sorted(order)
    assert sum(len(b) for b in view._seen if b is not None) == len(headers) * KAPPA
    assert not any(view.check_and_add(h) for h in headers)
    assert view.check_and_add(b"header-new")


def test_a_match_straddling_two_records_is_not_a_stored_tag():
    first, second = bytes(range(KAPPA)), bytes(range(KAPPA, 2 * KAPPA))
    straddle = first[KAPPA // 2:] + second[:KAPPA // 2]
    bucket = bytearray(first + second)
    assert _holds_tag(bucket, first) and _holds_tag(bucket, second)
    assert not _holds_tag(bucket, straddle)
    # Stored after the straddling match too: the search goes on past it.
    assert _holds_tag(bucket + straddle, straddle)


def test_replay_cache_costs_at_most_24_bytes_a_tag():
    view = InMemoryView()
    for i in range(10_000):
        view.check_and_add(b"header-%d" % i)
    held = sys.getsizeof(view._seen) + sum(sys.getsizeof(b) for b in view._seen if b is not None)
    assert held <= 24 * 10_000


def test_zero_prefix_refuses_every_frame_length_the_frame_accepts():
    """A tagged onion's innermost plaintext is uniformly random, and so is
    its 2-byte frame length.  The frame alone accepts max_msg_len + 1 of
    the 65,536 lengths, so without the zero-prefix test about one tagged
    onion in a thousand would be delivered; with it, none is."""
    params = default_params()
    slot = bytes(params.max_msg_len)
    framed = [n.to_bytes(2, "big") + slot for n in range(1 << 16)]
    accepted = [f for f in framed if _unframe(f) is not None]
    assert len(accepted) == params.max_msg_len + 1 == 65
    fields = bytes(params.addr_len + params.reply_block_len)
    assert all(_open_payload(bytes(KAPPA) + fields + f, params) for f in accepted)
    prefix = bytes(KAPPA - 1) + b"\x01"
    assert not any(_open_payload(prefix + fields + f, params) for f in framed)


def test_zero_prefix_row_without_the_check_accepts_the_frame_rate():
    """ROADMAP item 19's zero-prefix row.  The check has no name to swap,
    so "without the check" means plaintexts whose KAPPA-byte zero prefix
    holds by construction: _open_payload then judges only the 2-byte frame,
    and accepts (max_msg_len + 1)/65536 of uniformly random ones, about
    2^-10.  With the check, a uniform plaintext is accepted with
    probability 2^-128.  That difference is what the check buys."""
    params = default_params()
    n, width = 100_000, params.payload_len
    assert params.max_msg_len + 1 == 65

    def accepted(label, prefix):
        """How many of n plaintexts, prefix then uniform bytes from one
        read, _open_payload accepts."""
        tail = width - len(prefix)
        stream = SeedRng(label).read(n * tail)
        return sum(_open_payload(prefix + stream[i:i + tail], params) is not None
                   for i in range(0, n * tail, tail))

    # n * 65/65536 = 99.2 with sigma = 9.95: the bound is the mean +- 4 sigma.
    assert 60 <= accepted(b"zero-prefix-row", bytes(KAPPA)) <= 139
    assert accepted(b"zero-prefix-row/uniform", b"") == 0


def test_expected_reply_with_a_bad_width_or_a_replay_keeps_its_opening():
    spec, keys = _spec(1, 2, seed=b"expected")
    d = derive(spec, PARAMS)
    reply = d.onion(3)
    view = InMemoryView()
    view.expect_reply(d.opening)
    sk = keys[b"sender"].sk

    header = reply[:PARAMS.header_len]
    for wrong in (reply[:-1], reply + b"\x00", bytearray(reply)):
        result = proc_onion(sk, wrong, b"sender", PARAMS, view)
        assert result.kind == "fail" and result.reason == "bad-width"
        assert view.lookup_reply(header) == d.opening

    result = proc_onion(sk, reply, b"sender", PARAMS, view)
    assert result.kind == "reply" and result.message == spec.message
    assert view.lookup_reply(header) is None
    # Re-filed, the opening meets a header already in the replay cache.
    view.expect_reply(d.opening)
    result = proc_onion(sk, reply, b"sender", PARAMS, view)
    assert result.kind == "fail" and result.reason == "replay"
    assert view.lookup_reply(header) == d.opening


def test_reply_requires_expectation():
    spec, keys = _spec(1, 2, seed=b"unsolicited")
    onion = form_onion(2, spec, PARAMS)  # the reply layer at q0
    result = proc_onion(keys[b"q0"].sk, onion, b"q0", PARAMS, InMemoryView())
    assert result.kind == "forward"
    final = result.next_onion
    # Without a registered expectation the sender drops the reply.
    result = proc_onion(keys[b"sender"].sk, final, b"sender", PARAMS, InMemoryView())
    assert result.kind == "fail" and result.reason == "unsolicited"


def test_misdirected_reply_final_layer():
    spec, keys = _spec(1, 1, seed=b"misdir")
    reply_layer = form_onion(2, spec, PARAMS)
    other = _keys([b"other"], b"other-key")[b"other"]
    result = proc_onion(other.sk, reply_layer, b"other", PARAMS, InMemoryView())
    assert result.kind == "fail"


def test_validate_spec_rejects_bad_inputs():
    spec, keys = _spec(2, 0, seed=b"valid")
    validate_spec(spec, PARAMS)
    with pytest.raises(ValueError):
        validate_spec(spec._replace(path=()), PARAMS)
    with pytest.raises(ValueError):
        validate_spec(spec._replace(receiver=b"short"), PARAMS)
    with pytest.raises(ValueError):
        validate_spec(
            spec._replace(message=b"x" * (PARAMS.max_msg_len + 1)), PARAMS
        )
    looped = spec.path + (spec.path[0],)
    with pytest.raises(ValueError):
        validate_spec(spec._replace(path=looped), PARAMS)
    bad_pk = ((spec.path[0][0], 0),) + spec.path[1:]
    with pytest.raises(ValueError):
        validate_spec(spec._replace(path=bad_pk), PARAMS)
    # In range for encode, but of order 2: only the membership test sees it.
    off_group = ((spec.path[0][0], PROD_GROUP.p - 1),) + spec.path[1:]
    with pytest.raises(ValueError):
        validate_spec(spec._replace(path=off_group), PARAMS)
    with pytest.raises(ValueError):
        validate_spec(spec._replace(seed=b""), PARAMS)


# Swaps a valid spec's receiver for a str of the same characters, a tuple
# of its byte values, a bytearray and a memoryview: validate_spec, derive and
# form_onion must each refuse every one with ValueError.
_NON_BYTES_RECEIVERS = """
from rsor.crypto import SeedRng
from rsor.group import PROD_GROUP
from rsor.kem import kem_keygen
from rsor.packet import FormatParams, OnionSpec, derive, form_onion, receiver_addr, validate_spec

params = FormatParams(group=PROD_GROUP)
receiver = receiver_addr(b"svc", params)
pk = kem_keygen(params.group, SeedRng(b"receiver-k")).pk
spec = OnionSpec(seed=b"receivers", message=b"m", receiver=receiver, path=((b"r0", pk),))
calls = (validate_spec, derive, lambda spec, params: form_onion(1, spec, params))
refused = []
for bad in (receiver.decode("latin-1"), tuple(receiver), bytearray(receiver),
            memoryview(receiver)):
    for call in calls:
        try:
            call(spec._replace(receiver=bad), params)
        except ValueError:
            refused.append(True)
        else:
            refused.append(False)
"""


def test_receivers_that_are_not_bytes_raise_value_error():
    namespace = {}
    exec(_NON_BYTES_RECEIVERS, namespace)
    assert namespace["refused"] == [True] * 12


def test_receivers_that_are_not_bytes_raise_value_error_under_python_O():
    # A ValueError, not an assert, which python -O strips.
    script = 'assert False, "asserts must be stripped"\n' + _NON_BYTES_RECEIVERS + "print(refused)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == repr([True] * 12)


def test_wrong_widths_raise_value_error():
    # ValueErrors, not asserts: python -O strips asserts.
    onion = form_onion(1, _spec(2, 0, seed=b"widths")[0], PARAMS)
    alpha_field, beta, gamma = _header_fields(onion, PARAMS)
    alpha = int.from_bytes(alpha_field, "big")
    assert serialize_header(alpha, beta, gamma, PARAMS) == onion[:PARAMS.header_len]
    for bad_beta, bad_gamma in ((beta[:-1], gamma), (beta, gamma + b"\x00")):
        with pytest.raises(ValueError):
            serialize_header(alpha, bad_beta, bad_gamma, PARAMS)


def test_vector_file_roundtrip():
    # The vector files themselves are pinned by tests/test_golden.py.
    spec, _ = _spec(2, 1, seed=b"vectors")
    lines = onion_vector_lines(spec, PARAMS)
    assert any(line.startswith("phi_1,") for line in lines)
    assert any(line.startswith("reply_onion_3,") for line in lines)


def _final_zero_run(spec, keys, params):
    n = len(spec.path)
    onion = form_onion(n, spec, params)
    d = derive(spec, params)
    stream = prg(d.fwd_chain[n - 1].k_rho, params.stream_len)
    wide = xor_bytes(_header_fields(onion, params)[1] + b"\x00" * (2 * params.kappa), stream)
    run = 0
    for byte in wide[params.kappa:]:
        if byte != 0:
            break
        run += 1
    return run


def test_legacy_filler_reveals_path_length():
    legacy = FormatParams(group=PROD_GROUP, legacy_zero_filler=True)
    spec2, keys2 = _spec(2, 0, seed=b"leg2", params=legacy)
    spec5, keys5 = _spec(5, 0, seed=b"leg5", params=legacy)
    run2 = _final_zero_run(spec2, keys2, legacy)
    run5 = _final_zero_run(spec5, keys5, legacy)
    assert run2 >= 8 * legacy.kappa  # (2*(5-2)+2) * kappa of zeros
    assert run5 >= 2 * legacy.kappa
    assert run2 > run5


def test_random_filler_hides_path_length():
    spec2, keys2 = _spec(2, 0, seed=b"rnd2")
    spec5, keys5 = _spec(5, 0, seed=b"rnd5")
    assert _final_zero_run(spec2, keys2, PARAMS) < 2 * PARAMS.kappa
    assert _final_zero_run(spec5, keys5, PARAMS) < 2 * PARAMS.kappa


def test_address_names_longer_than_the_field_raise_value_error():
    # A ValueError, not an assert, so python -O still refuses the name.
    assert decode_addr(receiver_addr(b"x" * 15, PARAMS)) == (ADDR_RECEIVER, b"x" * 15)
    with pytest.raises(ValueError):
        receiver_addr(b"x" * 16, PARAMS)


def test_tag_payload_validation():
    spec, _ = _spec(1, 0, seed=b"tagval")
    onion = form_onion(1, spec, PARAMS)
    with pytest.raises(ValueError):
        tag_payload(onion, b"\x00" * PARAMS.payload_len, PARAMS)
    with pytest.raises(ValueError):
        tag_payload(onion, b"\x01", PARAMS)


def test_proc_rejects_bad_widths_and_elements():
    spec, keys = _spec(1, 0, seed=b"badw")
    onion = form_onion(1, spec, PARAMS)
    for wrong in (onion[:-1], onion + b"\x00", bytearray(onion), onion.decode("latin-1")):
        result = proc_onion(keys[b"r0"].sk, wrong, b"r0", PARAMS, InMemoryView())
        assert result.kind == "fail" and result.reason == "bad-width"
    elem_len = PROD_GROUP.elem_len
    bad_alpha = (PROD_GROUP.p - 1).to_bytes(elem_len, "big") + onion[elem_len:]
    result = proc_onion(keys[b"r0"].sk, bad_alpha, b"r0", PARAMS, InMemoryView())
    assert result.kind == "fail" and result.reason == "bad-element"


def test_refiling_an_expectation_at_the_cap_evicts_nothing():
    view = InMemoryView()
    openings = [ReplyOpening(header=b"header-%d" % i, k_pis=(), k_tilde=b"")
                for i in range(REPLY_OPENING_CAP)]
    for opening in openings + openings[-1:]:
        view.expect_reply(opening)
    assert [view.lookup_reply(o.header) for o in openings] == openings
