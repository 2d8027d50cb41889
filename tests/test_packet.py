import dataclasses

import pytest

from rsor.crypto import SeedRng, prg, xor_bytes
from rsor.group import PROD_GROUP
from rsor.kem import kem_keygen
from rsor.packet import (
    ADDR_RECEIVER,
    FormatParams,
    InMemoryView,
    Onion,
    OnionSpec,
    build_padding,
    check_onion_vectors,
    decode_addr,
    derive,
    form_onion,
    form_reply,
    onion_vector_lines,
    parse_onion,
    proc_onion,
    receiver_addr,
    recognize_onion,
    serialize_header,
    serialize_onion,
    tag_payload,
    validate_spec,
    write_vector_file,
)


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
    assert len(serialize_onion(onion, PARAMS)) == PARAMS.onion_len


def test_width_invariant_across_path_lengths():
    widths = set()
    for n in range(1, 6):
        for nr in (0, 2):
            spec, _keys_ = _spec(n, nr, seed=b"w%d%d" % (n, nr))
            widths.add(len(serialize_onion(form_onion(1, spec, PARAMS), PARAMS)))
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
            assert d.onion(i).header.beta.endswith(phi)


def test_forward_trip_and_dual_construction():
    spec, keys = _spec(4, 0)
    view = InMemoryView()
    onion = form_onion(1, spec, PARAMS)
    for i in range(1, 5):
        name = spec.path[i - 1][0]
        # The travelling onion must be byte-identical to a fresh derivation.
        assert serialize_onion(onion, PARAMS) == serialize_onion(
            form_onion(i, spec, PARAMS), PARAMS
        )
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
            assert result.reply_info is None


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
    assert result.reply_info is not None

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
    sview.expect_reply(d.ident, d.opening)
    result = proc_onion(keys[b"sender"].sk, reply_onion, b"sender", PARAMS, sview)
    assert result.kind == "reply"
    assert result.message == b"pong!"


def test_form_reply_matches_direct_layers():
    # A reply carrying the spec's own message equals form_onion(n+1) exactly.
    spec, keys = _spec(1, 2)
    onion = form_onion(1, spec, PARAMS)
    exit_name = spec.path[-1][0]
    formed = form_reply(spec.message, onion, exit_name, keys[exit_name].sk, PARAMS)
    assert serialize_onion(formed[0], PARAMS) == serialize_onion(
        form_onion(2, spec, PARAMS), PARAMS
    )


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
    tagged = tag_payload(form_onion(1, spec, PARAMS), b"\x01" * PARAMS.payload_len)
    assert recognize_onion(1, tagged, d)


def test_tagging_absorbed_until_exit():
    rng = SeedRng(b"tag-masks")
    spec, keys = _spec(3, 0, seed=b"tag-spec")
    for trial in range(100):
        onion = tag_payload(form_onion(1, spec, PARAMS), rng.read(PARAMS.payload_len))
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
    onion = form_onion(1, spec, PARAMS)
    raw = serialize_onion(onion, PARAMS)
    rng = SeedRng(b"fuzz-flips")
    header_span = PARAMS.header_len
    rejected = 0
    trials = 300
    for _ in range(trials):
        pos = int.from_bytes(rng.read(4), "big") % header_span
        bit = rng.read(1)[0] % 8
        mutated = bytearray(raw)
        mutated[pos] ^= 1 << bit
        try:
            candidate = parse_onion(bytes(mutated), PARAMS)
        except Exception:
            rejected += 1
            continue
        result = proc_onion(keys[b"r0"].sk, candidate, b"r0", PARAMS, InMemoryView())
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
        validate_spec(dataclasses.replace(spec, path=()), PARAMS)
    with pytest.raises(ValueError):
        validate_spec(dataclasses.replace(spec, receiver=b"short"), PARAMS)
    with pytest.raises(ValueError):
        validate_spec(
            dataclasses.replace(spec, message=b"x" * (PARAMS.max_msg_len + 1)), PARAMS
        )
    looped = spec.path + (spec.path[0],)
    with pytest.raises(ValueError):
        validate_spec(dataclasses.replace(spec, path=looped), PARAMS)
    bad_pk = ((spec.path[0][0], 0),) + spec.path[1:]
    with pytest.raises(ValueError):
        validate_spec(dataclasses.replace(spec, path=bad_pk), PARAMS)
    with pytest.raises(ValueError):
        validate_spec(dataclasses.replace(spec, seed=b""), PARAMS)


def test_serialize_parse_roundtrip():
    spec, _ = _spec(3, 1, seed=b"wire")
    for i in (1, 3, 4):
        onion = form_onion(i, spec, PARAMS)
        raw = serialize_onion(onion, PARAMS)
        back = parse_onion(raw, PARAMS)
        assert serialize_onion(back, PARAMS) == raw


def test_vector_file_roundtrip(tmp_path):
    spec, _ = _spec(2, 1, seed=b"vectors")
    lines = onion_vector_lines(spec, PARAMS)
    assert any(line.startswith("phi_1,") for line in lines)
    assert any(line.startswith("reply_onion_3,") for line in lines)
    path = tmp_path / "onion_vectors.csv"
    write_vector_file(path, lines)
    assert check_onion_vectors(path, spec, PARAMS)
    mutated = lines[:-1] + [lines[-1][:-1] + ("0" if lines[-1][-1] != "0" else "1")]
    write_vector_file(path, mutated)
    assert not check_onion_vectors(path, spec, PARAMS)


def _final_zero_run(spec, keys, params):
    n = len(spec.path)
    onion = form_onion(n, spec, params)
    d = derive(spec, params)
    stream = prg(d.fwd_chain.layers[n - 1].k_rho, params.stream_len)
    wide = xor_bytes(onion.header.beta + b"\x00" * (2 * params.kappa), stream)
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


def test_tag_payload_validation():
    spec, _ = _spec(1, 0, seed=b"tagval")
    onion = form_onion(1, spec, PARAMS)
    with pytest.raises(ValueError):
        tag_payload(onion, b"\x00" * PARAMS.payload_len)
    with pytest.raises(ValueError):
        tag_payload(onion, b"\x01")


def test_proc_rejects_bad_widths_and_elements():
    spec, keys = _spec(1, 0, seed=b"badw")
    onion = form_onion(1, spec, PARAMS)
    short = Onion(onion.header, onion.delta[:-1])
    result = proc_onion(keys[b"r0"].sk, short, b"r0", PARAMS, InMemoryView())
    assert result.kind == "fail" and result.reason == "bad-width"
    bad_alpha = Onion(
        dataclasses.replace(onion.header, alpha=PROD_GROUP.p - 1), onion.delta
    )
    result = proc_onion(keys[b"r0"].sk, bad_alpha, b"r0", PARAMS, InMemoryView())
    assert result.kind == "fail" and result.reason == "bad-element"
