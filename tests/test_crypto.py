import hashlib
import os

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings, strategies as st

from rsor.crypto import (
    KAPPA,
    SeedRng,
    mac,
    prg,
    prp_dec,
    prp_enc,
    ro_hb,
    ro_hsym,
    xor_bytes,
)
from rsor.group import PROD_GROUP, TOY_GROUP


def test_xor_bytes():
    assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"
    with pytest.raises(AssertionError):
        xor_bytes(b"\x00", b"\x00\x00")


def test_seed_rng_determinism_and_forking():
    a = SeedRng(b"seed")
    b = SeedRng(b"seed")
    assert a.read(32) == b.read(32)
    assert a.read(5) == b.read(5)
    fork1 = SeedRng(b"seed").fork(b"one")
    fork2 = SeedRng(b"seed").fork(b"two")
    assert fork1.read(16) != fork2.read(16)
    assert SeedRng(b"seed").fork(b"one").read(16) == SeedRng(b"seed").fork(b"one").read(16)


@settings(max_examples=50)
@given(
    seed=st.binary(max_size=40),
    sizes=st.lists(st.integers(min_value=0, max_value=70), max_size=8),
    label=st.binary(max_size=8),
)
def test_seed_rng_reads_continue_one_keystream(seed, sizes, label):
    rng = SeedRng(seed)
    parts = [rng.read(n) for n in sizes]
    assert [len(part) for part in parts] == sizes
    whole = SeedRng(seed).read(sum(sizes))
    assert b"".join(parts) == whole
    # The stream is AES-128-CTR from a zero counter block under the
    # domain-separated seed hash.
    key = hashlib.sha256(b"\xb4" + seed).digest()[:16]
    reference = Cipher(algorithms.AES(key), modes.CTR(bytes(16))).encryptor()
    assert whole == reference.update(bytes(sum(sizes)))
    # A fork does not depend on how much of its parent was read.
    assert rng.fork(label).read(40) == SeedRng(seed).fork(label).read(40)


def test_prg_prefix_property():
    key = b"k" * KAPPA
    long = prg(key, 512)
    assert prg(key, 128) == long[:128]
    assert prg(key, 0) == b""


def test_prg_bit_balance():
    stream = prg(b"balance-key-0000", 1 << 14)
    ones = sum(bin(byte).count("1") for byte in stream)
    total = len(stream) * 8
    assert abs(ones / total - 0.5) < 0.01


def test_prg_keys_independent():
    assert prg(b"a" * KAPPA, 64) != prg(b"b" * KAPPA, 64)


@pytest.mark.parametrize("key_len", [KAPPA - 1, 2 * KAPPA])
def test_prg_refuses_a_key_not_kappa_bytes(key_len):
    # A 32-byte key would otherwise run AES-256 instead of AES-128.
    with pytest.raises(ValueError):
        prg(b"k" * key_len, 16)


def test_mac_deterministic_and_sensitive():
    key = b"m" * KAPPA
    tag = mac(key, b"hello")
    assert len(tag) == KAPPA
    assert tag == mac(key, b"hello")
    assert tag != mac(key, b"hellp")
    assert tag != mac(b"n" * KAPPA, b"hello")


def test_prp_roundtrip():
    key = b"p" * KAPPA
    block = os.urandom(355)
    sealed = prp_enc(key, block)
    assert len(sealed) == len(block)
    assert sealed != block
    assert prp_dec(key, sealed) == block
    assert prp_dec(b"q" * KAPPA, sealed) != block


def test_prp_small_domain_bijection():
    # Over a tiny domain the permutation must hit every block exactly once.
    # KAPPA + 1 bytes is the narrowest block the PRP takes.
    key = b"bij" + b"\x00" * 13
    seen = set()
    for value in range(256):
        block = bytes([value]) + bytes(KAPPA)
        seen.add(prp_enc(key, block))
    assert len(seen) == 256
    for sealed in seen:
        assert prp_enc(key, prp_dec(key, sealed)) == sealed


def test_prp_tamper_randomizes_whole_block():
    # Flipping one ciphertext bit must scramble the entire plaintext: this
    # is what turns payload tagging into an all-or-nothing integrity signal.
    key = b"t" * KAPPA
    block = b"\x00" * 355
    sealed = prp_enc(key, block)
    flipped = bytearray(sealed)
    flipped[200] ^= 1
    reopened = prp_dec(key, bytes(flipped))
    differing = sum(a != b for a, b in zip(reopened, block))
    assert differing > 300


def test_prp_no_zero_prefix_survives_tamper():
    # Monte Carlo: a tampered payload essentially never keeps its zero head.
    key = b"z" * KAPPA
    block = b"\x00" * 355
    sealed = prp_enc(key, block)
    rng = SeedRng(b"masks")
    for _ in range(200):
        mask = rng.read(355)
        reopened = prp_dec(key, xor_bytes(sealed, mask))
        assert reopened[:KAPPA] != b"\x00" * KAPPA


def test_oracles_deterministic():
    s = TOY_GROUP.exp(TOY_GROUP.g, 2)
    assert ro_hb(TOY_GROUP, 3, s) == ro_hb(TOY_GROUP, 3, s)
    assert ro_hsym("rho", TOY_GROUP, s) == ro_hsym("rho", TOY_GROUP, s)


def test_oracle_argument_order_matters():
    # (alpha, s) and (s, alpha) must hash differently.
    assert ro_hb(TOY_GROUP, 3, 9) != ro_hb(TOY_GROUP, 9, 3)


def test_oracle_domain_separation():
    s = PROD_GROUP.exp(PROD_GROUP.g, 7)
    keys = {tag: ro_hsym(tag, PROD_GROUP, s) for tag in ("rho", "mu", "pi")}
    assert len(set(keys.values())) == 3


def test_hb_output_is_scalar():
    for group in (TOY_GROUP, PROD_GROUP):
        for e in (1, 2, 3):
            alpha = group.exp(group.g, e)
            s = group.exp(alpha, 2)
            assert group.is_scalar(ro_hb(group, alpha, s))


def test_crypto_vector_file(tmp_path):
    # primitive,hex-inputs...,hex-output records; regeneration must agree.
    key = bytes(range(16))
    records = [
        ("prg", [key.hex(), "20"], prg(key, 32).hex()),
        ("mac", [key.hex(), b"abc".hex()], mac(key, b"abc").hex()),
        ("prp_enc", [key.hex(), (b"x" * 24).hex()], prp_enc(key, b"x" * 24).hex()),
    ]
    path = tmp_path / "crypto_vectors.csv"
    path.write_text("".join("%s,%s,%s\n" % (p, ",".join(i), o) for p, i, o in records))
    for line in path.read_text().splitlines():
        parts = line.split(",")
        primitive, inputs, expected = parts[0], parts[1:-1], parts[-1]
        if primitive == "prg":
            got = prg(bytes.fromhex(inputs[0]), int(inputs[1], 16))
        elif primitive == "mac":
            got = mac(bytes.fromhex(inputs[0]), bytes.fromhex(inputs[1]))
        else:
            got = prp_enc(bytes.fromhex(inputs[0]), bytes.fromhex(inputs[1]))
        assert got.hex() == expected
