"""Symmetric building blocks: hash oracles, stream cipher, MAC, wide-block PRP.

KAPPA is the security parameter, fixed at 16 bytes as in Sphinx: derived
keys, stream-cipher keys, MAC tags and the PRP's left part are KAPPA bytes.
The four hash oracles are domain-separated SHA-256; the stream cipher is
AES-128-CTR; the MAC is truncated HMAC-SHA256; the wide-block PRP is a
four-round LIONESS-style unbalanced Feistel network, so flipping any
ciphertext bit scrambles the whole plaintext block.
"""

import hashlib
import hmac as hmac_mod

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

KAPPA = 16  # the security parameter, in bytes

# Domain separation prefixes for the hash oracles.
_DOM_BLIND = b"\xb0"
_DOM_STREAM = b"\xb1"
_DOM_MAC = b"\xb2"
_DOM_PRP = b"\xb3"
_DOM_RNG = b"\xb4"


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    assert len(a) == len(b), "xor operands must have equal length"
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


class SeedRng:
    """Deterministic byte stream expanded from a seed.

    Used for every random choice an onion former or game challenger makes, so
    that whole runs replay bit-identically from a single seed.  The stream is
    the AES-128-CTR keystream (zero nonce) under sha256(0xb4 | seed)[:16]; one
    cipher context is opened on the first read and every later read continues
    it, so reads split at any sizes concatenate to one long read.
    """

    def __init__(self, seed: bytes):
        assert isinstance(seed, (bytes, bytearray))
        self._key = hashlib.sha256(_DOM_RNG + bytes(seed)).digest()[:16]
        self._stream = None

    def read(self, n: int) -> bytes:
        """Return the next n bytes of the stream."""
        if self._stream is None:
            self._stream = _aes_ctr_stream(self._key)
        return self._stream.update(bytes(n))

    def fork(self, label: bytes) -> "SeedRng":
        """An independent stream derived from this seed and a label; it does
        not depend on how much of this stream has been read."""
        return SeedRng(self._key + bytes(label))


# Every keystream starts at counter block zero, so all share one mode object.
_ZERO_NONCE = modes.CTR(bytes(16))


def _aes_ctr_stream(key16: bytes):
    """A fresh AES-128-CTR encryptor at the start of the zero-nonce stream."""
    return Cipher(algorithms.AES(key16), _ZERO_NONCE).encryptor()


def ro_hb(group, alpha: int, s: int) -> int:
    """Blinding-factor oracle h_b: group element pair -> nonzero scalar."""
    material = group.encode(alpha) + group.encode(s)
    ctr = 0
    while True:
        digest = hashlib.sha256(_DOM_BLIND + bytes([ctr]) + material).digest()
        b = int.from_bytes(digest, "big") % group.q
        if b != 0:
            return b
        ctr += 1


def _key_oracle(domain: bytes, group, s: int) -> bytes:
    return hashlib.sha256(domain + group.encode(s)).digest()[:KAPPA]


_SYM_DOMAINS = {"rho": _DOM_STREAM, "mu": _DOM_MAC, "pi": _DOM_PRP}


def ro_hsym(tag: str, group, s: int) -> bytes:
    """Key-derivation oracles h_rho / h_mu / h_pi, selected by tag."""
    return _key_oracle(_SYM_DOMAINS[tag], group, s)


def prg(key: bytes, out_len: int) -> bytes:
    """Pseudorandom stream of out_len bytes under a KAPPA-byte key."""
    # Not an assert, which python -O strips: AES takes 24- and 32-byte keys too.
    if len(key) != KAPPA:
        raise ValueError("prg key must be %d bytes" % KAPPA)
    assert out_len >= 0
    return _aes_ctr_stream(bytes(key)).update(bytes(out_len))


def mac(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 truncated to KAPPA bytes."""
    return hmac_mod.new(bytes(key), bytes(data), hashlib.sha256).digest()[:KAPPA]


def _prp_subkeys(key: bytes):
    base = bytes(key)
    ks = [hashlib.sha256(_DOM_PRP + bytes([i]) + base).digest() for i in range(1, 5)]
    # Rounds 1 and 3 XOR into the KAPPA-byte left part; rounds 2 and 4 are
    # HMAC keys for compressing the right part.
    return ks[0][:KAPPA], ks[1], ks[2][:KAPPA], ks[3]


def prp_enc(key: bytes, block: bytes) -> bytes:
    """LIONESS encryption of a block wider than KAPPA bytes."""
    assert len(block) > KAPPA, "PRP block must exceed the left-part width"
    left, right = block[:KAPPA], block[KAPPA:]
    k1, k2, k3, k4 = _prp_subkeys(key)
    right = xor_bytes(right, prg(xor_bytes(left, k1), len(right)))
    left = xor_bytes(left, mac(k2, right))
    right = xor_bytes(right, prg(xor_bytes(left, k3), len(right)))
    left = xor_bytes(left, mac(k4, right))
    return left + right


def prp_dec(key: bytes, block: bytes) -> bytes:
    """Inverse of prp_enc."""
    assert len(block) > KAPPA, "PRP block must exceed the left-part width"
    left, right = block[:KAPPA], block[KAPPA:]
    k1, k2, k3, k4 = _prp_subkeys(key)
    left = xor_bytes(left, mac(k4, right))
    right = xor_bytes(right, prg(xor_bytes(left, k3), len(right)))
    left = xor_bytes(left, mac(k2, right))
    right = xor_bytes(right, prg(xor_bytes(left, k1), len(right)))
    return left + right
