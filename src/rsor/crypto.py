"""Symmetric building blocks: hash oracles, stream cipher, MAC, wide-block PRP.

KAPPA is the security parameter, fixed at 16 bytes as in Sphinx: derived
keys, stream-cipher keys, MAC tags and the PRP's left part are KAPPA bytes.
The four hash oracles are domain-separated SHA-256; the stream cipher is
AES-128-CTR; the MAC is truncated HMAC-SHA256; the wide-block PRP is a
four-round LIONESS-style unbalanced Feistel network, so flipping any
ciphertext bit scrambles the whole plaintext block.

Every stream cipher use comes from one kernel, ``_aes_ctr``, which runs
AES-128-CTR over the caller's bytes: one ``EVP_EncryptUpdate`` reads the data
and writes data XOR keystream, so no zero buffer is encrypted and no wide
XOR runs in Python.  LIONESS's stream rounds and the relay's header peel
(``prg_xor``) run it over the data itself; ``prg`` and ``SeedRng`` run it over
zeros, for the callers that need the raw keystream.  It runs in libcrypto
through the handle ``group`` requires: one ``EVP_CIPHER_CTX`` set to
AES-128-CTR on first use, kept until the process ends and re-keyed for each
call, and one output buffer every call writes into, so it must run on one
thread.  Nothing outside the standard library
is imported.

Each hash oracle has one definition, over encoded group elements.
``ro_hb`` and ``ro_hsym`` take elements and encode them; ``ro_layer``
evaluates all four oracles a KEM layer needs from one encoding of alpha
and one of s.  The MAC and LIONESS's compression rounds share one HMAC-SHA256,
``_hmac_sha256``, built as RFC 2104 defines it from two ``hashlib.sha256``
calls: H(K xor opad | H(K xor ipad | m)), with the pads made by
``bytes.translate`` and a key over 64 bytes hashed first.  That is cheaper
per call than CPython's ``_hashlib.hmac_digest`` at these short inputs.
LIONESS keeps its KAPPA-byte left part and its round keys 1 and 3 as ints,
so a round's XOR is one int XOR.

Input checks raise ``ValueError`` rather than assert, so they hold under
``python -O`` too: ``xor_bytes`` refuses operands of unequal length,
``prg`` and ``prg_xor`` a key that is not KAPPA bytes, ``prg`` and
``SeedRng.read`` a negative length, and ``prp_enc``/``prp_dec`` a block not
wider than KAPPA bytes.
"""

import ctypes
import functools
import hashlib

from . import group as _group

KAPPA = 16  # the security parameter, in bytes

# Domain separation prefixes for the hash oracles.
_DOM_BLIND = b"\xb0"
_DOM_STREAM = b"\xb1"
_DOM_MAC = b"\xb2"
_DOM_PRP = b"\xb3"
_DOM_RNG = b"\xb4"

# h_b's prefix at counter 0; a later counter is hashed only after a digest
# that is 0 mod q.
_HB_FIRST = _DOM_BLIND + b"\x00"

# The hash prefixes of LIONESS's four round keys.
_PRP_1, _PRP_2, _PRP_3, _PRP_4 = (_DOM_PRP + bytes([i]) for i in range(1, 5))

# HMAC's inner and outer pads as translate tables: key.translate(_IPAD) is
# key XOR 0x36 bytewise, key.translate(_OPAD) key XOR 0x5c.
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
_SHA256_BLOCK = 64

# The width of the keystream chunk a SeedRng draws its reads from, and the
# zeros a chunk of that width is encrypted from.
_RNG_CHUNK = 256
_ZERO_CHUNK = bytes(_RNG_CHUNK)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    n = len(a)
    if len(b) != n:
        raise ValueError("xor operands must have equal length")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


class SeedRng:
    """Deterministic byte stream expanded from a seed.

    Used for every random choice an onion former or game challenger makes, so
    that whole runs replay bit-identically from a single seed.  The stream is
    the AES-128-CTR keystream (zero nonce) under sha256(0xb4 | seed)[:16].
    Reads are served from a chunk of that keystream, at least _RNG_CHUNK
    bytes and starting on a 16-byte block, made by one ``_aes_ctr`` call; a
    read that runs past the chunk's end makes the next chunk from the block
    the read starts in.  So a relay's 16-byte tid draws cost one cipher call
    per sixteen, and reads split at any sizes concatenate to one long read.
    """

    __slots__ = ("_key", "_chunk", "_block", "_pos")

    def __init__(self, seed: bytes):
        # Not an assert, which python -O strips: bytes(5) would then seed
        # five zero bytes, and True one.
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("SeedRng needs a bytes seed, not %s" % type(seed).__name__)
        self._key = hashlib.sha256(_DOM_RNG + bytes(seed)).digest()[:16]
        # The keystream from counter block _block on, and the offset of the
        # next unread byte in it.
        self._chunk = b""
        self._block = 0
        self._pos = 0

    def read(self, n: int) -> bytes:
        """Return the next n bytes of the stream."""
        if n < 0:
            raise ValueError("SeedRng read length must not be negative")
        pos = self._pos
        end = pos + n
        if end > len(self._chunk):
            self._block += pos >> 4
            pos &= 15
            end = pos + n
            zeros = _ZERO_CHUNK if end <= _RNG_CHUNK else bytes(end)
            self._chunk = _aes_ctr(self._key, self._block, zeros)
        self._pos = end
        return self._chunk[pos:end]

    def fork(self, label: bytes) -> "SeedRng":
        """An independent stream derived from this seed and a label; it does
        not depend on how much of this stream has been read.

        The child is the stream SeedRng(key | label) would give, key this
        stream's 16-byte AES key: its own key is sha256(0xb4 | key |
        label)[:16].  It is built here, without a second pass through
        __init__.  label must be bytes or a bytearray: an int would become
        that many zero bytes, as bytes(3) does, so it raises TypeError."""
        if not isinstance(label, (bytes, bytearray)):
            raise TypeError("SeedRng.fork needs a bytes label, not %s" % type(label).__name__)
        child = object.__new__(SeedRng)
        child._key = hashlib.sha256(_DOM_RNG + self._key + label).digest()[:16]
        child._chunk = b""
        child._block = 0
        child._pos = 0
        return child


@functools.cache
def _cipher_ctx(lib):
    """The one EVP_CIPHER_CTX of this handle, set to AES-128-CTR.  A pointer
    into this process, re-keyed by every call: one thread only.  A c_void_p
    object, which ctypes passes on without converting an int at every call."""
    ctx = ctypes.c_void_p(_group._ok(lib.EVP_CIPHER_CTX_new(), "EVP_CIPHER_CTX_new"))
    cipher = _group._ok(lib.EVP_aes_128_ctr(), "EVP_aes_128_ctr")
    _group._ok(lib.EVP_EncryptInit_ex(ctx, cipher, None, None, None), "EVP_EncryptInit_ex")
    return ctx


# The counter block every stream but a SeedRng's later chunks starts at.
_ZERO_BLOCK = bytes(16)

# EVP_EncryptUpdate's output count, which CTR mode always sets to the input
# length; written by every call and never read, so one serves them all.
_WRITTEN = ctypes.c_int()

# The buffer every _aes_ctr call writes its output into and slices it out
# of, grown to the widest call so far (512 bytes covers every width of the
# default format).  Shared like the cipher context: one thread only.
_out = (ctypes.c_char * 512)()


def _aes_ctr(key16: bytes, block: int, data: bytes) -> bytes:
    """data XOR the AES-128-CTR keystream under key16, starting at counter
    block `block` (the 16-byte big-endian counter of the zero-nonce stream).
    libcrypto reads data itself, so zeros in give the keystream out.  data
    may be any bytes-like object; an int or a str raises TypeError."""
    global _out
    if type(data) is not bytes:
        # memoryview refuses an int, which bytes() would take as a length.
        data = memoryview(data).tobytes()
    n = len(data)
    lib = _group._LIBCRYPTO
    ctx = _cipher_ctx(lib)
    iv = block.to_bytes(16, "big") if block else _ZERO_BLOCK
    if not lib.EVP_EncryptInit_ex(ctx, None, None, key16, iv):
        raise RuntimeError("libcrypto EVP_EncryptInit_ex failed")
    # Slicing the kept buffer copies the output out in one step: about
    # 0.3 us less per call than making a fresh c_char array and reading its
    # .raw (timeit, 339 bytes, Python 3.11 on a 2-core Xeon), where
    # ctypes.string_at, at 0.56 us per copy, saved nothing.
    out = _out
    if len(out) < n:
        out = _out = (ctypes.c_char * n)()
    if not lib.EVP_EncryptUpdate(ctx, out, _WRITTEN, data, n):
        raise RuntimeError("libcrypto EVP_EncryptUpdate failed")
    return out[:n]


def _h_b(q: int, material: bytes) -> int:
    """h_b on the encodings of (alpha, s), concatenated: the first nonzero
    sha256(0xb0 | ctr | material) mod q, for ctr = 0, 1, ..."""
    b = int.from_bytes(hashlib.sha256(_HB_FIRST + material).digest(), "big") % q
    ctr = 1
    while b == 0:
        b = int.from_bytes(hashlib.sha256(_DOM_BLIND + bytes([ctr]) + material).digest(),
                           "big") % q
        ctr += 1
    return b


def _h_sym(domain: bytes, s_encoded: bytes) -> bytes:
    """h_rho, h_mu or h_pi, selected by domain, on the encoding of s."""
    return hashlib.sha256(domain + s_encoded).digest()[:KAPPA]


def ro_hb(group, alpha: int, s: int) -> int:
    """Blinding-factor oracle h_b: group element pair -> nonzero scalar."""
    return _h_b(group.q, group.encode(alpha) + group.encode(s))


_SYM_DOMAINS = {"rho": _DOM_STREAM, "mu": _DOM_MAC, "pi": _DOM_PRP}


def ro_hsym(tag: str, group, s: int) -> bytes:
    """Key-derivation oracles h_rho / h_mu / h_pi, selected by tag."""
    return _h_sym(_SYM_DOMAINS[tag], group.encode(s))


def ro_layer(group, alpha: int, s: int) -> tuple:
    """(h_b(alpha, s), h_rho(s), h_mu(s), h_pi(s)): the oracles of one KEM
    layer, with alpha and s encoded once each."""
    s_encoded = group.encode(s)
    return (_h_b(group.q, group.encode(alpha) + s_encoded), _h_sym(_DOM_STREAM, s_encoded),
            _h_sym(_DOM_MAC, s_encoded), _h_sym(_DOM_PRP, s_encoded))


def prg_xor(key: bytes, data: bytes) -> bytes:
    """data XOR prg(key, len(data)), in one pass over data."""
    # Not an assert, which python -O strips: AES takes 24- and 32-byte keys too.
    if len(key) != KAPPA:
        raise ValueError("prg key must be %d bytes" % KAPPA)
    return _aes_ctr(bytes(key), 0, data)


def prg(key: bytes, out_len: int) -> bytes:
    """Pseudorandom stream of out_len bytes under a KAPPA-byte key."""
    if out_len < 0:
        raise ValueError("prg length must not be negative")
    return prg_xor(key, bytes(out_len))


def _hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 as RFC 2104 defines it: H(K xor opad | H(K xor ipad | m)),
    K the key zero-padded to the 64-byte block, or its hash if it is longer.
    Key and data may be any bytes-like object."""
    if type(key) is not bytes:
        # memoryview refuses an int, which bytes() would take as a length.
        key = memoryview(key).tobytes()
    if len(key) > _SHA256_BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_SHA256_BLOCK, b"\x00")
    inner = hashlib.sha256(key.translate(_IPAD) + data).digest()
    return hashlib.sha256(key.translate(_OPAD) + inner).digest()


def mac(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 truncated to KAPPA bytes."""
    return _hmac_sha256(key, data)[:KAPPA]


def _prp_subkeys(key: bytes):
    k1 = hashlib.sha256(_PRP_1 + key).digest()
    k2 = hashlib.sha256(_PRP_2 + key).digest()
    k3 = hashlib.sha256(_PRP_3 + key).digest()
    k4 = hashlib.sha256(_PRP_4 + key).digest()
    # Rounds 1 and 3 XOR into the KAPPA-byte left part, kept as an int;
    # rounds 2 and 4 are HMAC keys for compressing the right part.
    return int.from_bytes(k1[:KAPPA], "big"), k2, int.from_bytes(k3[:KAPPA], "big"), k4


def _left(block: bytes) -> int:
    if len(block) <= KAPPA:
        raise ValueError("PRP block must exceed the left-part width")
    return int.from_bytes(block[:KAPPA], "big")


def _compress(key: bytes, right: bytes) -> int:
    return int.from_bytes(_hmac_sha256(key, right)[:KAPPA], "big")


def prp_enc(key: bytes, block: bytes) -> bytes:
    """LIONESS encryption of a block wider than KAPPA bytes."""
    left = _left(block)
    k1, k2, k3, k4 = _prp_subkeys(key)
    right = _aes_ctr((left ^ k1).to_bytes(KAPPA, "big"), 0, block[KAPPA:])
    left ^= _compress(k2, right)
    right = _aes_ctr((left ^ k3).to_bytes(KAPPA, "big"), 0, right)
    left ^= _compress(k4, right)
    return left.to_bytes(KAPPA, "big") + right


def prp_dec(key: bytes, block: bytes) -> bytes:
    """Inverse of prp_enc."""
    left = _left(block)
    k1, k2, k3, k4 = _prp_subkeys(key)
    right = block[KAPPA:]
    left ^= _compress(k4, right)
    right = _aes_ctr((left ^ k3).to_bytes(KAPPA, "big"), 0, right)
    left ^= _compress(k2, right)
    right = _aes_ctr((left ^ k1).to_bytes(KAPPA, "big"), 0, right)
    return left.to_bytes(KAPPA, "big") + right
