"""Prime-order cyclic groups used by the KEM layer.

Three instantiations are provided:

* ``TOY_GROUP``: the order-5 subgroup of Z_11^*, small enough that tests can
  enumerate every element and exponent by hand.
* ``PROD_GROUP``: the order-q subgroup of Z_p^* for a hardcoded 258-bit safe
  prime p = 2q + 1, with exact (unclamped) exponent arithmetic.  This is a
  reproduction backend, not a secure one: index-calculus (number field
  sieve) discrete logarithms in a 258-bit prime field are far cheaper than
  2^128 work, so the group gives nowhere near 128-bit security.
* ``SQR_GROUP``, the default of ``sim.default_params``: the signed quadratic
  residues on ``PROD_GROUP``'s own p (Hofheinz and Kiltz, CRYPTO 2009).  An
  element is |x| = min(x, p - x) for a residue x, so the members are
  exactly the ints in [1, q].  x -> |x| is an isomorphism from the
  quadratic residues, computable both ways, so GDH here is GDH in
  ``PROD_GROUP``: the same 258-bit field and the same security, far below
  128 bits.

Scalars are ints in [1, q).  Elements are plain ints in [1, p) for a
Legendre-tested group and in [1, q] for the signed one.  Elements travel on
the wire as fixed-width big-endian byte strings, of the same width in
``PROD_GROUP`` and ``SQR_GROUP``.

Every group uses a safe prime p = 2q + 1, so the order-q subgroup is exactly
the quadratic residues mod p, and by Euler's criterion v**q == 1 (mod p)
holds iff the Legendre symbol (v|p) is 1; the signed quotient by +-1 has
order q only then.  ``GroupParams`` refuses any p other than 2q + 1 (that p
and q are prime is taken on trust).  With ``signed`` unset, membership is
that Legendre test; with ``signed`` set, ``exp`` and ``base`` return the
representative min(v, p - v), and membership is the range test 1 <= v <= q,
so p - v, the other name of a member's class, is not an element.
Membership is checked where bytes or keys enter (``decode``, which
``packet.proc_onion`` runs on every alpha field, and spec validation), not
inside ``exp`` or ``encode``.
A public key is tested once per process: spec validation goes through
``kem.is_public_key``, whose bounded key memo ``kem_keygen`` also feeds, so
a key made as g^sk or tested before costs no membership test; every alpha
is still tested.

``base`` raises the one fixed generator to a power.  A group's first
``TABLE_AFTER - 1`` calls take the libcrypto modexp ``exp`` uses; call
``TABLE_AFTER`` builds a fixed-base table (Brickell, Gordon, McCurley and
Wilson, EUROCRYPT 1992), which every later call reads: row i holds
g^(d * 256^i) for every byte value d, one row per byte of q, so g^e is the
product of one entry per nonzero byte of e mod q, at most 33 Python modular
multiplications for ``PROD_GROUP`` and ``SQR_GROUP`` (the signed group
takes min(r, p - r) once, after the product).  The group keeps the table
until the process ends: for a 258-bit group, 33 rows of 256 ints, about
0.57 MB, built by 8448 multiplications in about 3.4 ms.  A table call saves
about 7.3 us against the modexp, so the table pays back after about 470
calls (Python 3.11 on a 2-core Xeon), and ``TABLE_AFTER`` is that count.
A process that makes fewer calls never builds the table.

The other kernels run in libcrypto's BIGNUM code, reached through the
handle of the extension module CPython's ``hashlib`` already loads
(``_hashlib``, which links libcrypto): ``exp`` is a Montgomery modexp
(``BN_mod_exp_mont``), and ``is_element`` of a Legendre-tested group
computes the Legendre symbol with ``BN_kronecker``.  Neither ``base`` nor
``exp`` is constant-time: the table entries read and the zero bytes skipped
depend on the exponent, and ``BN_mod_exp_mont`` is called without
``BN_FLG_CONSTTIME``.  The same
handle also serves ``crypto``'s AES-CTR kernel (through
``EVP_EncryptInit_ex`` and ``EVP_EncryptUpdate``).
The handle is required and resolved once, at import: if ``_hashlib`` does
not import, its library does not load or any symbol is missing, ``import
rsor`` raises ``ImportError`` naming the cause.  Each group keeps its
libcrypto state (a ``BN_CTX``, p with its Montgomery context, scratch
BIGNUMs and a result buffer), and the AES-CTR kernel its one cipher
context, from first use until the process ends; that state is shared by
every call, so both kernels must run on one thread.

Code outside this module uses a group only through ``q``, ``elem_len``,
``base``, ``exp``, ``is_element``, ``is_scalar``, ``encode``, ``decode`` and
``random_scalar``.  ``p``, ``g``, ``signed`` and the safe-prime check
belong to this modp class.
"""

import collections
import ctypes
from functools import cached_property


def _resolve_libcrypto():
    """The libcrypto handle with every BIGNUM and EVP cipher function the
    group and AES-CTR kernels call typed; ImportError, naming the cause,
    when it cannot be resolved."""
    ptr, num, buf = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
    signatures = {
        "BN_new": (ptr, []),
        "BN_CTX_new": (ptr, []),
        "BN_MONT_CTX_new": (ptr, []),
        "BN_MONT_CTX_set": (num, [ptr, ptr, ptr]),
        "BN_bin2bn": (ptr, [buf, num, ptr]),
        "BN_bn2binpad": (num, [ptr, buf, num]),
        "BN_mod_exp_mont": (num, [ptr, ptr, ptr, ptr, ptr, ptr]),
        "BN_kronecker": (num, [ptr, ptr, ptr]),
        "EVP_CIPHER_CTX_new": (ptr, []),
        "EVP_aes_128_ctr": (ptr, []),
        "EVP_EncryptInit_ex": (num, [ptr, ptr, ptr, buf, buf]),
        "EVP_EncryptUpdate": (num, [ptr, buf, ctypes.POINTER(num), buf, num]),
    }
    try:
        import _hashlib

        # dlsym on this handle also searches the libcrypto _hashlib links.
        lib = ctypes.CDLL(_hashlib.__file__)
    except (ImportError, OSError) as exc:
        raise ImportError("rsor needs libcrypto through CPython's _hashlib: %s" % exc) from exc
    for name, (restype, argtypes) in signatures.items():
        try:
            fn = getattr(lib, name)
        except AttributeError:
            raise ImportError("rsor needs libcrypto's %s, which _hashlib does not expose"
                              % name) from None
        fn.restype, fn.argtypes = restype, argtypes
    return lib


_LIBCRYPTO = _resolve_libcrypto()


def _ok(result, call):
    """result, unless libcrypto reported failure with 0 or NULL."""
    if not result:
        raise RuntimeError("libcrypto %s failed" % call)
    return result


# The base call that builds a group's fixed-base table: the break-even.  For
# a 258-bit group, building it takes 8448 modular multiplications (256 per
# row, 33 rows), about 3.4 ms; a table call with a full-width exponent then
# costs about 13.4 us against about 20.7 us for the modexp, so the table
# pays for itself after 3.4 ms / 7.3 us, about 470 calls (medians, Python
# 3.11 on a 2-core Xeon).
TABLE_AFTER = 470


class GroupDecodeError(ValueError):
    """Raised when a byte string is not a valid encoding of a group element."""


class GroupParams(collections.namedtuple("GroupParams", "name p q g elem_len signed",
                                         defaults=(False,))):
    """A prime-order subgroup of Z_p^* with generator g and fixed encoding
    width; with signed set, its image under v -> min(v, p - v).

    name labels the group; p is the modulus of the ambient field, q the
    prime order of the subgroup and g its generator; elem_len is the wire
    width of an encoded element, in bytes; signed makes the elements the
    signed residues [1, q].  The cached tables and base's call count live
    in the instance's __dict__, outside the fields, so equality, hashing
    and _replace see the fields alone; no attribute can be set."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # A ValueError, not an assert: python -O strips asserts.
        if self.p != 2 * self.q + 1:
            raise ValueError("p must be the safe prime 2q + 1 (is_element relies on it)")
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)

    def __setattr__(self, name, value):
        # cached_property writes the instance's __dict__ directly; any other
        # write would reach every holder of a shared instance.
        raise AttributeError("%s is immutable" % type(self).__name__)

    @cached_property
    def _bn(self):
        """This group's libcrypto state: a BN_CTX, p as a BIGNUM, its
        Montgomery context, scratch BIGNUMs for the result, base and
        exponent, and an elem_len result buffer.  Pointers into this
        process, shared by every call: one thread only.  The handles are
        c_void_p objects, which ctypes passes on without converting an int
        at every call."""
        lib, width = _LIBCRYPTO, self.elem_len
        ctx = ctypes.c_void_p(_ok(lib.BN_CTX_new(), "BN_CTX_new"))
        mod = ctypes.c_void_p(
            _ok(lib.BN_bin2bn(self.p.to_bytes(width, "big"), width, None), "BN_bin2bn"))
        mont = ctypes.c_void_p(_ok(lib.BN_MONT_CTX_new(), "BN_MONT_CTX_new"))
        _ok(lib.BN_MONT_CTX_set(mont, mod, ctx), "BN_MONT_CTX_set")
        r, a, x = (ctypes.c_void_p(_ok(lib.BN_new(), "BN_new")) for _ in range(3))
        return ctx, mod, mont, r, a, x, ctypes.create_string_buffer(width)

    def exp(self, base: int, e: int) -> int:
        """Modular exponentiation base**(e mod q) mod p, by BN_mod_exp_mont,
        signed when the group is; base is trusted to be an element."""
        lib = _LIBCRYPTO
        ctx, mod, mont, r, a, x, out = self._bn
        p, q, width = self.p, self.q, self.elem_len
        if not lib.BN_bin2bn((base % p).to_bytes(width, "big"), width, a):
            raise RuntimeError("libcrypto BN_bin2bn failed")
        if not lib.BN_bin2bn((e % q).to_bytes(width, "big"), width, x):
            raise RuntimeError("libcrypto BN_bin2bn failed")
        if not lib.BN_mod_exp_mont(r, a, x, mod, ctx, mont):
            raise RuntimeError("libcrypto BN_mod_exp_mont failed")
        if lib.BN_bn2binpad(r, out, width) != width:
            raise RuntimeError("libcrypto BN_bn2binpad failed")
        v = int.from_bytes(out, "big")
        # min(v, p - v) with one comparison, since p = 2q + 1.
        return p - v if self.signed and v > q else v

    # The same kernel for base, under a name that wrappers of exp (a call
    # counter, a tracer) leave alone.
    _modexp = exp

    @cached_property
    def _g_table(self):
        """The fixed-base table: row i holds g**(d * 256**i) mod p at index
        d, for d in [0, 256), one row per byte of q."""
        p, h, rows = self.p, self.g, []
        for _ in range((self.q.bit_length() + 7) // 8):
            row = [1]
            for _ in range(255):
                row.append(row[-1] * h % p)
            rows.append(tuple(row))
            h = row[-1] * h % p  # h**256, the next row's step
        return tuple(rows)

    def base(self, e: int) -> int:
        """g**(e mod q), the same value as exp(g, e): by the modexp for a
        group's first TABLE_AFTER - 1 calls, counted in _base_calls; from
        then on one table entry per nonzero byte of e mod q, multiplied mod
        p, then signed when the group is."""
        state = self.__dict__
        table = state.get("_g_table")
        if table is None:
            calls = state["_base_calls"] = state.get("_base_calls", 0) + 1
            if calls < TABLE_AFTER:
                return self._modexp(self.g, e)
            table = self._g_table
        p, q, r = self.p, self.q, 1
        for row, d in zip(table, (e % q).to_bytes(len(table), "little")):
            if d:
                r = r * row[d] % p
        # min(r, p - r) with one comparison, since p = 2q + 1.
        return p - r if self.signed and r > q else r

    def is_element(self, v) -> bool:
        """True if v is a member of the order-q group (including identity):
        in the signed group an int in [1, q]; otherwise an int in [1, p)
        whose Legendre symbol (v|p) is 1, a residue since p = 2q + 1."""
        if self.signed:
            return isinstance(v, int) and 1 <= v <= self.q
        if not isinstance(v, int) or not 1 <= v < self.p:
            return False
        lib = _LIBCRYPTO
        ctx, mod, _mont, _r, a, _x, _out = self._bn
        width = self.elem_len
        _ok(lib.BN_bin2bn(v.to_bytes(width, "big"), width, a), "BN_bin2bn")
        symbol = lib.BN_kronecker(a, mod, ctx)
        if symbol == -2:
            raise RuntimeError("libcrypto BN_kronecker failed")
        return symbol == 1

    def is_scalar(self, e) -> bool:
        """True if e is a valid nonzero exponent."""
        return isinstance(e, int) and 1 <= e < self.q

    def encode(self, v: int) -> bytes:
        """Fixed-width big-endian encoding of an element.

        Only the range is checked (membership is the caller's concern); an
        out-of-range value raises ValueError rather than OverflowError.
        """
        if not isinstance(v, int) or not 1 <= v < self.p:
            raise ValueError("cannot encode a value outside [1, p)")
        return v.to_bytes(self.elem_len, "big")

    def decode(self, data: bytes) -> int:
        """Inverse of encode; rejects wrong widths and non-members."""
        if len(data) != self.elem_len:
            raise GroupDecodeError(
                "element encoding must be %d bytes, got %d" % (self.elem_len, len(data))
            )
        v = int.from_bytes(data, "big")
        if not self.is_element(v):
            raise GroupDecodeError("byte string does not encode a subgroup element")
        return v

    @cached_property
    def _draw_len(self):
        """The bytes random_scalar reads per draw: q's width plus 8, so
        that reducing the draw mod q leaves a bias below 2**-64."""
        return (self.q.bit_length() + 7) // 8 + 8

    def random_scalar(self, rng) -> int:
        """Uniform scalar in [1, q) drawn from the given deterministic rng."""
        draw, q = self._draw_len, self.q
        while True:
            e = int.from_bytes(rng.read(draw), "big") % q
            if e != 0:
                return e


# Order-5 subgroup of Z_11^*: {3, 9, 5, 4, 1}, generated by 3.
TOY_GROUP = GroupParams(name="toy", p=11, q=5, g=3, elem_len=1)

# Safe-prime reproduction group: p = 2q + 1, both prime, q about 2**256 (p has
# 258 bits).  See the module docstring for why this is not a secure group.
_PROD_Q = 0x1000000000000000000000000000000000000000000000000000000000000482B
_PROD_P = 0x20000000000000000000000000000000000000000000000000000000000009057
PROD_GROUP = GroupParams(name="prod", p=_PROD_P, q=_PROD_Q, g=4, elem_len=33)

# The signed quadratic residues on the same p: members are the ints in
# [1, q], so membership is a range test.  The default group.
SQR_GROUP = GroupParams(name="sqr", p=_PROD_P, q=_PROD_Q, g=4, elem_len=33, signed=True)
