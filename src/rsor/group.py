"""Prime-order cyclic groups used by the KEM layer.

Two instantiations are provided:

* ``TOY_GROUP``: the order-5 subgroup of Z_11^*, small enough that tests can
  enumerate every element and exponent by hand.
* ``PROD_GROUP``: the order-q subgroup of Z_p^* for a hardcoded 258-bit safe
  prime p = 2q + 1, with exact (unclamped) exponent arithmetic.  This is a
  reproduction backend, not a secure one: index-calculus (number field
  sieve) discrete logarithms in a 258-bit prime field are far cheaper than
  2^128 work, so the group gives nowhere near 128-bit security.

Group elements are plain ints in [1, p); scalars are ints in [1, q).
Elements travel on the wire as fixed-width big-endian byte strings.

Membership costs a full modexp, so it is checked where bytes or keys enter
(``decode``, the entry of ``packet.proc_onion``, spec validation), not
inside ``exp`` or ``encode``.
"""

from dataclasses import dataclass


class GroupDecodeError(ValueError):
    """Raised when a byte string is not a valid encoding of a group element."""


@dataclass(frozen=True)
class GroupParams:
    """A prime-order subgroup of Z_p^* with generator g and fixed encoding width."""

    name: str
    p: int          # modulus of the ambient field
    q: int          # prime order of the subgroup
    g: int          # generator of the order-q subgroup
    elem_len: int   # wire width of an encoded element, in bytes

    def exp(self, base: int, e: int) -> int:
        """Modular exponentiation base**e mod p; base is trusted to be an element."""
        return pow(base, e % self.q, self.p)

    def is_element(self, v) -> bool:
        """True if v is a member of the order-q subgroup (including identity)."""
        if not isinstance(v, int) or not 1 <= v < self.p:
            return False
        return pow(v, self.q, self.p) == 1

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

    def random_scalar(self, rng) -> int:
        """Uniform scalar in [1, q) drawn from the given deterministic rng."""
        nbytes = (self.q.bit_length() + 7) // 8
        while True:
            e = int.from_bytes(rng.read(nbytes + 8), "big") % self.q
            if e != 0:
                return e


# Order-5 subgroup of Z_11^*: {3, 9, 5, 4, 1}, generated by 3.
TOY_GROUP = GroupParams(name="toy", p=11, q=5, g=3, elem_len=1)

# Safe-prime reproduction group: p = 2q + 1, both prime, q about 2**256 (p has
# 258 bits).  See the module docstring for why this is not a secure group.
_PROD_Q = 0x1000000000000000000000000000000000000000000000000000000000000482B
_PROD_P = 0x20000000000000000000000000000000000000000000000000000000000009057
PROD_GROUP = GroupParams(name="prod", p=_PROD_P, q=_PROD_Q, g=4, elem_len=33)
