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

Both groups use a safe prime p = 2q + 1, so the order-q subgroup is exactly
the quadratic residues mod p, and by Euler's criterion v**q == 1 (mod p)
holds iff the Legendre symbol (v|p) is 1.  ``is_element`` therefore
computes that symbol with a binary Jacobi-symbol loop instead of a modexp;
``GroupParams`` refuses any p other than 2q + 1, since the test is only
equivalent then (that p and q are prime is taken on trust).  Membership is
still checked where bytes or keys enter (``decode``, the entry of
``packet.proc_onion``, spec validation), not inside ``exp`` or ``encode``.

``base(e)`` computes g**e from a fixed-window table of
g**(d * 2**(6*i)), built once per group on first use (about 2.7k elements
for ``PROD_GROUP``), so a fixed-base power costs one modular multiply per
six exponent bits instead of a full modexp.
"""

from dataclasses import dataclass
from functools import cached_property

_WINDOW = 6  # exponent bits per row of the fixed-base table


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0, by the binary algorithm."""
    a %= n
    result = 1
    while a:
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        if zeros & 1 and (n & 7) in (3, 5):
            result = -result
        if a & n & 2:  # quadratic reciprocity: both are 3 mod 4
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


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

    def __post_init__(self):
        if self.p != 2 * self.q + 1:
            raise ValueError("p must be the safe prime 2q + 1 (is_element relies on it)")

    def exp(self, base: int, e: int) -> int:
        """Modular exponentiation base**e mod p; base is trusted to be an element."""
        return pow(base, e % self.q, self.p)

    @cached_property
    def _base_table(self):
        """Row i holds g**(d * 2**(_WINDOW*i)) for every digit d."""
        rows = []
        row_base = self.g
        for _ in range(-(-self.q.bit_length() // _WINDOW)):
            row = [1, row_base]
            for _ in range(2, 1 << _WINDOW):
                row.append(row[-1] * row_base % self.p)
            rows.append(row)
            row_base = row[-1] * row_base % self.p
        return rows

    def base(self, e: int) -> int:
        """g**(e mod q), the same value as exp(g, e), from the fixed-base table."""
        e %= self.q
        mask = (1 << _WINDOW) - 1
        acc = 1
        for row in self._base_table:
            acc = acc * row[e & mask] % self.p
            e >>= _WINDOW
        return acc

    def is_element(self, v) -> bool:
        """True if v is a member of the order-q subgroup (including identity):
        for p = 2q + 1, the Legendre symbol (v|p) is 1."""
        if not isinstance(v, int) or not 1 <= v < self.p:
            return False
        return _jacobi(v, self.p) == 1

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
