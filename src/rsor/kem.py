"""Sphinx RO-KEM: the alpha blinding chain and its IND-CCA game harness.

A sender picks a secret x, sets alpha_0 = g^x, and derives for each hop i a
shared secret s_i = y_i^(x*b_0*...*b_{i-1}) together with a blinding factor
b_i = h_b(alpha_i, s_i).  Relays recover the same secrets from (alpha, sk)
alone, so the chain can be computed hop by hop without the sender's state.

Powers of the fixed generator (public keys, each alpha_i) come from
``GroupParams.base`` (a modexp until the group has served enough calls to
earn back its fixed-base table, then at most 33 multiplications from that
table), and powers of other elements (s_i, blinding, decapsulation) from
``GroupParams.exp``, one libcrypto modexp.  Each layer's blinding factor
and keys come from one ``crypto.ro_layer`` call, which encodes alpha and
s_i once each.

A public key is tested for group membership once per process, not once
per onion: ``is_public_key`` keeps a memo of the keys known to be members,
each with its group.  ``kem_keygen`` records the g^sk it returns, a member by
construction, and ``is_public_key`` records a key the first time it passes
``group.is_element``.  The memo holds at most KNOWN_KEYS_CAP keys and
evicts the oldest to make room, so an evicted key is simply tested again.
A non-member never enters it.  Alphas never do either: they come off the
wire with every onion, so ``proc_onion``, through ``decode``, and
``KemGameOracles.decap`` test each one.

The KEM game runs kem_chain_create and kem_decap themselves, so it hands
an adversary what derive and proc_onion compute.  MAX_HOPS is the format's
one hop limit: packet widths, validate_shape and the ideal world read it.
"""

import collections
import math

from .crypto import KAPPA, ro_hb, ro_hsym, ro_layer

MAX_HOPS = 5  # the longest path, forward or reply, an onion may take
KNOWN_KEYS_CAP = 1024  # public keys the membership memo holds, over all groups


class KemKeyPair(collections.namedtuple("KemKeyPair", "sk pk")):
    """A private key sk and its public key pk = g^sk."""

    __slots__ = ()


class LayerSecrets(collections.namedtuple("LayerSecrets", "alpha b k_rho k_mu k_pi")):
    """One hop's KEM output: its alpha, its blinding factor b and the three
    keys h_*(s) splits into.  The shared secret s itself is not kept: no
    reader needs it, so a layer can also be built from what the KEM game
    hands out, LayerSecrets(alpha, b, k_rho, k_mu, k_pi)."""

    __slots__ = ()

    @property
    def keys(self) -> bytes:
        """h_*(s) = k_rho|k_mu|k_pi, the layer's keys as the KEM game hands them out."""
        return self.k_rho + self.k_mu + self.k_pi


class _KnownKeys:
    """The key memo: pk -> the group it is known to be a member of, oldest
    first, at most KNOWN_KEYS_CAP keys.  Keyed by pk alone, so an entry
    holds no tuple and a lookup hashes no group; a pk is remembered for
    one group at a time, and a hit needs that very group object.  An object
    rather than a module-level dict, so code that snapshots module dicts
    (the benchmark's tracer) sees one binding that never changes.

    An OrderedDict, whose popitem(last=False) drops the oldest key in
    constant time.  A full memo evicts on every keygen, and a plain dict's
    next(iter(...)) first steps over the slots of every key evicted since
    its last resize: 0.9 us per add against 0.35 us here (timeit, 1024
    keys, Python 3.11)."""

    def __init__(self):
        self.groups = collections.OrderedDict()

    def knows(self, group, pk: int) -> bool:
        return self.groups.get(pk) is group

    def add(self, group, pk: int):
        if pk not in self.groups and len(self.groups) >= KNOWN_KEYS_CAP:
            self.groups.popitem(last=False)
        self.groups[pk] = group


_known_keys = _KnownKeys()


def is_public_key(group, pk) -> bool:
    """group.is_element(pk), tested only for a key the memo lacks.

    A key that passes is recorded.  Only exact ints are looked up or
    recorded: a float equal to a recorded key hashes like it, yet
    ``is_element`` refuses every non-int.
    """
    if type(pk) is not int:
        return group.is_element(pk)
    if _known_keys.knows(group, pk):
        return True
    if not group.is_element(pk):
        return False
    _known_keys.add(group, pk)
    return True


def kem_keygen(group, rng) -> KemKeyPair:
    """Fresh keypair (x, g^x) from the injected randomness source; g^x
    comes from ``group.base``.  g^x is a member by construction, so it is
    recorded in the key memo and ``is_public_key`` does not test it while
    the memo holds it."""
    sk = group.random_scalar(rng)
    pk = group.base(sk)
    _known_keys.add(group, pk)
    return KemKeyPair(sk, pk)


def h_star(group, s: int) -> bytes:
    """Concatenation of the three key oracles on one shared secret."""
    return b"".join(ro_hsym(tag, group, s) for tag in ("rho", "mu", "pi"))


def kem_chain_create(group, x: int, pubkeys) -> tuple:
    """Sender-side chain for the given hop public keys: a tuple of one
    LayerSecrets per hop, in path order.

    The keys must already be group elements: ``validate_spec`` checks them
    with ``is_public_key``, before ``derive`` builds a chain, so this does
    not test again.
    Each alpha_i = g^(x*b_0*...*b_{i-1}) is one ``group.base`` power and
    each s_i one ``group.exp`` power.
    """
    if not pubkeys:
        raise ValueError("a KEM chain needs at least one hop public key")
    # Not an assert, which python -O strips: x = 0 would put g^0, the
    # identity, on the wire.
    if not group.is_scalar(x):
        raise ValueError("the chain secret x must be a scalar in [1, q)")
    base, exp, q = group.base, group.exp, group.q
    layers = []
    exponent = x
    for pk in pubkeys:
        alpha = base(exponent)
        b, k_rho, k_mu, k_pi = ro_layer(group, alpha, exp(pk, exponent))
        layers.append(LayerSecrets(alpha, b, k_rho, k_mu, k_pi))
        exponent = exponent * b % q
    return tuple(layers)


def kem_decap(group, sk: int, alpha: int) -> LayerSecrets:
    """Relay-side decapsulation; agrees with the sender's layer at this hop.

    alpha comes off the wire, so the caller checks membership first
    (``proc_onion`` decodes it).
    """
    return LayerSecrets(alpha, *ro_layer(group, alpha, group.exp(alpha, sk)))


def kem_blind(group, alpha: int, b: int) -> int:
    """Re-randomize alpha for the next hop."""
    return group.exp(alpha, b)


class KemGameOracles:
    """Oracle front end handed to KEM-game adversaries.

    decap answers as the honest relay would, from kem_decap, but refuses
    anything but an exact int, a non-member and the challenge element;
    h_star and h_b are the random oracles the chain is built from.
    """

    def __init__(self, group, sk):
        self._group = group
        self._sk = sk
        self.challenge_alpha = None

    def decap(self, alpha):
        """(h_*(alpha^sk), h_b(alpha, alpha^sk)), or None for a non-member
        or the challenge alpha.  An exact int, so an int subclass cannot
        answer the challenge comparison its own way."""
        if (type(alpha) is not int or not self._group.is_element(alpha)
                or alpha == self.challenge_alpha):
            return None
        layer = kem_decap(self._group, self._sk, alpha)
        return layer.keys, layer.b

    def h_star(self, s):
        return h_star(self._group, s)

    def h_b(self, alpha, s):
        return ro_hb(self._group, alpha, s)


def kem_game_run(adversary, group, rng, reveal_secret=False):
    """Run the KEM indistinguishability experiment against one adversary.

    The adversary object implements begin(group, pk, oracles), submit,
    on_challenge and guess.  Its n - 1 submitted keys must be exact ints,
    distinct and group elements, or it is refused with ValueError before
    the bit is drawn.  With
    reveal_secret=True the challenger leaks its chain secret x' to the
    adversary after the challenge (white-box positive control).
    Returns a result dict including a transcript of (label, byte-length)
    pairs, which must be independent of the hidden bit.
    """
    keypair = kem_keygen(group, rng.fork(b"keygen"))
    oracles = KemGameOracles(group, keypair.sk)
    transcript = [("pk", group.elem_len)]

    adversary.begin(group, keypair.pk, oracles)
    j, pubkeys = adversary.submit()

    n = len(pubkeys)
    if type(j) is not int or not 0 <= j < n <= MAX_HOPS:
        raise ValueError("challenge position out of range")
    submitted = [pk for i, pk in enumerate(pubkeys) if i != j]
    # Exact ints, so no key can answer the distinctness test its own way.
    if len(submitted) != n - 1 or any(type(pk) is not int for pk in submitted):
        raise ValueError("expected n-1 public keys, each an int, around position j")
    if len(set(submitted)) != len(submitted) or any(
        not is_public_key(group, pk) for pk in submitted
    ):
        raise ValueError("submitted public keys must be distinct valid elements")

    ys = list(pubkeys)
    ys[j] = keypair.pk

    bit = rng.fork(b"bit").read(1)[0] & 1
    x = group.random_scalar(rng.fork(b"x"))

    # Positions 0..j are the honest chain.  The hidden bit picks position
    # j's keys and blinding factor b, and the chain after j continues from
    # x*b_0*...*b_{j-1}*b.
    layers = kem_chain_create(group, x, ys[:j + 1])
    alpha = oracles.challenge_alpha = layers[j].alpha
    if bit == 0:
        keys, b = layers[j].keys, layers[j].b
    else:
        keys = rng.fork(b"rkeys").read(3 * KAPPA)
        b = group.random_scalar(rng.fork(b"rblind"))
    if j + 1 < n:
        exponent = math.prod([x, b] + [layer.b for layer in layers[:j]]) % group.q
        layers += kem_chain_create(group, exponent, ys[j + 1:])
    handed = [(layer.keys, layer.b) for layer in layers]
    pre, post = handed[:j], handed[j + 1:]

    transcript.append(("aux", group.elem_len + sum(3 * KAPPA for _ in pre) + len(pre)))
    transcript.append(("challenge", group.elem_len + 3 * KAPPA + 1))
    transcript.append(("post", sum(3 * KAPPA for _ in post) + len(post)))

    adversary.on_challenge(layers[0].alpha, pre, (alpha, keys, b), post)
    if reveal_secret:
        adversary.on_reveal(x)
    guess = adversary.guess()
    transcript.append(("guess", 1))
    return {
        "b": bit,
        "guess": guess,
        "adversary_won": guess == bit,
        "transcript": transcript,
    }


class GuessingKemAdversary:
    """Negative control: ignores everything and flips a coin."""

    def __init__(self, rng, n=3, j=1):
        self._rng = rng
        self._n = n
        self._j = j

    def begin(self, group, pk, oracles):
        self._group = group

    def submit(self):
        pubkeys = [None if i == self._j else kem_keygen(self._group, self._rng).pk
                   for i in range(self._n)]
        return self._j, pubkeys

    def on_challenge(self, alpha0, pre, challenge, post):
        pass

    def guess(self):
        return self._rng.read(1)[0] & 1


class WhiteBoxKemAdversary(GuessingKemAdversary):
    """Positive control: told the challenger secret x', it recomputes s_j
    and compares h_*(s_j) against the challenge keys."""

    def begin(self, group, pk, oracles):
        super().begin(group, pk, oracles)
        self._pk = pk
        self._oracles = oracles

    def on_challenge(self, alpha0, pre, challenge, post):
        self._pre = pre
        self._challenge = challenge

    def on_reveal(self, x):
        exponent = math.prod([x] + [b for _keys, b in self._pre]) % self._group.q
        s_j = self._group.exp(self._pk, exponent)
        expected = self._oracles.h_star(s_j)
        self._answer = 0 if expected == self._challenge[1] else 1

    def guess(self):
        return self._answer
