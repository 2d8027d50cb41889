"""Byte-exact onion packet format: forming, processing, and replying.

An onion is its wire bytes: onion_len bytes, a header eta = alpha | beta |
gamma (alpha a group element's fixed-width encoding) followed by the
payload delta.  The sender derives every byte it sends from a seed in one
pass (derive) and keeps only a ReplyOpening to open the answer; relays peel
one layer at a time with only their private key.  proc_onion is the one
parse of an onion, and the one membership test of its alpha.  Forward
payloads may embed a reply block, a pre-built reply header between the
first reply hop's address and the key sealing the answer, so the exit relay
can send an answer back without learning who asked.  A reply block is its
bytes, and only this module reads its fields.
"""

import collections
import hashlib
from functools import cached_property

from .crypto import KAPPA, SeedRng, mac, prg, prg_xor, prp_dec, prp_enc, xor_bytes
from .group import GroupDecodeError
from .kem import MAX_HOPS, is_public_key, kem_blind, kem_chain_create, kem_decap

# Address type tags (first byte of every addr_len-wide address field).
ADDR_RELAY = 0x01
ADDR_EXIT = 0x02        # the final-hop sentinel on a forward path
ADDR_REPLY_RETURN = 0x03  # final hop of a reply path: the original sender
ADDR_RECEIVER = 0x04

REPLY_OPENING_CAP = 64  # replies one view awaits at a time
# A replay cache packs each 16-byte tag into one of REPLAY_SHARDS bytearray
# buckets by the tag's first byte, about 20 bytes a tag with the buckets'
# slack and headers.  A check scans n/256 records at n tags: about 40 at
# the 9,000-10,000 tags a view holds after a 30 s relay benchmark run.  The
# buckets never split, since no workload holds the 10^5 tags a view where
# a longer scan starts to show; ROADMAP item 6's key epochs, not a deeper
# index, are to bound a view.
REPLAY_SHARDS = 256

# Address fields and MACs are KAPPA bytes wide (FormatParams.addr_len), so
# the forward trip's exit address and the 2*kappa zeros a relay appends to
# beta before peeling it are format constants.
_EXIT_ADDR = bytes([ADDR_EXIT]) + bytes(KAPPA - 1)
_PEEL_PAD = bytes(2 * KAPPA)


class FormatParams(collections.namedtuple("FormatParams", "group payload_len legacy_zero_filler",
                                          defaults=(355, False))):
    """All width constants of the packet format.

    kappa (crypto.KAPPA) and max_hops (kem.MAX_HOPS) are format constants,
    read here but not settable.  beta always spans (2*max_hops+1)*kappa
    bytes regardless of path length; payload_len must leave room for the
    mandatory payload fields plus a nonempty message.  legacy_zero_filler
    selects the broken variant whose final-layer header filler is all-zero
    bytes instead of random ones.  Each width is computed on first read and
    kept in the instance's __dict__, outside the fields, so equality, hashing
    and _replace see the fields alone; no attribute can be set.
    """

    kappa = KAPPA
    max_hops = MAX_HOPS

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # A ValueError, not an assert: python -O strips asserts, and an
        # undersized payload_len would then fail every hop with bad-width.
        if self.payload_len < self.min_payload_len:
            raise ValueError("payload_len must be at least %d" % self.min_payload_len)
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
    def addr_len(self):
        # The beta slicing tables assume address fields and MACs share a width.
        return self.kappa

    @cached_property
    def beta_len(self):
        return (2 * self.max_hops + 1) * self.kappa

    @cached_property
    def header_len(self):
        return self.group.elem_len + self.beta_len + self.kappa

    @cached_property
    def reply_block_len(self):
        # first-hop address + serialized reply header + k_tilde
        return self.addr_len + self.header_len + self.kappa

    @cached_property
    def min_payload_len(self):
        # 0_kappa + receiver address + reply block + 2-byte frame + 1 byte
        return self.kappa + self.addr_len + self.reply_block_len + 3

    @cached_property
    def msg_slot_len(self):
        return self.payload_len - (self.kappa + self.addr_len + self.reply_block_len)

    @cached_property
    def max_msg_len(self):
        return self.msg_slot_len - 2

    @cached_property
    def stream_len(self):
        # Widest PRG slice any header operation needs: (2*max_hops+3)*kappa.
        return self.beta_len + 2 * self.kappa

    @cached_property
    def onion_len(self):
        return self.header_len + self.payload_len


class OnionSpec(collections.namedtuple("OnionSpec", "seed message receiver path reply_path",
                                       defaults=((),))):
    """Everything that determines one onion: seed, message, receiver, and the
    two paths as ((name, pubkey), ...) tuples.  An empty reply path means the
    onion is not repliable."""

    __slots__ = ()


class ProcResult(collections.namedtuple(
        "ProcResult", "kind next_hop next_onion message receiver reply_block reason",
        defaults=(None,) * 6)):
    """Outcome of processing one onion at one relay.

    kind is one of "forward", "exit", "reply", "fail"; every other field
    defaults to None.  A forward's next_onion is the next layer's bytes; a
    repliable exit's reply_block is the block parse_reply_block admitted.
    Callers other than tests must treat every "fail" identically; reason is
    diagnostic only.
    """

    __slots__ = ()


def _fail(reason):
    return ProcResult(kind="fail", reason=reason)


# ---------------------------------------------------------------------------
# Address fields

def encode_addr(tag: int, name: bytes, params) -> bytes:
    """Pack a type tag and a short name into a fixed-width address field."""
    check_name(name, params)
    return bytes([tag]) + name.ljust(params.addr_len - 1, b"\x00")


def check_name(name: bytes, params):
    """Raise ValueError unless name is exact bytes that fit an address field
    after its tag."""
    # A ValueError, not an assert: python -O strips asserts.
    if type(name) is not bytes:
        raise ValueError("name %r is not bytes" % (name,))
    if len(name) > params.addr_len - 1:
        raise ValueError("name %r does not fit an address field" % (name,))


def decode_addr(field: bytes):
    """Split an address field into (tag, name) with zero padding removed."""
    return field[0], field[1:].rstrip(b"\x00")


def relay_addr(name, params):
    return encode_addr(ADDR_RELAY, name, params)


def receiver_addr(name, params):
    return encode_addr(ADDR_RECEIVER, name, params)


# ---------------------------------------------------------------------------
# Spec validation

def validate_spec(spec: OnionSpec, params: FormatParams):
    """The one definition of a valid onion description.

    Hop keys are tested with ``kem.is_public_key``: a key that kem_keygen
    made, or that passed an earlier check, is not tested again while the
    key memo holds it.  A non-member never enters the memo, so an
    off-group key is refused every time."""
    # A ValueError, not an assert: python -O strips asserts, and two specs
    # with equal paths and an empty seed would form identical onions.
    if not isinstance(spec.seed, bytes) or not spec.seed:
        raise ValueError("seed must be nonempty bytes")
    validate_shape([name for name, _pk in spec.path],
                   [name for name, _pk in spec.reply_path], spec.message, params)
    # Exact bytes, so a str or a tuple of addr_len items cannot fail later,
    # inside derive.
    if type(spec.receiver) is not bytes or len(spec.receiver) != params.addr_len:
        raise ValueError("receiver must be a full address field of bytes")
    for path in (spec.path, spec.reply_path):
        for _name, pk in path:
            if not is_public_key(params.group, pk):
                raise ValueError("hop public key is not a group element")


def validate_shape(path_names, reply_names, message: bytes, params: FormatParams):
    """The key-free rules of validate_spec, for callers with names but no
    keys: path lengths, acyclic paths, name widths, and a message that is
    exactly bytes and fits the payload frame.  Exact bytes, so a str that
    passes the width test cannot fail later, inside derive."""
    if not 1 <= len(path_names) <= params.max_hops:
        raise ValueError("forward path length out of range")
    if len(reply_names) > params.max_hops:
        raise ValueError("reply path length out of range")
    if type(message) is not bytes:
        raise ValueError("message must be bytes")
    if len(message) > params.max_msg_len:
        raise ValueError("message does not fit the payload frame")
    for names in (path_names, reply_names):
        if len(set(names)) != len(names):
            raise ValueError("path must be acyclic")
        for name in names:
            check_name(name, params)


# ---------------------------------------------------------------------------
# Header construction (sender side)

def build_padding(chain: tuple, upto: int, params: FormatParams) -> bytes:
    """The accumulated filler Phi_upto that pads peeled-off header space.

    Phi_0 is empty; each hop extends it by 2*kappa bytes and XORs in the tail
    of that hop's beta keystream, exactly the bytes a peeling relay will
    later shift into view.
    """
    # A ValueError, not an assert: python -O strips asserts, and upto past
    # the chain would then return the whole chain's padding.
    if not 0 <= upto <= len(chain):
        raise ValueError("padding depth out of range for the chain")
    streams = [prg(layer.k_rho, params.stream_len) for layer in chain[:upto]]
    return _padding(streams, params)


def _padding(streams, params) -> bytes:
    """Phi_len(streams), from the beta keystreams of hops 1..len(streams)."""
    kappa, r = params.kappa, params.max_hops
    phi = b""
    for i, stream in enumerate(streams, start=1):
        phi = xor_bytes(phi + b"\x00" * (2 * kappa), stream[(2 * (r - i) + 3) * kappa:])
    return phi


def serialize_header(alpha: int, beta: bytes, gamma: bytes, params) -> bytes:
    """The one header encoder: alpha's fixed-width encoding, beta, gamma."""
    out = params.group.encode(alpha) + beta + gamma
    if len(out) != params.header_len:
        raise ValueError("header fields have the wrong widths")
    return out


def build_header(chain: tuple, path_addrs, final_contents: bytes, params):
    """The bytes of all n header layers for one direction, n <= max_hops
    (validate_spec).

    path_addrs[i] is the address field of hop i+1 (path_addrs[0], the first
    hop's own address, is never embedded -- the sender delivers directly).
    final_contents fills the last layer's routing slot, width
    (2*(max_hops - n) + 3)*kappa; its tail filler must already be chosen
    (random, or zeros in legacy mode).
    """
    kappa, r = params.kappa, params.max_hops
    n = len(chain)
    if not 1 <= n <= r:
        raise ValueError("build_header needs 1 to max_hops layers")
    if len(path_addrs) != n:
        raise ValueError("build_header needs one address per hop")
    if len(final_contents) != (2 * (r - n) + 3) * kappa:
        raise ValueError("final routing contents have the wrong width")

    streams = [prg(layer.k_rho, params.stream_len) for layer in chain]
    phi = _padding(streams[: n - 1], params)

    beta = xor_bytes(final_contents, streams[n - 1][: len(final_contents)]) + phi
    gamma = mac(chain[n - 1].k_mu, beta)
    headers = [serialize_header(chain[n - 1].alpha, beta, gamma, params)]
    for i in range(n - 2, -1, -1):
        inner = path_addrs[i + 1] + gamma + beta[: params.beta_len - 2 * kappa]
        beta = xor_bytes(inner, streams[i][: params.beta_len])
        gamma = mac(chain[i].k_mu, beta)
        headers.append(serialize_header(chain[i].alpha, beta, gamma, params))
    headers.reverse()
    return headers


# ---------------------------------------------------------------------------
# Payload construction

def _frame(message: bytes, params) -> bytes:
    # Exact bytes, so a str is refused here and not at ljust's TypeError.
    if type(message) is not bytes:
        raise ValueError("message must be bytes")
    if len(message) > params.max_msg_len:
        raise ValueError("message does not fit the payload frame")
    return len(message).to_bytes(2, "big") + message.ljust(
        params.max_msg_len, b"\x00"
    )


def _unframe(framed: bytes):
    length = int.from_bytes(framed[:2], "big")
    if length > len(framed) - 2:
        return None
    return framed[2 : 2 + length]


def parse_reply_block(block: bytes, params):
    """The block itself when it is a reply block an exit can answer from,
    or None: for anything but exact bytes, a width other than
    reply_block_len, the all-zero filler, or an embedded header whose alpha
    is not a group element.  The block may come off the network (a
    nymserver registration), so it is refused, not asserted, and exact
    bytes, so no holder keeps a caller's mutable object."""
    if (type(block) is not bytes or len(block) != params.reply_block_len
            or block == bytes(params.reply_block_len)):
        return None
    try:
        params.group.decode(block[params.addr_len : params.addr_len + params.group.elem_len])
    except GroupDecodeError:
        return None
    return block


def build_payload_forward(params, receiver: bytes, reply_block, message: bytes) -> bytes:
    """Innermost forward plaintext: 0_kappa | receiver | reply block | message.

    A missing reply block (None) is encoded as an all-zero block of the same
    width, so repliable and non-repliable payloads are indistinguishable by
    length.  A reply plaintext is this layout with an all-zero receiver and
    no reply block.
    """
    if reply_block is None:
        reply_block = bytes(params.reply_block_len)
    out = b"\x00" * params.kappa + receiver + reply_block + _frame(message, params)
    if len(out) != params.payload_len:
        raise ValueError("receiver address or reply block has the wrong width")
    return out


def _open_payload(plain: bytes, params):
    """(receiver, reply block, message) of an innermost plaintext, or None
    when its zero prefix or message frame is broken."""
    kappa = params.kappa
    if plain[:kappa] != b"\x00" * kappa:
        return None
    block_at = kappa + params.addr_len
    message_at = block_at + params.reply_block_len
    message = _unframe(plain[message_at:])
    if message is None:
        return None
    return plain[kappa:block_at], plain[block_at:message_at], message


# ---------------------------------------------------------------------------
# Derivation of a complete onion from its spec

class ReplyOpening(collections.namedtuple("ReplyOpening", "header k_pis k_tilde")):
    """What the creator of a repliable onion keeps to open the reply: the
    header the reply arrives with, which the sender's view files it under
    and recognizes the reply by, the PRP keys of the reply relays before
    the sender in hop order, and k_tilde, under which the exit sealed the
    reply payload.  The header is bytes, as every header and onion is.  It
    holds no seed, so it regenerates nothing else of the onion."""

    __slots__ = ()


class Derived(collections.namedtuple(
        "Derived", "fwd_onions fwd_chain reply_block opening reply_headers message params")):
    """Every layer of one onion, derived once from its spec, as bytes.

    fwd_onions holds layers 1..n of the forward trip.  Layers n+1..n+nr are
    the reply trip carrying the spec's own message back: reply_headers holds
    their headers, and their payloads, which no sender sends, are sealed only
    on the first onion(i) with i > n or access to onions, then kept here.
    reply_block is the block the forward payload embeds: the first reply
    hop's address, reply_headers[0] and k_tilde, reply_block_len bytes.
    reply_block and opening are None, and reply_headers is empty, when the
    onion is not repliable.
    """

    @cached_property
    def onions(self) -> tuple:
        """Layers 1..n+nr in hop order."""
        if self.opening is None:
            return self.fwd_onions
        # The exit seals the reply, then every reply-path relay before the
        # sender peels one PRP layer.
        at_delta = self.params.header_len
        reply = [build_reply_onion(self.reply_block, self.message, self.params)[0]]
        for header, k_pi in zip(self.reply_headers[1:], self.opening.k_pis):
            reply.append(header + prp_dec(k_pi, reply[-1][at_delta:]))
        return self.fwd_onions + tuple(reply)

    def header(self, i: int) -> bytes:
        """The header of layer i of the combined path; it seals no payload."""
        n = len(self.fwd_onions)
        if not 1 <= i <= n + len(self.reply_headers):
            raise ValueError("layer index out of range")
        if i > n:
            return self.reply_headers[i - n - 1]
        return self.fwd_onions[i - 1][: self.params.header_len]

    def onion(self, i: int) -> bytes:
        """The onion exactly as it arrives at hop i of its combined path."""
        self.header(i)  # the range check
        return self.fwd_onions[i - 1] if i <= len(self.fwd_onions) else self.onions[i - 1]


def _trip(rng: SeedRng, label: bytes, path, prefix: bytes, params):
    """(chain, headers) of one trip over path, ((name, pubkey), ...).

    The chain's secret comes from the fork b"x-" + label.  The last layer's
    routing slot holds prefix, then filler from the fork label + b"-filler"
    (all zeros in legacy mode) up to (2*(max_hops - len(path)) + 3)*kappa.
    """
    x = params.group.random_scalar(rng.fork(b"x-" + label))
    chain = kem_chain_create(params.group, x, [pk for _name, pk in path])
    n_filler = (2 * (params.max_hops - len(path)) + 3) * params.kappa - len(prefix)
    filler = (bytes(n_filler) if params.legacy_zero_filler
              else rng.fork(label + b"-filler").read(n_filler))
    addrs = [encode_addr(ADDR_RELAY, name, params) for name, _pk in path]
    return chain, build_header(chain, addrs, prefix + filler, params)


def derive(spec: OnionSpec, params: FormatParams) -> Derived:
    """Expand a spec's seed into both trips (one _trip each) and the forward
    payload layers; the reply payload layers are sealed on request (see
    Derived).  The reply trip's last routing slot carries an ident from the
    fork b"ident", which the opening does not keep.  Nothing is cached
    across calls: a caller that needs several layers of one onion keeps the
    result."""
    validate_spec(spec, params)
    rng = SeedRng(spec.seed)
    n = len(spec.path)
    fwd_chain, fwd_headers = _trip(rng, b"forward", spec.path, _EXIT_ADDR, params)

    rep_headers = ()
    reply_block = None
    opening = None
    if spec.reply_path:
        sender_name = spec.reply_path[-1][0]
        prefix = (encode_addr(ADDR_REPLY_RETURN, sender_name, params)
                  + rng.fork(b"ident").read(params.kappa))
        rep_chain, rep_headers = _trip(rng, b"reply", spec.reply_path, prefix, params)
        k_tilde = rng.fork(b"k-tilde").read(params.kappa)
        reply_block = relay_addr(spec.reply_path[0][0], params) + rep_headers[0] + k_tilde
        # The sender's own reply hop applies no PRP layer, so its key is not kept.
        k_pis = tuple(layer.k_pi for layer in rep_chain[:-1])
        opening = ReplyOpening(header=rep_headers[-1], k_pis=k_pis, k_tilde=k_tilde)

    plaintext = build_payload_forward(params, spec.receiver, reply_block, spec.message)
    fwd_deltas = [None] * n
    delta = plaintext
    for i in range(n - 1, -1, -1):
        delta = prp_enc(fwd_chain[i].k_pi, delta)
        fwd_deltas[i] = delta

    return Derived(
        fwd_onions=tuple(map(bytes.__add__, fwd_headers, fwd_deltas)),
        fwd_chain=fwd_chain,
        reply_block=reply_block,
        opening=opening,
        reply_headers=tuple(rep_headers),
        message=spec.message,
        params=params,
    )


def form_onion(i: int, spec: OnionSpec, params: FormatParams) -> bytes:
    """The onion exactly as it arrives at hop i of its combined path: a
    one-shot derive(spec, params).onion(i)."""
    return derive(spec, params).onion(i)


def recognize_onion(i: int, onion: bytes, derived: Derived) -> bool:
    """Header-only comparison against the i-th layer of a derived onion; the
    payload may have been tampered with and is deliberately ignored, and a
    reply layer's payload is never sealed for it.  A caller that needs the
    exact width checks it.

    Compares the header bytes, so a malformed header is simply unequal.
    Raises ValueError for an i outside 1..n+nr, as Derived.onion does.
    """
    return onion[: derived.params.header_len] == derived.header(i)


def tag_payload(onion: bytes, mask: bytes, params) -> bytes:
    """Adversary helper: XOR a nonzero mask into the payload only."""
    at_delta = params.header_len
    if len(mask) != len(onion) - at_delta:
        raise ValueError("mask width must equal payload width")
    if mask == b"\x00" * len(mask):
        raise ValueError("mask must be nonzero")
    return onion[:at_delta] + xor_bytes(onion[at_delta:], mask)


# ---------------------------------------------------------------------------
# Relay-side processing

class InMemoryView:
    """A party's replay cache and a sender's reply expectations: the one
    store proc_onion reads and writes, for relays, senders and the game
    oracles' honest parties alike.

    The replay cache keeps a tag per processed header rather than the
    header itself, since it grows with every onion a long-lived relay
    accepts: the first KAPPA bytes of the header's SHA-256 digest (128
    bits, the format's MAC width).  Tags are packed 16 bytes a record into
    bytearray buckets, REPLAY_SHARDS of them by the tag's first byte, each
    in arrival order.  A tag is present when its bucket holds it at a
    record boundary, so a check scans n/256 records at n tags.  Timed
    with full-width headers on a 2-core x86-64 VM (CPython 3.11.7), a
    check that adds a tag costs about 1.4 us at 10^4 tags, 3.2 us at 10^5
    and 28 us at 10^6.  A 16-way split of full buckets kept the last near
    3 us, but no workload comes near 10^5 tags a view, so the buckets do
    not split; ROADMAP item 6's key epochs are the planned bound on a
    view.  The cache costs about 20 bytes a tag and has no bound yet.
    An expectation is a ReplyOpening filed under the header its reply
    arrives with, until proc_onion opens that reply; a view keeps at most
    REPLY_OPENING_CAP of them and evicts the oldest to make room for a new
    header, so a reply that comes back too late drops as unsolicited.
    lookup_reply hashes the header only while the view holds an
    expectation, so a relay's view costs proc_onion no lookup.
    """

    def __init__(self):
        self._seen = [None] * REPLAY_SHARDS
        self._expectations = {}

    @staticmethod
    def _tag(header_bytes: bytes) -> bytes:
        return hashlib.sha256(header_bytes).digest()[:KAPPA]

    def check_and_add(self, header_bytes: bytes) -> bool:
        tag = self._tag(header_bytes)
        bucket = self._seen[tag[0]]
        if bucket is None:
            self._seen[tag[0]] = bytearray(tag)
            return True
        if _holds_tag(bucket, tag):
            return False
        bucket += tag
        return True

    def expect_reply(self, opening: ReplyOpening):
        if (opening.header not in self._expectations
                and len(self._expectations) >= REPLY_OPENING_CAP):
            del self._expectations[next(iter(self._expectations))]
        self._expectations[opening.header] = opening

    def lookup_reply(self, header: bytes):
        """The opening filed under this expected reply header, or None."""
        return self._expectations.get(header) if self._expectations else None

    def forget_reply(self, header: bytes):
        self._expectations.pop(header, None)


def _holds_tag(bucket: bytearray, tag: bytes) -> bool:
    """Whether bucket holds tag as one of its KAPPA-byte records: a match
    that straddles two records is skipped and the search goes on past it."""
    at = bucket.find(tag)
    while at >= 0:
        if not at % KAPPA:
            return True
        at = bucket.find(tag, at + 1)
    return False


def _header_fields(data: bytes, params):
    """(alpha field, beta, gamma): the header fields of an onion's bytes, or
    of a header's."""
    at_beta = params.group.elem_len
    at_gamma = at_beta + params.beta_len
    return data[:at_beta], data[at_beta:at_gamma], data[at_gamma:params.header_len]


def _peel_beta(layer, beta: bytes):
    wide = prg_xor(layer.k_rho, beta + _PEEL_PAD)
    return wide[:KAPPA], wide[KAPPA:2 * KAPPA], wide[2 * KAPPA:]


def zero_run(sk: int, onion: bytes, params) -> int:
    """The number of zero bytes right after the routing field of an onion's
    header that the holder of sk peels: what a relay can read off the
    filler of its own layer (the legacy zero filler leaks the path length
    there).  It tests neither the MAC nor alpha's membership: pass a layer
    that reached this relay intact."""
    alpha_field, beta, _gamma = _header_fields(onion, params)
    layer = kem_decap(params.group, sk, int.from_bytes(alpha_field, "big"))
    _addr, gamma_next, beta_next = _peel_beta(layer, beta)
    tail = gamma_next + beta_next
    return len(tail) - len(tail.lstrip(b"\x00"))


def proc_onion(sk: int, data: bytes, self_name: bytes, params, view) -> ProcResult:
    """Process one onion, its wire bytes, with this relay's private key:
    the one parse of an onion.

    Anything but exact bytes of onion_len fails at once, before a lookup.
    A sender recognizes the reply it awaits by its header alone, before any
    group operation, since it built that header itself: it makes the
    replay test, retires the ReplyOpening filed under the header (whether
    or not the payload then opens) and opens the payload, peeling no PRP
    layer, since the reply path's last PRP key was never applied.  Any
    other onion is peeled as a relay peels it: the decode of its alpha
    field is the hop's one membership test, and a forwarding or exit relay
    peels one PRP layer off the payload.  Every failure collapses to
    kind="fail"; the reason field exists for tests only and must never
    influence honest behavior.
    """
    # Exact bytes first: a bytearray is unhashable, so lookup_reply would
    # raise on one.
    if type(data) is not bytes or len(data) != params.onion_len:
        return _fail("bad-width")
    header, delta = data[: params.header_len], data[params.header_len :]
    opening = view.lookup_reply(header)
    if opening is not None:
        if not view.check_and_add(header):
            return _fail("replay")
        # The expected header is in the replay cache now, so no later copy
        # can open this reply: retire the opening whether or not the payload
        # opens.
        view.forget_reply(header)
        # Invert the reply-path PRP composition: re-encrypt under the keys of
        # the relays before the sender, last first, then strip k_tilde.
        plain = delta
        for k_pi in reversed(opening.k_pis):
            plain = prp_enc(k_pi, plain)
        opened = _open_payload(prp_dec(opening.k_tilde, plain), params)
        if opened is None:
            return _fail("integrity")
        return ProcResult(kind="reply", message=opened[2])

    alpha_field, beta, gamma = _header_fields(header, params)
    try:
        alpha = params.group.decode(alpha_field)
    except GroupDecodeError:
        return _fail("bad-element")

    layer = kem_decap(params.group, sk, alpha)
    if mac(layer.k_mu, beta) != gamma:
        return _fail("mac")
    if not view.check_and_add(header):
        return _fail("replay")

    addr, gamma_next, beta_next = _peel_beta(layer, beta)
    tag, name = decode_addr(addr)

    if tag == ADDR_RELAY:
        alpha_next = kem_blind(params.group, alpha, layer.b)
        return ProcResult(
            kind="forward",
            next_hop=name,
            next_onion=(params.group.encode(alpha_next) + beta_next + gamma_next
                        + prp_dec(layer.k_pi, delta)),
        )

    if tag == ADDR_EXIT:
        opened = _open_payload(prp_dec(layer.k_pi, delta), params)
        if opened is None:
            return _fail("integrity")
        receiver, block, message = opened
        return ProcResult(
            kind="exit",
            message=message,
            receiver=receiver,
            reply_block=parse_reply_block(block, params),
        )

    if tag == ADDR_REPLY_RETURN:
        # Not a header this view awaits: a forged header carrying a known
        # ident fails here and leaves that ident's opening in place.
        return _fail("misdirected" if name != self_name else "unsolicited")

    return _fail("bad-address")


def form_reply(m_reply: bytes, onion_at_exit: bytes, exit_name: bytes, sk: int, params):
    """Build the reply onion an exit relay sends back, or None.

    Reprocesses the given exit-layer onion against a fresh replay cache,
    outside any party's replay state, and builds the reply from the
    embedded reply block with build_reply_onion, whose (onion, first-hop
    name) it returns.  None when the forward onion was non-repliable or
    malformed.  This is the paper's one-shot FormReply, kept only as the
    tests' reference.  Relays, the game challengers and the demos keep the
    reply block from their single peel and call build_reply_onion instead,
    and every game adversary answers from its one exit peel through
    games._BaseAdversary.exit_reply.
    """
    result = proc_onion(sk, onion_at_exit, exit_name, params, InMemoryView())
    if result.kind != "exit" or result.reply_block is None:
        return None
    try:
        return build_reply_onion(result.reply_block, m_reply, params)
    except ValueError:
        return None


def build_reply_onion(block: bytes, m_reply: bytes, params):
    """The reply onion for a reply block and the name of the relay it goes
    to first: the reply message sealed under the block's k_tilde behind its
    stored header.  The block is one derive wrote or parse_reply_block
    admitted, so its fields are read at their fixed offsets: the first
    hop's address, the header, then k_tilde.  Raises ValueError when the
    message does not fit the payload frame."""
    at_header = params.addr_len
    at_key = at_header + params.header_len
    plain = build_payload_forward(params, bytes(params.addr_len), None, m_reply)
    _tag, first_hop = decode_addr(block[:at_header])
    return block[at_header:at_key] + prp_enc(block[at_key:], plain), first_hop
