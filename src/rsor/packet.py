"""Byte-exact onion packet format: forming, processing, and replying.

An onion is a fixed-width packet (header eta = (alpha, beta, gamma), payload
delta).  The sender derives every byte from a seed in one pass (derive) and
keeps only a ReplyOpening to open the answer; relays peel one layer at a
time with only their private key.  Forward payloads may embed a pre-built
reply header so the exit relay can send an answer back without learning who
asked.
"""

import hashlib
from dataclasses import dataclass

from .crypto import SeedRng, mac, prg, prp_dec, prp_enc, xor_bytes
from .group import GroupDecodeError, GroupParams
from .kem import KemChain, kem_blind, kem_chain_create, kem_decap

# Address type tags (first byte of every addr_len-wide address field).
ADDR_RELAY = 0x01
ADDR_EXIT = 0x02        # the final-hop sentinel on a forward path
ADDR_REPLY_RETURN = 0x03  # final hop of a reply path: the original sender
ADDR_RECEIVER = 0x04


@dataclass(frozen=True)
class FormatParams:
    """All width constants of the packet format.

    beta always spans (2*max_hops+1)*kappa bytes regardless of path length;
    payload_len must leave room for the mandatory payload fields plus a
    nonempty message.  legacy_zero_filler selects the broken variant whose
    final-layer header filler is all-zero bytes instead of random ones.
    """

    group: GroupParams
    kappa: int = 16
    max_hops: int = 5
    addr_len: int = 16
    payload_len: int = 355
    legacy_zero_filler: bool = False

    def __post_init__(self):
        assert self.kappa >= 8 and self.max_hops >= 1
        # The beta slicing tables assume address fields and MACs share a width.
        assert self.addr_len == self.kappa, "addr_len must equal kappa"
        assert self.payload_len >= self.min_payload_len

    @property
    def beta_len(self):
        return (2 * self.max_hops + 1) * self.kappa

    @property
    def header_len(self):
        return self.group.elem_len + self.beta_len + self.kappa

    @property
    def reply_block_len(self):
        # first-hop address + serialized reply header + k_tilde
        return self.addr_len + self.header_len + self.kappa

    @property
    def min_payload_len(self):
        # 0_kappa + receiver address + reply block + 2-byte frame + 1 byte
        return self.kappa + self.addr_len + self.reply_block_len + 3

    @property
    def msg_slot_len(self):
        return self.payload_len - (self.kappa + self.addr_len + self.reply_block_len)

    @property
    def max_msg_len(self):
        return self.msg_slot_len - 2

    @property
    def stream_len(self):
        # Widest PRG slice any header operation needs: (2*max_hops+3)*kappa.
        return self.beta_len + 2 * self.kappa

    @property
    def onion_len(self):
        return self.header_len + self.payload_len


@dataclass(frozen=True)
class Header:
    alpha: int
    beta: bytes
    gamma: bytes


@dataclass(frozen=True)
class Onion:
    header: Header
    delta: bytes


@dataclass(frozen=True)
class ReplyInfo:
    """What an exit relay needs to answer: where to send the pre-built reply
    header and the key sealing the reply payload.  ident is only known to the
    onion's creator (it travels encrypted inside eta0), so parsed instances
    carry None there."""

    first_hop: bytes
    eta0: Header
    k_tilde: bytes
    ident: bytes = None


@dataclass(frozen=True)
class OnionSpec:
    """Everything that determines one onion: seed, message, receiver, and the
    two paths as ((name, pubkey), ...) tuples.  An empty reply path means the
    onion is not repliable."""

    seed: bytes
    message: bytes
    receiver: bytes
    path: tuple
    reply_path: tuple = ()


@dataclass(frozen=True)
class ProcResult:
    """Outcome of processing one onion at one relay.

    kind is one of "forward", "exit", "reply", "fail".  Callers other than
    tests must treat every "fail" identically; reason is diagnostic only.
    """

    kind: str
    next_hop: bytes = None
    next_onion: Onion = None
    message: bytes = None
    receiver: bytes = None
    reply_info: ReplyInfo = None
    ident: bytes = None
    reason: str = None


def _fail(reason):
    return ProcResult(kind="fail", reason=reason)


# ---------------------------------------------------------------------------
# Address fields

def encode_addr(tag: int, name: bytes, params) -> bytes:
    """Pack a type tag and a short name into a fixed-width address field."""
    assert len(name) <= params.addr_len - 1, "name too long for address field"
    return bytes([tag]) + name.ljust(params.addr_len - 1, b"\x00")


def decode_addr(field: bytes):
    """Split an address field into (tag, name) with zero padding removed."""
    return field[0], field[1:].rstrip(b"\x00")


def relay_addr(name, params):
    return encode_addr(ADDR_RELAY, name, params)


def exit_addr(params):
    return encode_addr(ADDR_EXIT, b"", params)


def receiver_addr(name, params):
    return encode_addr(ADDR_RECEIVER, name, params)


# ---------------------------------------------------------------------------
# Spec validation

def validate_spec(spec: OnionSpec, params: FormatParams):
    """Check the structural invariants of an onion description."""
    # A ValueError, not an assert: python -O strips asserts, and two specs
    # with equal paths and an empty seed would form identical onions.
    if not isinstance(spec.seed, bytes) or not spec.seed:
        raise ValueError("seed must be nonempty bytes")
    if not 1 <= len(spec.path) <= params.max_hops:
        raise ValueError("forward path length out of range")
    if len(spec.reply_path) > params.max_hops:
        raise ValueError("reply path length out of range")
    if len(spec.message) > params.max_msg_len:
        raise ValueError("message does not fit the payload frame")
    if len(spec.receiver) != params.addr_len:
        raise ValueError("receiver must be a full address field")
    for path in (spec.path, spec.reply_path):
        names = [name for name, _pk in path]
        if len(set(names)) != len(names):
            raise ValueError("path must be acyclic")
        for name, pk in path:
            if len(name) > params.addr_len - 1:
                raise ValueError("relay name too long")
            if not params.group.is_element(pk):
                raise ValueError("hop public key is not a group element")


# ---------------------------------------------------------------------------
# Header construction (sender side)

def build_padding(chain: KemChain, upto: int, params: FormatParams) -> bytes:
    """The accumulated filler Phi_upto that pads peeled-off header space.

    Phi_0 is empty; each hop extends it by 2*kappa bytes and XORs in the tail
    of that hop's beta keystream, exactly the bytes a peeling relay will
    later shift into view.
    """
    kappa, r = params.kappa, params.max_hops
    assert 0 <= upto <= len(chain.layers)
    phi = b""
    for i in range(1, upto + 1):
        stream = prg(chain.layers[i - 1].k_rho, params.stream_len)
        phi = xor_bytes(phi + b"\x00" * (2 * kappa), stream[(2 * (r - i) + 3) * kappa:])
    return phi


def build_header(chain: KemChain, path_addrs, final_contents: bytes, params):
    """All n header layers for one direction.

    path_addrs[i] is the address field of hop i+1 (path_addrs[0], the first
    hop's own address, is never embedded -- the sender delivers directly).
    final_contents fills the last layer's routing slot, width
    (2*(max_hops - n) + 3)*kappa; its tail filler must already be chosen
    (random, or zeros in legacy mode).
    """
    kappa, r = params.kappa, params.max_hops
    n = len(chain.layers)
    if n > r:
        raise ValueError("path exceeds max_hops")
    assert len(path_addrs) == n
    assert len(final_contents) == (2 * (r - n) + 3) * kappa

    streams = [prg(layer.k_rho, params.stream_len) for layer in chain.layers]
    phi = build_padding(chain, n - 1, params)

    beta = xor_bytes(final_contents, streams[n - 1][: len(final_contents)]) + phi
    gamma = mac(chain.layers[n - 1].k_mu, beta, kappa)
    headers = [Header(chain.layers[n - 1].alpha, beta, gamma)]
    for i in range(n - 2, -1, -1):
        inner = path_addrs[i + 1] + gamma + beta[: params.beta_len - 2 * kappa]
        beta = xor_bytes(inner, streams[i][: params.beta_len])
        gamma = mac(chain.layers[i].k_mu, beta, kappa)
        headers.append(Header(chain.layers[i].alpha, beta, gamma))
    headers.reverse()
    return headers


# ---------------------------------------------------------------------------
# Payload construction

def _frame(message: bytes, params) -> bytes:
    assert len(message) <= params.max_msg_len
    return len(message).to_bytes(2, "big") + message.ljust(
        params.max_msg_len, b"\x00"
    )


def _unframe(framed: bytes):
    length = int.from_bytes(framed[:2], "big")
    if length > len(framed) - 2:
        return None
    return framed[2 : 2 + length]


def serialize_reply_block(info: ReplyInfo, params) -> bytes:
    return info.first_hop + serialize_header(info.eta0, params) + info.k_tilde


def parse_reply_block(block: bytes, params):
    """ReplyInfo from payload bytes, or None for the all-zero filler."""
    assert len(block) == params.reply_block_len
    if block == b"\x00" * params.reply_block_len:
        return None
    try:
        eta0 = parse_header(block[params.addr_len : params.addr_len + params.header_len], params)
    except GroupDecodeError:
        return None
    return ReplyInfo(
        first_hop=block[: params.addr_len],
        eta0=eta0,
        k_tilde=block[-params.kappa :],
    )


def build_payload_forward(params, receiver: bytes, reply, message: bytes) -> bytes:
    """Innermost forward plaintext: 0_kappa | receiver | reply block | message.

    A missing reply (None) is encoded as an all-zero block of the same width,
    so repliable and non-repliable payloads are indistinguishable by length.
    """
    if len(message) > params.max_msg_len:
        raise ValueError("message too long for payload")
    assert len(receiver) == params.addr_len
    block = (
        serialize_reply_block(reply, params)
        if reply is not None
        else b"\x00" * params.reply_block_len
    )
    out = b"\x00" * params.kappa + receiver + block + _frame(message, params)
    assert len(out) == params.payload_len
    return out


def build_payload_reply(params, message: bytes) -> bytes:
    """Innermost reply plaintext: 0_kappa | zero filler | message, padded to
    the exact forward-payload width."""
    if len(message) > params.max_msg_len:
        raise ValueError("message too long for payload")
    pad = b"\x00" * (params.addr_len + params.reply_block_len)
    out = b"\x00" * params.kappa + pad + _frame(message, params)
    assert len(out) == params.payload_len
    return out


# ---------------------------------------------------------------------------
# Derivation of a complete onion from its spec

@dataclass(frozen=True)
class ReplyOpening:
    """What the creator of a repliable onion keeps to open the reply: the
    header the reply arrives with, the reply path's PRP keys in hop order,
    and k_tilde, under which the exit sealed the reply payload.  It holds
    no seed, so it regenerates nothing else of the onion."""

    header: Header
    k_pis: tuple
    k_tilde: bytes


@dataclass(frozen=True)
class Derived:
    """Every layer of one onion, derived once from its spec.

    onions holds layers 1..n of the forward trip, then layers n+1..n+n_rep
    of the reply trip carrying the spec's own message back.  ident,
    reply_info and opening are None when the onion is not repliable.
    """

    onions: tuple
    fwd_chain: KemChain
    ident: bytes
    reply_info: ReplyInfo
    opening: ReplyOpening

    def onion(self, i: int) -> Onion:
        """The onion exactly as it arrives at hop i of its combined path."""
        if not 1 <= i <= len(self.onions):
            raise ValueError("layer index out of range")
        return self.onions[i - 1]


def _filler(rng: SeedRng, n_bytes: int, params) -> bytes:
    if params.legacy_zero_filler:
        return b"\x00" * n_bytes
    return rng.read(n_bytes)


def derive(spec: OnionSpec, params: FormatParams) -> Derived:
    """Expand a spec's seed into both KEM chains, every header layer, and
    every payload layer.  Nothing is cached: a caller that needs several
    layers of one onion keeps the result."""
    validate_spec(spec, params)
    kappa, r = params.kappa, params.max_hops
    rng = SeedRng(spec.seed)
    n = len(spec.path)
    nr = len(spec.reply_path)

    x_fwd = params.group.random_scalar(rng.fork(b"x-forward"))
    fwd_chain = kem_chain_create(
        params.group, x_fwd, [pk for _name, pk in spec.path], kappa
    )

    reply_onions = ()
    ident = None
    reply_info = None
    opening = None
    if nr:
        x_rep = params.group.random_scalar(rng.fork(b"x-reply"))
        rep_chain = kem_chain_create(
            params.group, x_rep, [pk for _name, pk in spec.reply_path], kappa
        )
        ident = rng.fork(b"ident").read(kappa)
        k_tilde = rng.fork(b"k-tilde").read(kappa)
        sender_name = spec.reply_path[-1][0]
        final = (
            encode_addr(ADDR_REPLY_RETURN, sender_name, params)
            + ident
            + _filler(rng.fork(b"reply-filler"), (2 * (r - nr) + 1) * kappa, params)
        )
        addrs = [relay_addr(name, params) for name, _pk in spec.reply_path]
        rep_headers = build_header(rep_chain, addrs, final, params)
        reply_info = ReplyInfo(
            first_hop=addrs[0],
            eta0=rep_headers[0],
            k_tilde=k_tilde,
            ident=ident,
        )
        k_pis = tuple(layer.k_pi for layer in rep_chain.layers)
        opening = ReplyOpening(header=rep_headers[-1], k_pis=k_pis, k_tilde=k_tilde)
        # Reply payload layers: the exit seals under k_tilde, then every
        # reply-path relay (the sender included) peels one PRP layer.
        delta = prp_enc(k_tilde, build_payload_reply(params, spec.message), kappa)
        rep_deltas = [delta]
        for k_pi in k_pis[:-1]:
            rep_deltas.append(prp_dec(k_pi, rep_deltas[-1], kappa))
        reply_onions = tuple(map(Onion, rep_headers, rep_deltas))

    final = exit_addr(params) + _filler(
        rng.fork(b"forward-filler"), (2 * (r - n) + 2) * kappa, params
    )
    addrs = [relay_addr(name, params) for name, _pk in spec.path]
    fwd_headers = build_header(fwd_chain, addrs, final, params)

    plaintext = build_payload_forward(params, spec.receiver, reply_info, spec.message)
    fwd_deltas = [None] * n
    delta = plaintext
    for i in range(n - 1, -1, -1):
        delta = prp_enc(fwd_chain.layers[i].k_pi, delta, kappa)
        fwd_deltas[i] = delta
    fwd_onions = tuple(map(Onion, fwd_headers, fwd_deltas))

    return Derived(
        onions=fwd_onions + reply_onions,
        fwd_chain=fwd_chain,
        ident=ident,
        reply_info=reply_info,
        opening=opening,
    )


def form_onion(i: int, spec: OnionSpec, params: FormatParams) -> Onion:
    """The onion exactly as it arrives at hop i of its combined path: a
    one-shot derive(spec, params).onion(i)."""
    return derive(spec, params).onion(i)


def recognize_onion(i: int, onion: Onion, derived: Derived) -> bool:
    """Header-only comparison against the i-th layer of a derived onion; the
    payload may have been tampered with and is deliberately ignored.

    Compares the header fields, so a malformed header (alpha out of range,
    wrong widths) is simply unequal rather than an encoding error.
    """
    return onion.header == derived.onion(i).header


def tag_payload(onion: Onion, mask: bytes) -> Onion:
    """Adversary helper: XOR a nonzero mask into the payload only."""
    if len(mask) != len(onion.delta):
        raise ValueError("mask width must equal payload width")
    if mask == b"\x00" * len(mask):
        raise ValueError("mask must be nonzero")
    return Onion(onion.header, xor_bytes(onion.delta, mask))


# ---------------------------------------------------------------------------
# Relay-side processing

class InMemoryView:
    """Minimal replay/expectation store for tests and standalone use.

    The replay cache keeps a 32-byte SHA-256 digest per processed header
    rather than the header itself, since it grows with every onion a
    long-lived relay accepts.
    """

    def __init__(self):
        self._seen = set()
        self._expectations = {}

    def check_and_add(self, header_bytes: bytes) -> bool:
        key = hashlib.sha256(header_bytes).digest()
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def expect_reply(self, ident: bytes, opening: ReplyOpening):
        self._expectations[ident] = opening

    def lookup_reply(self, ident: bytes):
        return self._expectations.get(ident)

    def forget_reply(self, ident: bytes):
        self._expectations.pop(ident, None)


class NullView:
    """A view that accepts every header and expects no reply: for
    reprocessing an onion outside any party's replay state (form_reply, the
    game challengers' probes)."""

    def check_and_add(self, header_bytes: bytes) -> bool:
        return True

    def lookup_reply(self, ident: bytes):
        return None


def _peel_beta(layer, header: Header, params):
    stream = prg(layer.k_rho, params.stream_len)
    wide = xor_bytes(header.beta + b"\x00" * (2 * params.kappa), stream)
    return (
        wide[: params.kappa],
        wide[params.kappa : 2 * params.kappa],
        wide[2 * params.kappa :],
    )


def zero_run(layer, header: Header, params) -> int:
    """The number of zero bytes right after the routing field of a header
    peeled with this layer's keys: what a relay can read off the filler of
    its own layer (the legacy zero filler leaks the path length there)."""
    _addr, gamma_next, beta_next = _peel_beta(layer, header, params)
    tail = gamma_next + beta_next
    return len(tail) - len(tail.lstrip(b"\x00"))


def proc_onion(sk: int, onion: Onion, self_name: bytes, params, view) -> ProcResult:
    """Process one onion with this relay's private key.

    Every failure collapses to kind="fail"; the reason field exists for
    tests only and must never influence honest behavior.
    """
    kappa = params.kappa
    header, delta = onion.header, onion.delta
    if not params.group.is_element(header.alpha):
        return _fail("bad-element")
    if len(header.beta) != params.beta_len or len(delta) != params.payload_len:
        return _fail("bad-width")

    layer = kem_decap(params.group, sk, header.alpha, kappa)
    if mac(layer.k_mu, header.beta, kappa) != header.gamma:
        return _fail("mac")
    if not view.check_and_add(serialize_header(header, params)):
        return _fail("replay")

    addr, gamma_next, beta_next = _peel_beta(layer, header, params)
    delta_peeled = prp_dec(layer.k_pi, delta, kappa)
    tag, name = decode_addr(addr)

    if tag == ADDR_RELAY:
        alpha_next = kem_blind(params.group, header.alpha, layer.b)
        return ProcResult(
            kind="forward",
            next_hop=name,
            next_onion=Onion(Header(alpha_next, beta_next, gamma_next), delta_peeled),
        )

    if tag == ADDR_EXIT:
        if delta_peeled[:kappa] != b"\x00" * kappa:
            return _fail("integrity")
        receiver = delta_peeled[kappa : kappa + params.addr_len]
        block = delta_peeled[
            kappa + params.addr_len : kappa + params.addr_len + params.reply_block_len
        ]
        message = _unframe(delta_peeled[kappa + params.addr_len + params.reply_block_len :])
        if message is None:
            return _fail("integrity")
        return ProcResult(
            kind="exit",
            message=message,
            receiver=receiver,
            reply_info=parse_reply_block(block, params),
        )

    if tag == ADDR_REPLY_RETURN:
        if name != self_name:
            return _fail("misdirected")
        ident = gamma_next  # the reply final layer carries P_s | I
        opening = view.lookup_reply(ident)
        if opening is None or header != opening.header:
            return _fail("unsolicited")
        # Invert the reply-path PRP composition: our own peel above applied
        # this hop's layer, so re-encrypt hop by hop, then strip k_tilde.
        plain = delta_peeled
        for k_pi in reversed(opening.k_pis):
            plain = prp_enc(k_pi, plain, kappa)
        plain = prp_dec(opening.k_tilde, plain, kappa)
        if plain[:kappa] != b"\x00" * kappa:
            return _fail("integrity")
        message = _unframe(plain[kappa + params.addr_len + params.reply_block_len :])
        if message is None:
            return _fail("integrity")
        return ProcResult(kind="reply", message=message, ident=ident)

    return _fail("bad-address")


def form_reply(m_reply: bytes, onion_at_exit: Onion, exit_name: bytes, sk: int, params):
    """Build the reply onion an exit relay sends back, or None.

    Reprocesses the given exit-layer onion (without replay checks), extracts
    the embedded ReplyInfo, seals the reply message under k_tilde, and
    attaches the pre-built reply header.  None when the forward onion was
    non-repliable or malformed.  This is the one-shot form the game oracles
    use; a relay keeps the ReplyInfo from its single peel and calls
    build_reply_onion instead.
    """
    result = proc_onion(sk, onion_at_exit, exit_name, params, NullView())
    if result.kind != "exit" or result.reply_info is None:
        return None
    try:
        onion = build_reply_onion(result.reply_info, m_reply, params)
    except ValueError:
        return None
    _tag, first_hop = decode_addr(result.reply_info.first_hop)
    return onion, first_hop


def build_reply_onion(info: ReplyInfo, m_reply: bytes, params) -> Onion:
    """Seal a reply message under k_tilde and attach the stored header."""
    delta = prp_enc(info.k_tilde, build_payload_reply(params, m_reply), params.kappa)
    return Onion(info.eta0, delta)


# ---------------------------------------------------------------------------
# Wire format

def serialize_header(header: Header, params) -> bytes:
    out = params.group.encode(header.alpha) + header.beta + header.gamma
    assert len(out) == params.header_len
    return out


def parse_header(data: bytes, params) -> Header:
    if len(data) != params.header_len:
        raise GroupDecodeError("bad header width")
    alpha = params.group.decode(data[: params.group.elem_len])
    beta = data[params.group.elem_len : params.group.elem_len + params.beta_len]
    return Header(alpha=alpha, beta=beta, gamma=data[-params.kappa :])


def serialize_onion(onion: Onion, params) -> bytes:
    out = serialize_header(onion.header, params) + onion.delta
    assert len(out) == params.onion_len
    return out


def parse_onion(data: bytes, params) -> Onion:
    if len(data) != params.onion_len:
        raise GroupDecodeError("bad onion width")
    return Onion(
        header=parse_header(data[: params.header_len], params),
        delta=data[params.header_len :],
    )


# ---------------------------------------------------------------------------
# Test vectors

def onion_vector_lines(spec: OnionSpec, params: FormatParams):
    """Hex test-vector records for one spec: padding, per-layer header
    pieces, and full serialized onions for both directions."""
    d = derive(spec, params)
    n = len(spec.path)
    lines = []
    for i in range(n + 1):
        lines.append("phi_%d,%s" % (i, build_padding(d.fwd_chain, i, params).hex()))
    for i, onion in enumerate(d.onions[:n]):
        lines.append("beta_%d,%s" % (i, onion.header.beta.hex()))
        lines.append("gamma_%d,%s" % (i, onion.header.gamma.hex()))
    for i, onion in enumerate(d.onions, start=1):
        kind = "onion" if i <= n else "reply_onion"
        lines.append("%s_%d,%s" % (kind, i, serialize_onion(onion, params).hex()))
    return lines


def write_vector_file(path, lines):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_vector_file(path):
    with open(path, encoding="ascii") as fh:
        return [line.strip() for line in fh if line.strip()]


def check_onion_vectors(path, spec, params) -> bool:
    """True iff the file's records match a fresh derivation of the spec."""
    return read_vector_file(path) == onion_vector_lines(spec, params)
