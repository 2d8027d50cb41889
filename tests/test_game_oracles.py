"""The game oracles answer the same way in both worlds: each party peels an
onion once in Proc, and Reply answers from that peel.  These cases pin the
answers the TLU challenger once gave only when b = 1, the oracles'
handling of an onion of the wrong width, and the boundary each oracle keeps
before either world looks at the adversary's input: exact bytes of an
onion's width, which proc_onion alone parses."""

import pytest
from hypothesis import example, given, settings, strategies as st

from rsor.crypto import SeedRng
from rsor.games import (
    P_H,
    P_S,
    GameOracles,
    GuessingAdversary,
    Submission,
    _BaseAdversary,
    game_slu_backward,
    game_tlu_forward,
)
from rsor.group import PROD_GROUP, SQR_GROUP
from rsor.kem import kem_keygen
from rsor.packet import (
    FormatParams,
    InMemoryView,
    OnionSpec,
    derive,
    form_onion,
    receiver_addr,
    serialize_header,
    tag_payload,
)

PARAMS = FormatParams(group=PROD_GROUP)


class _ExitProbe(_BaseAdversary):
    """Puts the honest relay at the exit (j = n = 2), peels the challenge
    with its own first hop, and hands the result to probe(oracles, onion)."""

    def __init__(self, rng, probe):
        super().__init__(rng)
        self.probe = probe

    def submit(self):
        return Submission(
            message=b"exit-probe", receiver=b"svc", j=2, j_back=1,
            path=(self.relay(b"x1"), (P_H, None)),
            reply_path=(self.relay(b"x3"), (P_S, None)),
        )

    def guess(self):
        result = self.peel(b"x1", self.challenge)
        assert result.kind == "forward"
        self.answer = self.probe(self.oracles, result.next_onion)
        return 0


def _run_tlu(probe, bit):
    adversary = _ExitProbe(SeedRng(b"exit-probe"), probe)
    game_tlu_forward(adversary, seed=3, force_b=bit)
    return adversary.answer


@pytest.mark.parametrize("bit", [0, 1])
def test_tlu_tagged_exit_layer_fails_in_both_worlds(bit):
    def tag_then_proc_and_reply(oracles, onion):
        tagged = tag_payload(onion, SeedRng(b"mask").read(PARAMS.payload_len), PARAMS)
        return oracles.proc(P_H, tagged), oracles.reply(P_H, tagged, b"answer")

    assert _run_tlu(tag_then_proc_and_reply, bit) == (None, None)


@pytest.mark.parametrize("bit", [0, 1])
def test_tlu_oversized_reply_is_none_in_both_worlds(bit):
    def proc_then_long_reply(oracles, onion):
        assert oracles.proc(P_H, onion)[0] == "exit"
        return oracles.reply(P_H, onion, b"x" * (PARAMS.max_msg_len + 1))

    assert _run_tlu(proc_then_long_reply, bit) is None


class _SluExitProbe(_ExitProbe):
    """The same probe in SLU with j_back = 0, so the honest relay is real's exit."""

    def submit(self):
        return super().submit()._replace(j_back=0)


@pytest.mark.parametrize("game, probe_cls", [(game_tlu_forward, _ExitProbe),
                                              (game_slu_backward, _SluExitProbe)])
@pytest.mark.parametrize("bit", [0, 1])
def test_reply_answers_only_the_processed_onion_once(game, probe_cls, bit):
    def replies_around_proc(oracles, onion):
        tagged = tag_payload(onion, SeedRng(b"mask").read(PARAMS.payload_len), PARAMS)
        before = oracles.reply(P_H, onion, b"answer")
        assert oracles.proc(P_H, onion)[0] == "exit"
        return (before, oracles.reply(P_H, tagged, b"answer"),
                oracles.reply(P_H, onion, b"answer"), oracles.reply(P_H, onion, b"answer"))

    adversary = probe_cls(SeedRng(b"exit-probe"), replies_around_proc)
    game(adversary, seed=3, force_b=bit)
    before, to_tagged, first, second = adversary.answer
    assert before is None and to_tagged is None and second is None
    assert first[0] == "reply-onion"


class _EqualsAnything(bytes):
    def __eq__(self, other):
        return True

    __hash__ = bytes.__hash__


def _look_alikes(data, params):
    """Stand-ins for an onion's wire bytes that are not exact bytes of an
    onion: a plain tuple of its header and payload, a bytearray, a bytes
    subclass that equals anything, a str, the payload cut and extended by
    one byte, and alpha fields encoding 0, p, all 0xff bytes and p - alpha.
    p = 3 mod 4, so p - alpha is a non-residue in PROD_GROUP and above q in
    SQR_GROUP."""
    group = params.group
    alpha, rest = int.from_bytes(data[:group.elem_len], "big"), data[group.elem_len:]
    return [
        (data[:params.header_len], data[params.header_len:]),
        bytearray(data),
        _EqualsAnything(data),
        data.decode("latin-1"),
        data[:-1],
        data + b"\x00",
        bytes(group.elem_len) + rest,
        group.p.to_bytes(group.elem_len, "big") + rest,
        b"\xff" * group.elem_len + rest,
        (group.p - alpha).to_bytes(group.elem_len, "big") + rest,
    ]


LOOK_ALIKES = 10


@pytest.mark.parametrize("group", [PROD_GROUP, SQR_GROUP], ids=["prod", "sqr"])
@pytest.mark.parametrize("bit", [0, 1])
def test_look_alikes_of_awaited_onions_are_none_in_both_worlds(group, bit):
    # Each look-alike is tried before the real bytes it stands for, so one
    # that got through would spend the real onion's replay test or reply.
    params = FormatParams(group=group)

    def probe(oracles, onion):
        refused = [oracles.proc(P_H, fake) for fake in _look_alikes(onion, params)]
        assert oracles.proc(P_H, onion)[0] == "exit"
        refused += [oracles.reply(P_H, fake, b"answer") for fake in _look_alikes(onion, params)]
        _kind, reply, first_hop = oracles.reply(P_H, onion, b"answer")
        at_sender = adversary.peel(first_hop, reply).next_onion
        refused += [oracles.proc(P_S, fake) for fake in _look_alikes(at_sender, params)]
        return refused, oracles.proc(P_S, at_sender)

    adversary = _ExitProbe(SeedRng(b"exit-probe"), probe)
    game_tlu_forward(adversary, seed=3, params=params, force_b=bit)
    refused, opened = adversary.answer
    assert refused == [None] * (3 * LOOK_ALIKES)
    assert opened == ("reply", b"answer")


def test_valid_bytes_are_processed_and_answered_once():
    keys = {name: kem_keygen(PROD_GROUP, SeedRng(name)) for name in (b"r0", b"q0")}
    spec = OnionSpec(seed=b"valid", message=b"m", receiver=receiver_addr(b"svc", PARAMS),
                     path=((b"r0", keys[b"r0"].pk),), reply_path=((b"q0", keys[b"q0"].pk),))
    d = derive(spec, PARAMS)
    data = d.onion(1)
    oracles = GameOracles(PARAMS, {b"r0": keys[b"r0"]})
    assert oracles.proc(b"r0", data) == ("exit", b"m", spec.receiver)
    assert oracles.reply(b"r0", data, b"m") == ("reply-onion", d.onion(2), b"q0")
    assert oracles.reply(b"r0", data, b"m") is None
    assert oracles.proc(b"r0", data) is None  # a replay


def test_wrong_payload_width_is_refused_not_raised():
    keys = {b"r0": kem_keygen(PROD_GROUP, SeedRng(b"r0"))}
    spec = OnionSpec(seed=b"width", message=b"m", receiver=receiver_addr(b"svc", PARAMS),
                     path=((b"r0", keys[b"r0"].pk),))
    short = form_onion(1, spec, PARAMS)[:-1]
    oracles = GameOracles(PARAMS, keys)
    assert oracles.proc(b"r0", short) is None
    assert oracles.reply(b"r0", short, b"answer") is None


def test_game_sender_retires_the_opening_its_proc_opens():
    keys = {name: kem_keygen(PROD_GROUP, SeedRng(name)) for name in (b"r0", b"q0", P_S)}
    spec = OnionSpec(seed=b"retire", message=b"m", receiver=receiver_addr(b"svc", PARAMS),
                     path=((b"r0", keys[b"r0"].pk),),
                     reply_path=((b"q0", keys[b"q0"].pk), (P_S, keys[P_S].pk)))
    d = derive(spec, PARAMS)
    oracles = GameOracles(PARAMS, {P_S: keys[P_S]})
    oracles.state[P_S].expect_reply(d.opening)
    data = d.onion(3)
    assert oracles.proc(P_S, data) == ("reply", b"m")
    assert oracles.state[P_S].lookup_reply(d.opening.header) is None
    assert oracles.proc(P_S, data) is None


class _MidProbe(_ExitProbe):
    """The same probe with a corrupted relay after the honest one (j = 2 < n = 3)."""

    def submit(self):
        sub = super().submit()
        return sub._replace(path=sub.path + (self.relay(b"x2"),))


def _both_worlds(game, probe_cls, probe, seed):
    """The probe's answers at b = 0 and at b = 1."""
    answers = []
    for bit in (0, 1):
        adversary = probe_cls(SeedRng(b"probe/%d" % seed), probe)
        game(adversary, seed=seed, force_b=bit)
        answers.append(adversary.answer)
    return answers


@pytest.mark.parametrize("seed", range(3))
def test_slu_reply_with_a_str_message_is_none_in_both_worlds(seed):
    def proc_then_str_reply(oracles, onion):
        return oracles.proc(P_H, onion), oracles.reply(P_H, onion, "str")

    at_0, at_1 = _both_worlds(game_slu_backward, _SluExitProbe, proc_then_str_reply, seed)
    assert at_0 == at_1 and at_0[0][0] == "exit" and at_0[1] is None


@pytest.mark.parametrize("seed", range(3))
def test_tlu_look_alikes_at_the_mid_hop_are_none_in_both_worlds(seed):
    # At b = 1 the challenger answers P_H's recognized layer itself, so a
    # look-alike it took for that layer would answer differently: the
    # payload cut or extended by one byte keeps the header it recognizes,
    # and would take its tagged branch and forward, where proc_onion
    # refuses the width at b = 0.
    def proc_look_alikes(oracles, onion):
        return ([oracles.proc(P_H, fake) for fake in _look_alikes(onion, oracles.params)],
                oracles.proc(P_H, onion)[0])

    at_0, at_1 = _both_worlds(game_tlu_forward, _MidProbe, proc_look_alikes, seed)
    assert at_0 == at_1 == ([None] * LOOK_ALIKES, "forward")


@pytest.mark.parametrize("seed", range(3))
def test_tlu_str_payload_is_none_in_both_worlds(seed):
    # The str is refused before the real bytes are tried, so the real
    # onion's replay test is still unspent.
    def proc_str_then_bytes(oracles, onion):
        return oracles.proc(P_H, onion.decode("latin-1")), oracles.proc(P_H, onion)[0]

    at_0, at_1 = _both_worlds(game_tlu_forward, _MidProbe, proc_str_then_bytes, seed)
    assert at_0 == at_1 == (None, "forward")


@pytest.mark.parametrize("seed", range(3))
def test_tlu_header_subclass_is_none_in_both_worlds(seed):
    # A forged header under the real payload, in a bytes subclass whose
    # __eq__ would match the awaited onion's bytes.
    def proc_forged_header(oracles, onion):
        forged = serialize_header(PROD_GROUP.g, bytes(PARAMS.beta_len), bytes(PARAMS.kappa),
                                  PARAMS)
        lying = _EqualsAnything(forged + onion[PARAMS.header_len:])
        return oracles.proc(P_H, lying), oracles.proc(P_H, onion)[0]

    at_0, at_1 = _both_worlds(game_tlu_forward, _MidProbe, proc_forged_header, seed)
    assert at_0 == at_1 == (None, "forward")


class _NeverUnequal(bytes):
    def __ne__(self, other):
        return False

    __hash__ = bytes.__hash__


class _NeverEqual(int):
    def __eq__(self, other):
        return False

    __hash__ = int.__hash__


class _InexactEntry(GuessingAdversary):
    """The guessing submission with one forward-path entry replaced:
    entry(path, own_key) gives its index and its new (name, key)."""

    def __init__(self, rng, entry):
        super().__init__(rng)
        self.entry = entry

    def submit(self):
        sub = super().submit()
        path = list(sub.path)
        idx, path_entry = self.entry(path, self.keypair(b"own").pk)
        path[idx] = path_entry
        return sub._replace(path=tuple(path))


@pytest.mark.parametrize("entry", [
    # A name that never compares unequal would pass as P_H in P_H's slot
    # (index 1) with the adversary's own key.
    lambda path, own: (1, (_NeverUnequal(b"impostor"), own)),
    lambda path, own: (0, (path[0][0], _NeverEqual(path[0][1]))),
], ids=["name", "key"])
def test_tlu_submission_refuses_inexact_names_and_keys(entry):
    with pytest.raises(ValueError, match="must be bytes"):
        game_tlu_forward(_InexactEntry(SeedRng(b"inexact"), entry), seed=3)


def test_honest_proc_tags_its_header_once(monkeypatch):
    tagged = []
    original = InMemoryView._tag

    def counted(header_bytes):
        tagged.append(header_bytes)
        return original(header_bytes)

    monkeypatch.setattr(InMemoryView, "_tag", staticmethod(counted))
    keys = {b"r0": kem_keygen(PROD_GROUP, SeedRng(b"r0"))}
    spec = OnionSpec(seed=b"tag-once", message=b"m", receiver=receiver_addr(b"svc", PARAMS),
                     path=((b"r0", keys[b"r0"].pk),))
    oracles = GameOracles(PARAMS, keys)
    assert oracles.proc(b"r0", form_onion(1, spec, PARAMS))[0] == "exit"
    assert len(tagged) == 1


# ---------------------------------------------------------------------------
# The byte boundary under fuzzing: whatever bytes an adversary sends, each
# oracle call answers without a raise and logs exactly one transcript entry.

def _fuzz_target(group):
    """Keys for a two-hop path's relays and the wire bytes of the layer
    each of them peels: r0 forwards its layer, r1 exits and can reply."""
    params = FormatParams(group=group)
    keys = {name: kem_keygen(group, SeedRng(name)) for name in (b"r0", b"r1", b"q0")}
    spec = OnionSpec(seed=b"fuzz", message=b"m", receiver=receiver_addr(b"svc", params),
                     path=((b"r0", keys[b"r0"].pk), (b"r1", keys[b"r1"].pk)),
                     reply_path=((b"q0", keys[b"q0"].pk),))
    d = derive(spec, params)
    layers = {b"r0": d.onion(1), b"r1": d.onion(2)}
    return params, {name: keys[name] for name in layers}, layers


FUZZ_TARGETS = {group.name: _fuzz_target(group) for group in (PROD_GROUP, SQR_GROUP)}
ONION_LEN = PARAMS.onion_len
_ALPHA, _BETA = PROD_GROUP.elem_len, PROD_GROUP.elem_len + PARAMS.beta_len
# Byte spans of alpha, beta, gamma and the payload; both groups share them.
FIELDS = [(0, _ALPHA), (_ALPHA, _BETA), (_BETA, PARAMS.header_len),
          (PARAMS.header_len, ONION_LEN)]


@st.composite
def _oracle_input(draw):
    """(group name, honest party, bytes): random bytes of any width up to
    twice the onion's or of exactly its width, or the party's own layer
    with one bit flipped in alpha, beta, gamma or the payload."""
    group = draw(st.sampled_from(sorted(FUZZ_TARGETS)))
    party = draw(st.sampled_from([b"r0", b"r1"]))
    kind = draw(st.sampled_from(["any-width", "onion-width", "flip"]))
    if kind == "any-width":
        return group, party, draw(st.binary(max_size=2 * ONION_LEN))
    if kind == "onion-width":
        return group, party, draw(st.binary(min_size=ONION_LEN, max_size=ONION_LEN))
    start, stop = draw(st.sampled_from(FIELDS))
    bit = draw(st.integers(8 * start, 8 * stop - 1))
    flipped = bytearray(FUZZ_TARGETS[group][2][party])
    flipped[bit // 8] ^= 1 << (bit % 8)
    return group, party, bytes(flipped)


@settings(max_examples=200, deadline=None)
@given(_oracle_input())
@example(("prod", b"r1", FUZZ_TARGETS["prod"][2][b"r1"]))  # an exit, then its reply
def test_oracles_answer_any_bytes_without_a_raise(case):
    group, party, data = case
    params, keys, _layers = FUZZ_TARGETS[group]
    oracles = GameOracles(params, keys)
    out = oracles.proc(party, data)
    assert out is None or (type(out) is tuple and out[0] in ("forward", "exit", "reply"))
    assert len(oracles.transcript) == 1
    answer = oracles.reply(party, data, b"answer")
    assert answer is None or answer[0] == "reply-onion"
    assert len(oracles.transcript) == 2
