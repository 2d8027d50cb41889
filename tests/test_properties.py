"""Property-based round trips over randomly drawn specs and inputs."""

from hypothesis import given, settings, strategies as st

from rsor.crypto import SeedRng, prp_dec, prp_enc
from rsor.group import PROD_GROUP
from rsor.kem import kem_keygen
from rsor.packet import (
    FormatParams,
    InMemoryView,
    OnionSpec,
    derive,
    form_onion,
    form_reply,
    proc_onion,
    receiver_addr,
    serialize_onion,
)

PARAMS = FormatParams(group=PROD_GROUP)


@given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=17, max_size=400))
def test_prp_is_invertible(key, block):
    assert prp_dec(key, prp_enc(key, block, 16), 16) == block
    assert prp_enc(key, prp_dec(key, block, 16), 16) == block


@settings(max_examples=25, deadline=None)
@given(
    seed=st.binary(min_size=8, max_size=32),
    message=st.binary(min_size=0, max_size=PARAMS.max_msg_len),
    reply=st.binary(min_size=0, max_size=PARAMS.max_msg_len),
    n=st.integers(min_value=1, max_value=5),
    nr=st.integers(min_value=0, max_value=5),
)
def test_any_spec_round_trips(seed, message, reply, n, nr):
    rng = SeedRng(b"prop:" + seed)
    names = [b"r%d" % i for i in range(n)]
    rnames = [b"q%d" % i for i in range(nr - 1)] + ([b"sender"] if nr else [])
    keys = {name: kem_keygen(PARAMS.group, rng.fork(name)) for name in names + rnames}
    spec = OnionSpec(
        seed=seed,
        message=message,
        receiver=receiver_addr(b"svc", PARAMS),
        path=tuple((name, keys[name].pk) for name in names),
        reply_path=tuple((name, keys[name].pk) for name in rnames),
    )
    view = InMemoryView()
    onion = form_onion(1, spec, PARAMS)
    width = len(serialize_onion(onion, PARAMS))
    for i in range(1, n):
        result = proc_onion(keys[names[i - 1]].sk, onion, names[i - 1], PARAMS, view)
        assert result.kind == "forward"
        onion = result.next_onion
        assert len(serialize_onion(onion, PARAMS)) == width
    result = proc_onion(keys[names[-1]].sk, onion, names[-1], PARAMS, view)
    assert result.kind == "exit"
    assert result.message == message
    if not nr:
        assert result.reply_info is None
        return
    formed = form_reply(reply, onion, names[-1], keys[names[-1]].sk, PARAMS)
    assert formed is not None
    back, next_hop = formed
    for name in rnames[:-1]:
        assert next_hop == name
        result = proc_onion(keys[name].sk, back, name, PARAMS, view)
        assert result.kind == "forward"
        back, next_hop = result.next_onion, result.next_hop
        assert len(serialize_onion(back, PARAMS)) == width
    assert next_hop == b"sender"
    sview = InMemoryView()
    d = derive(spec, PARAMS)
    sview.expect_reply(d.ident, d.opening)
    result = proc_onion(keys[b"sender"].sk, back, b"sender", PARAMS, sview)
    assert result.kind == "reply"
    assert result.message == reply
