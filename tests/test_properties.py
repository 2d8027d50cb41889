"""Property-based round trips over randomly drawn specs and inputs."""

from hypothesis import example, given, settings, strategies as st

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
)
from rsor.sim import Scenario, WorkItem, run_ideal_scenario, run_scenario, traces_equivalent

PARAMS = FormatParams(group=PROD_GROUP)


@given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=17, max_size=400))
def test_prp_is_invertible(key, block):
    assert prp_dec(key, prp_enc(key, block)) == block
    assert prp_enc(key, prp_dec(key, block)) == block


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
    width = len(onion)
    for i in range(1, n):
        result = proc_onion(keys[names[i - 1]].sk, onion, names[i - 1], PARAMS, view)
        assert result.kind == "forward"
        onion = result.next_onion
        assert len(onion) == width
    result = proc_onion(keys[names[-1]].sk, onion, names[-1], PARAMS, view)
    assert result.kind == "exit"
    assert result.message == message
    if not nr:
        assert result.reply_block is None
        return
    formed = form_reply(reply, onion, names[-1], keys[names[-1]].sk, PARAMS)
    assert formed is not None
    back, next_hop = formed
    for name in rnames[:-1]:
        assert next_hop == name
        result = proc_onion(keys[name].sk, back, name, PARAMS, view)
        assert result.kind == "forward"
        back, next_hop = result.next_onion, result.next_hop
        assert len(back) == width
    assert next_hop == b"sender"
    sview = InMemoryView()
    d = derive(spec, PARAMS)
    sview.expect_reply(d.opening)
    result = proc_onion(keys[b"sender"].sk, back, b"sender", PARAMS, sview)
    assert result.kind == "reply"
    assert result.message == reply


@settings(max_examples=25, deadline=None)
@given(
    message=st.binary(min_size=1, max_size=64),
    reply=st.binary(min_size=1, max_size=64),
    n=st.integers(min_value=1, max_value=3),
    nr=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(message="h\u00e9llo".encode(), reply="p\u00f6ng".encode(), n=3, nr=2, seed=1)
@example(message=b"\xff\xfe\x80", reply=b"ok\xc3", n=1, nr=1, seed=2)
def test_ideal_and_real_traces_agree_on_any_message_bytes(message, reply, n, nr, seed):
    relays = (b"a", b"b", b"c", b"d", b"e")
    repliable = nr > 0
    scenario = Scenario(
        name="bytes",
        relays=relays,
        senders=(b"alice",),
        receivers=(b"svc",),
        workload=(WorkItem(
            b"alice", relays[:n], b"svc", message,
            reply_path=relays[n : n + nr] + (b"alice",) if repliable else (),
            reply_message=reply if repliable else None,
        ),),
        seed=seed,
    )
    real = run_scenario(scenario)
    env, _adv = run_ideal_scenario(scenario)
    assert traces_equivalent(real, env)

    def received(trace):
        return [e["message"] for e in trace if e["kind"] == "message-received"]

    assert received(real) == received(env) == [message.decode("utf-8", "replace")]
