import pytest

from rsor.crypto import SeedRng
from rsor.ideal import AbstractOnion, RsorIdeal


def _ideal(bad=(), seed=b"ideal-test"):
    return RsorIdeal(bad=bad, rng=SeedRng(seed))


def _kinds(events):
    return [e["kind"] for e in events]


def _pump_to_completion(ideal, reply_message=None):
    """Deliver every segment and flush every buffer until quiescent."""
    done_adv = done_env = 0
    last_rid = None
    while done_adv < len(ideal.adv_events) or done_env < len(ideal.env_events):
        if done_adv < len(ideal.adv_events):
            event = ideal.adv_events[done_adv]
            done_adv += 1
            if event["kind"] == "segment":
                ideal.deliver_onion(event["tid"])
            elif event["kind"] == "reply-setup" and "rid" in event:
                last_rid = event["rid"]
            elif event["kind"] == "message-leak":
                ideal.deliver_message(
                    event["frm"], event["message"], last_rid,
                    event["receiver"],
                )
                last_rid = None
            elif event["kind"] == "initiate-reply":
                ideal.deliver_reply(
                    event["receiver"], event["relay"],
                    event["message"], event["rid"],
                )
            continue
        event = ideal.env_events[done_env]
        done_env += 1
        if event["kind"] in ("onion-received", "reply-onion-ready"):
            ideal.forward_onion(event["actor"], event["tid"])
        elif event["kind"] == "message-received" and event.get("repliable") and reply_message:
            ideal.initiate_reply(
                event["actor"], event["from"],
                reply_message, event["rid"],
            )


@pytest.mark.parametrize("path, reply_path", [
    (tuple(b"r%d" % i for i in range(6)), ()),
    ((), ()),
    ((b"a", b"b", b"a"), ()),
    ((b"a",), (b"d", b"e", b"d", b"alice")),
], ids=["overlong", "empty", "cyclic", "cyclic-reply"])
def test_rejects_overlong_paths(path, reply_path):
    """A path over MAX_HOPS, an empty one or one that visits a party twice
    is refused without an event, as validate_shape refuses it in the real
    world."""
    ideal = _ideal()
    ok = ideal.process_new_onion(b"alice", b"svc", b"m", path, reply_path)
    assert not ok
    assert ideal.adv_events == [] and ideal.env_events == []


def test_honest_forward_delivery():
    ideal = _ideal()
    ideal.process_new_onion(b"alice", b"svc", b"hi", (b"a", b"b"), ())
    _pump_to_completion(ideal)
    env = _kinds(ideal.env_events)
    assert env.count("onion-received") == 2
    assert "message-delivered" in env
    # An honest sender leaks nothing beyond per-segment tids.
    assert all(e["kind"] in ("segment", "message-leak") for e in ideal.adv_events)
    leak = [e for e in ideal.adv_events if e["kind"] == "message-leak"][0]
    assert leak["message"] == b"hi" and leak["receiver"] == b"svc"


def test_segment_spans_corrupted_runs():
    ideal = _ideal(bad=(b"b", b"c"))
    ideal.process_new_onion(b"alice", b"svc", b"m", (b"a", b"b", b"c", b"d"), ())
    segments = [e for e in ideal.adv_events if e["kind"] == "segment"]
    # First segment stops at the first honest relay a.
    assert segments[0]["frm"] == b"alice" and segments[0]["to"] == b"a"
    ideal.deliver_onion(segments[0]["tid"])
    ideal.forward_onion(b"a", ideal.env_events[-1]["tid"])
    segments = [e for e in ideal.adv_events if e["kind"] == "segment"]
    # Second segment skips the corrupted b, c and lands on d.
    assert segments[1]["frm"] == b"a" and segments[1]["to"] == b"d"
    assert segments[1]["via"] == (b"b", b"c")


def test_corrupted_sender_full_disclosure():
    ideal = _ideal(bad=(b"mallory",))
    ideal.process_new_onion(b"mallory", b"svc", b"secret", (b"a",), (b"b", b"mallory"))
    leaks = [e for e in ideal.adv_events if e["kind"] == "sender-leak"]
    assert leaks
    assert leaks[0]["message"] == b"secret"
    assert leaks[0]["path"] == (b"a",)
    assert leaks[0]["reply_path"] == (b"b", b"mallory")
    assert leaks[0]["n"] == 1


def test_corrupted_sender_reply_disclosure():
    """Every sender-leak record of a reply gives path the reply path and an
    empty reply_path; the forward path is in the records of the forward
    onion that replying_to names."""
    ideal = _ideal(bad=(b"mallory",))
    ideal.process_new_onion(b"mallory", b"svc", b"ask", (b"a", b"b"), (b"c", b"mallory"))
    _pump_to_completion(ideal, reply_message=b"answer")
    leaks = [e for e in ideal.adv_events if e["kind"] == "sender-leak"]
    back = [e for e in leaks if e["direction"] == "b"]
    assert back and back[0]["tid"] == "start"
    for leak in back:
        assert leak["path"] == (b"c", b"mallory") and leak["reply_path"] == ()
        assert leak["message"] == b"answer" and "n" not in leak
    forward = [e for e in leaks if e["sid"] == back[0]["replying_to"]]
    assert forward and all(e["direction"] == "f" and "replying_to" not in e for e in forward)
    assert {e["path"] for e in forward} == {(b"a", b"b")}


def test_honest_sender_no_disclosure():
    ideal = _ideal(bad=(b"x",))
    ideal.process_new_onion(b"alice", b"svc", b"secret", (b"a",), ())
    assert not any(e["kind"] == "sender-leak" for e in ideal.adv_events)


def test_tagged_onion_drops_at_honest_exit():
    ideal = _ideal()
    ideal.process_new_onion(b"alice", b"svc", b"m", (b"a", b"b"), ())
    segment = ideal.adv_events[0]
    ideal.tag(segment["tid"])
    ideal.deliver_onion(segment["tid"])
    ideal.forward_onion(b"a", ideal.env_events[-1]["tid"])
    # Traverse to the exit, then flush it: integrity failure, no delivery.
    segment2 = [e for e in ideal.adv_events if e["kind"] == "segment"][1]
    ideal.deliver_onion(segment2["tid"])
    ideal.forward_onion(b"b", ideal.env_events[-1]["tid"])
    env = ideal.env_events
    assert env[-1]["kind"] == "dropped" and env[-1]["reason"] == "integrity"
    assert "message-delivered" not in _kinds(env)


def test_tagged_reply_silently_absorbed():
    ideal = _ideal()
    ideal.process_new_onion(
        b"alice", b"svc", b"ping", (b"a",), (b"b", b"alice")
    )
    _pump_to_completion(ideal, reply_message=None)
    # Answer the repliable delivery, then tag the reply in flight.
    delivered = [e for e in ideal.env_events if e["kind"] == "message-received"]
    assert delivered and delivered[0]["repliable"]
    ideal.initiate_reply(b"svc", b"a", b"pong", delivered[0]["rid"])
    reply_req = ideal.adv_events[-1]
    ideal.deliver_reply(b"svc", b"a", reply_req["message"], reply_req["rid"])
    ready = ideal.env_events[-1]
    assert ready["kind"] == "reply-onion-ready"
    ideal.forward_onion(b"a", ready["tid"])
    segment = [e for e in ideal.adv_events if e["kind"] == "segment"][-1]
    ideal.tag(segment["tid"])
    ideal.deliver_onion(segment["tid"])
    _pump_to_completion(ideal)
    # The sender never observes anything about the destroyed reply.
    assert "got-reply" not in _kinds(ideal.env_events)


def test_reply_round_trip():
    ideal = _ideal()
    ideal.process_new_onion(b"alice", b"svc", b"ping", (b"a",), (b"b", b"alice"))
    _pump_to_completion(ideal, reply_message=b"pong")
    got = [e for e in ideal.env_events if e["kind"] == "got-reply"]
    assert got and got[0]["actor"] == b"alice" and got[0]["message"] == b"pong"


def test_rid_single_use():
    ideal = _ideal()
    ideal.process_new_onion(b"alice", b"svc", b"ping", (b"a",), (b"b", b"alice"))
    _pump_to_completion(ideal)
    rid = [e for e in ideal.env_events if e["kind"] == "message-received"][0]["rid"]
    ideal.deliver_reply(b"svc", b"a", b"one", rid)
    before = len(ideal.env_events)
    ideal.deliver_reply(b"svc", b"a", b"two", rid)
    # The second use acknowledges receipt but mints no reply onion.
    assert _kinds(ideal.env_events[before:]) == ["reply-received"]


def test_bypass_reply_from_corrupted_exit():
    ideal = _ideal(bad=(b"exit",))
    ideal.process_new_onion(b"alice", b"svc", b"ping", (b"exit",), (b"b", b"alice"))
    setup = [e for e in ideal.adv_events if e["kind"] == "reply-setup"]
    assert setup and "tid" in setup[0]
    ideal.bypass_reply(b"exit", b"forged", setup[0]["tid"])
    _pump_to_completion(ideal)
    got = [e for e in ideal.env_events if e["kind"] == "got-reply"]
    assert got and got[0]["message"] == b"forged"
    # Back entries are single use: a second bypass does nothing.
    before = len(ideal.env_events)
    ideal.bypass_reply(b"exit", b"again", setup[0]["tid"])
    assert len(ideal.env_events) == before


def test_tids_are_fresh_per_honest_hop():
    ideal = _ideal()
    ideal.process_new_onion(b"alice", b"svc", b"m", (b"a", b"b", b"c"), ())
    _pump_to_completion(ideal)
    tids = [e["tid"] for e in ideal.env_events if "tid" in e]
    tids += [e["tid"] for e in ideal.adv_events if "tid" in e]
    assert len(tids) == len(set(tids))


def test_abstract_onion_hop_indexing():
    onion = AbstractOnion(
        sid="s", sender=b"alice", receiver=b"svc", message=b"m",
        path=(b"a", b"b"), reply_path=(), direction="f",
    )
    assert onion.hop(0) == b"alice"
    assert onion.hop(2) == b"b"
