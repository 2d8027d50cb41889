"""Walk one repliable onion out to a service and its answer back home.

Prints every hop's view: what the relay sees, what it forwards, and what
the exit and the sender finally recover.  Run with: python3 demos/round_trip.py
"""

from rsor import (
    FormatParams,
    InMemoryView,
    OnionSpec,
    PROD_GROUP,
    SeedRng,
    derive,
    proc_onion,
    receiver_addr,
)
from rsor.kem import kem_keygen
from rsor.packet import build_reply_onion

params = FormatParams(group=PROD_GROUP)
rng = SeedRng(b"round-trip-demo")

names = [b"guard", b"middle", b"exit", b"back1", b"back2", b"alice"]
keys = {name: kem_keygen(params.group, rng.fork(name)) for name in names}

spec = OnionSpec(
    seed=rng.fork(b"onion").read(32),
    message=b"what is the answer?",
    receiver=receiver_addr(b"oracle", params),
    path=tuple((n, keys[n].pk) for n in (b"guard", b"middle", b"exit")),
    reply_path=tuple((n, keys[n].pk) for n in (b"back1", b"back2", b"alice")),
)

# The sender derives the onion once and keeps only what opens the reply.
d = derive(spec, params)
view = InMemoryView()
view.expect_reply(d.opening)

onion = d.onion(1)
print("every onion is %d bytes, regardless of direction or path length\n"
      % len(onion))

print("-- forward trip --")
for name in (b"guard", b"middle", b"exit"):
    result = proc_onion(keys[name].sk, onion, name, params, view)
    if result.kind == "forward":
        print("%-7s peeled a layer, forwards to %s"
              % (name.decode(), result.next_hop.decode()))
        onion = result.next_onion
    else:
        print("%-7s is the exit: delivers %r to receiver field %r"
              % (name.decode(), result.message, result.receiver))
        print("        it also found an embedded reply block (sender unknown)")

print("\n-- the service answers --")
# The exit answers from the reply block its one peel found.
reply_onion, next_hop = build_reply_onion(result.reply_block, b"42", params)
print("exit    sealed the answer, sends the pre-built reply header to %s"
      % next_hop.decode())

for name in (b"back1", b"back2"):
    result = proc_onion(keys[name].sk, reply_onion, name, params, view)
    print("%-7s peeled a layer, forwards to %s"
          % (name.decode(), result.next_hop.decode()))
    reply_onion = result.next_onion

result = proc_onion(keys[b"alice"].sk, reply_onion, b"alice", params, view)
print("alice   recognized her reply identifier and recovered: %r" % result.message)
