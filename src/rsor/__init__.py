"""Repliable service onion routing: packet format, runtime, games, simulator.

Every record type is a collections.namedtuple subclass: one is built
without a setattr per field, many are built per hop, and importing the
package loads no dataclasses module.  A record whose values are worked out
on first read (GroupParams, FormatParams, Derived) keeps them in its
__dict__ through cached_property; every other record sets __slots__ = ().
An onion is never a record: every layer, on a link, in an oracle answer
or in a challenge, is its exact wire bytes, and packet.proc_onion is its
one parse.  A named tuple compares equal to a plain tuple of its values,
so a challenge submission's names and keys are checked for their exact
types (games._checked_paths).  The party states
(node.RelayState and friends) are mutable, and so are slotted classes.
"""

from .group import GroupParams, PROD_GROUP, SQR_GROUP, TOY_GROUP
from .crypto import SeedRng, mac, prg, prg_xor, prp_dec, prp_enc, ro_hb, ro_hsym, xor_bytes
from .kem import (
    KemKeyPair,
    LayerSecrets,
    kem_blind,
    kem_chain_create,
    kem_decap,
    kem_keygen,
)
from .packet import (
    FormatParams,
    InMemoryView,
    OnionSpec,
    ProcResult,
    ReplyOpening,
    derive,
    form_onion,
    form_reply,
    proc_onion,
    receiver_addr,
    recognize_onion,
    tag_payload,
    validate_spec,
)
from .node import (
    ReceiverState,
    RelayState,
    SenderState,
    receiver_on_message,
    relay_forward,
    relay_on_onion,
    relay_on_receiver_reply,
    sender_on_onion,
    sender_send,
)
from .ideal import AbstractOnion, RsorIdeal
from .sim import (
    Rule,
    Scenario,
    WorkItem,
    attack_nymserver,
    attack_padding,
    attack_tagging,
    default_params,
    normalize_trace,
    parse_config,
    run_ideal_scenario,
    run_scenario,
    traces_equivalent,
    write_trace,
)
from .games import (
    ADVERSARIES,
    GAMES,
    GameOracles,
    Submission,
    game_correctness,
    game_slu_backward,
    game_sti_tail,
    game_tlu_forward,
    run_game_batch,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
