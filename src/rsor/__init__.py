"""Repliable service onion routing: packet format, runtime, games, simulator."""

from .group import GroupParams, PROD_GROUP, TOY_GROUP
from .crypto import SeedRng, mac, prg, prp_dec, prp_enc, ro_hb, ro_hsym, xor_bytes
from .kem import (
    KemChain,
    KemKeyPair,
    LayerSecrets,
    kem_blind,
    kem_chain_create,
    kem_decap,
    kem_keygen,
)
from .packet import (
    FormatParams,
    Header,
    InMemoryView,
    Onion,
    OnionSpec,
    ProcResult,
    ReplyInfo,
    ReplyOpening,
    derive,
    form_onion,
    form_reply,
    parse_onion,
    proc_onion,
    receiver_addr,
    recognize_onion,
    serialize_onion,
    tag_payload,
    validate_spec,
)
from .node import (
    ReceiverState,
    RelayState,
    SenderState,
    receiver_on_message,
    receiver_reply,
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
    check_usage_conditions,
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
