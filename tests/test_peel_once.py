"""Each party peels an onion once.  The correctness game's exit and the SLU
direction-structure adversary answer from the reply block of their own peel
instead of peeling the exit layer again inside form_reply."""

import collections

import pytest

import rsor.games
import rsor.node
import rsor.packet
from rsor.crypto import SeedRng
from rsor.games import (
    P_H,
    DirectionStructureAdversary,
    game_slu_backward,
)
from rsor.packet import form_reply, proc_onion

from correctness import check_correctness_pair


@pytest.fixture
def calls(monkeypatch):
    """Counts proc_onion calls per peeling party, and form_reply calls.

    form_reply peels through rsor.packet's own proc_onion, and relays and
    senders through rsor.node's, so patching every module counts those
    peels too.
    """
    counts = collections.Counter()

    def counting_proc(sk, onion, self_name, params, view):
        counts[self_name] += 1
        return proc_onion(sk, onion, self_name, params, view)

    def counting_form_reply(*args):
        counts["form_reply"] += 1
        return form_reply(*args)

    for module in (rsor.packet, rsor.node, rsor.games):
        monkeypatch.setattr(module, "proc_onion", counting_proc)
        monkeypatch.setattr(module, "form_reply", counting_form_reply, raising=False)
    return counts


@pytest.mark.parametrize("n, nr", [(1, 1), (3, 2), (5, 5)])
def test_correctness_pair_peels_each_layer_once(calls, n, nr):
    assert check_correctness_pair(n, nr, 1, b"peel-once")["pass"]
    assert calls["form_reply"] == 0
    # n forward peels (the exit's included), nr - 1 reply relays, the sender.
    assert sum(calls.values()) == n + nr


@pytest.mark.parametrize("force_b", [0, 1])
def test_direction_structure_peels_the_exit_layer_once(calls, force_b):
    adversary = DirectionStructureAdversary(SeedRng(b"peel-once-adv"))
    outcome = game_slu_backward(adversary, b"peel-once", force_b=force_b)
    assert calls["form_reply"] == 0
    assert calls[b"x2"] == 1  # the adversary's own exit relay
    # The reply built from that peel reached the honest reply hop's oracle.
    assert [move for move, _len in outcome["transcript"]] == ["proc"]
    assert calls[P_H] == 1 - force_b  # at b = 1 the challenger answers itself
