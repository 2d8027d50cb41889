"""The signed quadratic residues (``GroupParams(..., signed=True)``, the
default group ``SQR_GROUP``) against plain Python references: ``exp`` and
``base`` are min(r, p - r) of ``pow``, membership and ``decode`` are the
range test 1 <= v <= q, an exhaustive check on p = 11 that v -> |v| maps
the quadratic residues onto [1, q] and commutes with ``exp``, and the KEM
chain agreeing with decapsulation in the signed group."""

import pytest
from hypothesis import given, settings, strategies as st

from rsor.crypto import SeedRng
from rsor.group import PROD_GROUP, SQR_GROUP, GroupDecodeError, GroupParams
from rsor.kem import kem_blind, kem_chain_create, kem_decap, kem_keygen
from rsor.packet import FormatParams
from rsor.sim import default_params


def _signed(group, r):
    return min(r, group.p - r)


def _edge_exponents(group):
    q = group.q
    return (0, 1, 2, q - 1, q, q + 1, -1, 2**300)


def test_sqr_group_shares_prod_groups_field_and_widths():
    assert (SQR_GROUP.p, SQR_GROUP.q, SQR_GROUP.g, SQR_GROUP.elem_len) == \
        (PROD_GROUP.p, PROD_GROUP.q, PROD_GROUP.g, PROD_GROUP.elem_len)
    assert SQR_GROUP.signed and not PROD_GROUP.signed
    assert default_params().group is SQR_GROUP
    signed, legendre = default_params(), FormatParams(group=PROD_GROUP)
    for width in ("addr_len", "beta_len", "header_len", "reply_block_len", "onion_len"):
        assert getattr(signed, width) == getattr(legendre, width), width


def test_sqr_exp_and_base_are_signed_pow_at_edge_exponents():
    group = SQR_GROUP
    # 1 is the identity; p - 1 (= -1) and p - g name the classes of 1 and g.
    for b in (1, 2, group.g, group.q, group.p - 1, group.p - group.g, group.base(3)):
        for e in _edge_exponents(group):
            assert group.exp(b, e) == _signed(group, pow(b, e % group.q, group.p)), (b, e)
    for e in _edge_exponents(group):
        assert group.base(e) == _signed(group, pow(group.g, e % group.q, group.p)), e


@settings(max_examples=200, deadline=None)
@given(root=st.integers(min_value=1, max_value=SQR_GROUP.p - 1),
       e=st.integers(min_value=-(2**400), max_value=2**400))
def test_sqr_exp_is_signed_pow(root, e):
    group = SQR_GROUP
    v = _signed(group, root * root % group.p)  # a member
    expected = _signed(group, pow(v, e % group.q, group.p))
    assert group.exp(v, e) == expected
    # p - v names the same class, so it has the same power.
    assert group.exp(group.p - v, e) == expected
    # |.| is a homomorphism from the residues: |(x)^e| = |x|^e.
    assert expected == _signed(group, PROD_GROUP.exp(root * root % group.p, e))


@settings(max_examples=200, deadline=None)
@given(e=st.integers(min_value=-(2**400), max_value=2**400))
def test_sqr_base_is_signed_pow(e):
    group = SQR_GROUP
    assert group.base(e) == _signed(group, pow(group.g, e % group.q, group.p))
    assert group.base(e) == group.exp(group.g, e)


def test_sqr_membership_is_the_range_test():
    group = SQR_GROUP
    q, p = group.q, group.p
    for v in (0, 1, q, q + 1, p - 1, p, -1, str(group.g), float(1)):
        assert group.is_element(v) is (isinstance(v, int) and 1 <= v <= q), v
    assert [group.is_element(v) for v in (1, q, q + 1, p - 1)] == [True, True, False, False]


@settings(max_examples=200, deadline=None)
@given(v=st.integers(min_value=-5, max_value=SQR_GROUP.p + 5))
def test_sqr_membership_matches_the_range(v):
    assert SQR_GROUP.is_element(v) == (1 <= v <= SQR_GROUP.q)


def test_sqr_decode_refuses_the_other_half():
    group = SQR_GROUP
    for v in (group.q + 1, group.p - 1):
        with pytest.raises(GroupDecodeError):
            group.decode(group.encode(v))
    for v in (1, group.g, group.q):
        assert group.decode(group.encode(v)) == v


def test_toy_signed_group_is_the_residues_under_abs_exhaustively():
    group = GroupParams(name="toy-signed", p=11, q=5, g=3, elem_len=1, signed=True)
    p, q = group.p, group.q
    residues = sorted({x * x % p for x in range(1, p)})
    assert residues == [1, 3, 4, 5, 9]
    # x -> |x| is a bijection from QR(11) onto [1, q] ...
    assert sorted(_signed(group, x) for x in residues) == list(range(1, q + 1))
    assert [v for v in range(-2, p + 3) if group.is_element(v)] == list(range(1, q + 1))
    # ... that commutes with exp, from either name of a class.
    for x in residues:
        for e in range(-2 * q, 3 * q):
            signed_power = _signed(group, pow(x, e % q, p))
            assert group.exp(_signed(group, x), e) == signed_power, (x, e)
            assert group.exp(p - x, e) == signed_power, (x, e)
    for e in range(-2 * q, 3 * q):
        assert group.base(e) == _signed(group, pow(group.g, e % q, p)), e


def test_sqr_chain_matches_decap():
    group = SQR_GROUP
    rng = SeedRng(b"sqr-chain-test")
    for trial in range(30):
        trng = rng.fork(b"t%d" % trial)
        n = 1 + trng.read(1)[0] % 5
        keypairs = [kem_keygen(group, trng.fork(b"k%d" % i)) for i in range(n)]
        assert all(group.is_element(kp.pk) for kp in keypairs)
        chain = kem_chain_create(group, group.random_scalar(trng.fork(b"x")),
                                 [kp.pk for kp in keypairs])
        alpha = chain[0].alpha
        for i, keypair in enumerate(keypairs):
            assert group.is_element(alpha)
            layer = kem_decap(group, keypair.sk, alpha)
            assert layer == chain[i]
            alpha = kem_blind(group, alpha, layer.b)
