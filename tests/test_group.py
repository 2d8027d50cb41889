import pytest

from rsor.crypto import SeedRng
from rsor.group import GroupDecodeError, GroupParams, PROD_GROUP, SQR_GROUP, TOY_GROUP


def test_toy_group_membership():
    # Order-5 subgroup of Z_11* generated by 3: {1, 3, 9, 5, 4}.
    members = {1, 3, 9, 5, 4}
    for v in range(1, 11):
        assert TOY_GROUP.is_element(v) == (v in members)
    assert not TOY_GROUP.is_element(0)
    assert not TOY_GROUP.is_element(11)


def test_toy_group_exp():
    assert TOY_GROUP.exp(3, 2) == 9
    assert TOY_GROUP.exp(3, 5) == 1
    assert TOY_GROUP.exp(9, 0) == 1


def test_scalars():
    assert TOY_GROUP.is_scalar(1) and TOY_GROUP.is_scalar(4)
    assert not TOY_GROUP.is_scalar(0)
    assert not TOY_GROUP.is_scalar(5)


def test_encode_decode_roundtrip():
    for group in (TOY_GROUP, PROD_GROUP):
        value = group.exp(group.g, 3)
        data = group.encode(value)
        assert len(data) == group.elem_len
        assert group.decode(data) == value


def test_decode_rejects_non_elements():
    with pytest.raises(GroupDecodeError):
        TOY_GROUP.decode(bytes([2]))  # 2 is not in the order-5 subgroup
    with pytest.raises(GroupDecodeError):
        PROD_GROUP.decode(b"\x00" * PROD_GROUP.elem_len)
    with pytest.raises(GroupDecodeError):
        TOY_GROUP.decode(b"\x01\x02")  # wrong width


def test_prod_group_structure():
    # Safe-prime structure: p = 2q + 1 and the generator has order q.
    assert PROD_GROUP.p == 2 * PROD_GROUP.q + 1
    assert pow(PROD_GROUP.g, PROD_GROUP.q, PROD_GROUP.p) == 1
    assert PROD_GROUP.is_element(PROD_GROUP.g)


@pytest.mark.parametrize("build", [
    lambda: GroupParams(name="not-safe", p=23, q=5, g=2, elem_len=1),
    # namedtuple's own _make and _replace skip __new__, so these need the
    # _make that GroupParams routes through its constructor.
    lambda: GroupParams._make(("not-safe", 23, 5, 2, 1)),
    lambda: SQR_GROUP._replace(p=SQR_GROUP.p + 2),
], ids=["new", "make", "replace"])
def test_group_that_is_not_a_safe_prime_is_refused(build):
    # A ValueError, not an assert, so python -O refuses it too.
    with pytest.raises(ValueError, match="safe prime"):
        build()


def test_random_scalar_range_and_determinism():
    for group in (TOY_GROUP, PROD_GROUP):
        values = [group.random_scalar(SeedRng(b"seed-%d" % i)) for i in range(50)]
        assert all(group.is_scalar(v) for v in values)
        assert group.random_scalar(SeedRng(b"seed-1")) == values[1]
    # The toy group is small enough to see the whole range.
    toy = {TOY_GROUP.random_scalar(SeedRng(b"t%d" % i)) for i in range(100)}
    assert toy == {1, 2, 3, 4}
