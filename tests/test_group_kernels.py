"""The fixed-base table and the Legendre-symbol membership test against the
plain modexps they replace: the same value for every input."""

import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from rsor.crypto import SeedRng
from rsor.group import PROD_GROUP, TOY_GROUP, GroupParams

GROUPS = pytest.mark.parametrize("group", [TOY_GROUP, PROD_GROUP], ids=["toy", "prod"])


def _reference_is_element(group, v):
    return isinstance(v, int) and 1 <= v < group.p and pow(v, group.q, group.p) == 1


@GROUPS
def test_base_matches_pow_at_edge_exponents(group):
    q = group.q
    for e in (0, 1, q - 1, q, q + 1, -1, 2**300):
        assert group.base(e) == pow(group.g, e % q, group.p), e


@GROUPS
@settings(max_examples=200, deadline=None)
@given(e=st.integers(min_value=-(2**400), max_value=2**400))
def test_base_matches_pow(group, e):
    assert group.base(e) == pow(group.g, e % group.q, group.p)


def test_toy_membership_matches_euler_on_every_int():
    for v in range(-2, TOY_GROUP.p + 3):
        assert TOY_GROUP.is_element(v) == _reference_is_element(TOY_GROUP, v), v


def test_prod_membership_matches_euler_at_edges():
    p = PROD_GROUP.p
    # 0 and p are out of range; p - 1 has order 2; g generates the group.
    for v in (0, 1, p - 1, p, PROD_GROUP.g, -1, p + 1):
        assert PROD_GROUP.is_element(v) == _reference_is_element(PROD_GROUP, v), v
    assert not PROD_GROUP.is_element(p - 1)
    assert not PROD_GROUP.is_element(str(PROD_GROUP.g))
    assert not PROD_GROUP.is_element(float(1))


def test_prod_membership_matches_euler_on_random_values():
    rng = SeedRng(b"membership")
    values = [int.from_bytes(rng.read(PROD_GROUP.elem_len), "big") for _ in range(300)]
    verdicts = [PROD_GROUP.is_element(v) for v in values]
    assert verdicts == [_reference_is_element(PROD_GROUP, v) for v in values]
    # Half of Z_p^* is in the subgroup, so both answers must occur.
    assert any(verdicts) and not all(verdicts)


@settings(max_examples=200, deadline=None)
@given(v=st.integers(min_value=-5, max_value=PROD_GROUP.p + 5))
def test_prod_membership_matches_euler(v):
    assert PROD_GROUP.is_element(v) == _reference_is_element(PROD_GROUP, v)


def test_non_safe_prime_group_is_refused():
    # 23 = 2*11 + 1, so q = 7 does not make p a safe prime over q.
    with pytest.raises(ValueError):
        GroupParams(name="bad", p=23, q=7, g=2, elem_len=1)


def test_non_safe_prime_group_is_refused_under_python_O():
    script = textwrap.dedent("""
        from rsor.group import GroupParams

        assert False, "asserts must be stripped"
        try:
            GroupParams(name="bad", p=23, q=7, g=2, elem_len=1)
        except ValueError:
            print("ok")
        else:
            raise SystemExit("accepted p != 2q + 1")
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and out.stdout.strip() == "ok", out.stderr
