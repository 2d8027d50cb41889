"""The group kernels against plain Python references computed in each test:
``exp`` (a libcrypto ``BN_mod_exp_mont``) and ``base`` (the same modexp for
a group's first ``TABLE_AFTER - 1`` calls, then at most one multiplication
per byte of the exponent, from a fixed-base table of 33 rows of 256 powers
of g for ``PROD_GROUP``, about 0.57 MB built once per group at call
``TABLE_AFTER``) against ``pow(b, e % q, p)``, and the Legendre-symbol membership
test against Euler's criterion ``pow(v, q, p) == 1``.  Neither power kernel
is constant-time; these tests check values only.  Also how the kernels fail:
a libcrypto call that reports failure raises, and a handle that cannot be
resolved fails ``import rsor``."""

import ctypes
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import rsor.group as group_module
from rsor.crypto import SeedRng
from rsor.group import PROD_GROUP, SQR_GROUP, TABLE_AFTER, TOY_GROUP, GroupParams

GROUPS = pytest.mark.parametrize("group", [TOY_GROUP, PROD_GROUP], ids=["toy", "prod"])


def _reference_is_element(group, v):
    return isinstance(v, int) and 1 <= v < group.p and pow(v, group.q, group.p) == 1


def _edge_exponents(group):
    q = group.q
    return (0, 1, q - 1, q, q + 1, -1, 2**300)


def test_toy_exp_matches_pow_on_every_element_and_exponent():
    group = TOY_GROUP
    elements = [v for v in range(1, group.p) if _reference_is_element(group, v)]
    assert elements == [1, 3, 4, 5, 9]
    for b in elements:
        for e in range(-2 * group.q, 3 * group.q):
            assert group.exp(b, e) == pow(b, e % group.q, group.p), (b, e)


@GROUPS
def test_exp_matches_pow_at_edge_exponents_and_bases(group):
    # 1 is the identity; p - 1 has order 2, outside the subgroup, and the
    # kernel must still agree with pow on it.
    for b in (1, group.p - 1, group.g, group.base(3)):
        for e in _edge_exponents(group):
            assert group.exp(b, e) == pow(b, e % group.q, group.p), (b, e)


@settings(max_examples=200, deadline=None)
@given(root=st.integers(min_value=1, max_value=PROD_GROUP.p - 1),
       e=st.integers(min_value=-(2**400), max_value=2**400))
def test_prod_exp_matches_pow(root, e):
    group = PROD_GROUP
    b = root * root % group.p  # a square, so a subgroup element
    assert group.exp(b, e) == pow(b, e % group.q, group.p)


@GROUPS
def test_base_matches_pow_at_edge_exponents(group):
    for e in _edge_exponents(group):
        assert group.base(e) == pow(group.g, e % group.q, group.p), e


@GROUPS
@settings(max_examples=200, deadline=None)
@given(e=st.integers(min_value=-(2**400), max_value=2**400))
def test_base_matches_pow(group, e):
    assert group.base(e) == pow(group.g, e % group.q, group.p)


@GROUPS
def test_base_matches_pow_at_each_rows_top_entry(group):
    table = group._g_table
    for i, row in enumerate(table):
        assert row[255] == pow(group.g, 255 * 256**i, group.p), i
    # 2**256 is below PROD_GROUP's q, so it reads the top row's entry 1.
    for e in [255 * 256**i for i in range(len(table))] + [2**256]:
        assert group.base(e) == pow(group.g, e % group.q, group.p), e


def _reference_base(group, e):
    r = pow(group.g, e % group.q, group.p)
    return min(r, group.p - r) if group.signed else r


@pytest.mark.parametrize("group", [TOY_GROUP, PROD_GROUP, SQR_GROUP],
                         ids=["toy", "prod", "sqr"])
def test_base_matches_pow_before_at_and_after_the_table(monkeypatch, group):
    fresh = group._replace()  # a new instance: no table and no count yet
    rng = SeedRng(b"base paths")
    exponents = list(_edge_exponents(group))
    exponents += [int.from_bytes(rng.read(40), "big") for _ in range(TABLE_AFTER + 20)]
    # Before its table, base must not go through the name exp, which the
    # benchmark tracer and the modexp counters wrap.
    monkeypatch.setattr(GroupParams, "exp", None)
    for call, e in enumerate(exponents, 1):
        assert fresh.base(e) == _reference_base(group, e), (call, e)
        assert ("_g_table" in vars(fresh)) == (call >= TABLE_AFTER), call
    assert vars(fresh)["_base_calls"] == TABLE_AFTER
    assert fresh._g_table == group._g_table
    # The count and the table sit outside the fields.
    assert fresh == group and hash(fresh) == hash(group)
    assert fresh._replace() == group and "_base_calls" not in vars(fresh._replace())


def test_prod_table_is_built_once():
    table = PROD_GROUP._g_table
    assert PROD_GROUP._g_table is table
    assert len(table) == 33 and all(len(row) == 256 for row in table)


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
    expected = [_reference_is_element(PROD_GROUP, v) for v in values]
    # Half of Z_p^* is in the subgroup, so both answers must occur.
    assert any(expected) and not all(expected)
    assert [PROD_GROUP.is_element(v) for v in values] == expected


@settings(max_examples=200, deadline=None)
@given(v=st.integers(min_value=-5, max_value=PROD_GROUP.p + 5))
def test_prod_membership_matches_euler(v):
    assert PROD_GROUP.is_element(v) == _reference_is_element(PROD_GROUP, v)


class _StubLibcrypto:
    """Answers every kernel call with success, except the one named call,
    which reports failure the way libcrypto does."""

    def __init__(self, failing):
        self.failing = failing

    def __getattr__(self, name):
        failure = {"BN_bn2binpad": -1, "BN_kronecker": -2}.get(name, 0)

        def call(*args):
            if name == self.failing:
                return failure
            if name == "BN_bn2binpad":
                return args[2]  # the requested width
            return 1  # a non-NULL pointer, a success code, or the symbol 1

        return call


@pytest.mark.parametrize("failing", [
    "BN_CTX_new", "BN_bin2bn", "BN_MONT_CTX_new", "BN_MONT_CTX_set", "BN_new",
    "BN_mod_exp_mont", "BN_bn2binpad", "BN_kronecker",
])
def test_libcrypto_failures_raise(monkeypatch, failing):
    monkeypatch.setattr(group_module, "_LIBCRYPTO", _StubLibcrypto(failing))
    group = GroupParams(name="stub", p=11, q=5, g=3, elem_len=1)
    with pytest.raises(RuntimeError, match=failing):
        group.is_element(3) if failing == "BN_kronecker" else group.exp(3, 2)


# Every function in _resolve_libcrypto's signature table.
_SYMBOLS = [
    "BN_new", "BN_CTX_new", "BN_MONT_CTX_new", "BN_MONT_CTX_set", "BN_bin2bn",
    "BN_bn2binpad", "BN_mod_exp_mont", "BN_kronecker", "EVP_CIPHER_CTX_new",
    "EVP_aes_128_ctr", "EVP_EncryptInit_ex", "EVP_EncryptUpdate",
]


@pytest.mark.parametrize("missing", _SYMBOLS)
def test_missing_symbol_fails_import(monkeypatch, missing):
    real_cdll = ctypes.CDLL

    class HidesOneSymbol:
        def __init__(self, path):
            self._lib = real_cdll(path)

        def __getattr__(self, name):
            if name == missing:
                raise AttributeError(name)
            return getattr(self._lib, name)

    monkeypatch.setattr(ctypes, "CDLL", HidesOneSymbol)
    with pytest.raises(ImportError, match=missing):
        group_module._resolve_libcrypto()


def test_unloadable_library_fails_import(monkeypatch):
    def refuses(path):
        raise OSError("cannot load %s" % path)

    monkeypatch.setattr(ctypes, "CDLL", refuses)
    with pytest.raises(ImportError, match="cannot load") as raised:
        group_module._resolve_libcrypto()
    assert isinstance(raised.value.__cause__, OSError)


def _run_python(args, script):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


def test_import_without_hashlib_fails_with_import_error():
    script = textwrap.dedent("""
        import sys

        sys.modules["_hashlib"] = None
        try:
            import rsor
        except ImportError as exc:
            print(exc)
        else:
            raise SystemExit("rsor imported without _hashlib")
    """)
    out = _run_python([], script)
    assert out.returncode == 0, out.stderr
    assert "_hashlib" in out.stdout


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
    out = _run_python(["-O"], script)
    assert out.returncode == 0 and out.stdout.strip() == "ok", out.stderr
