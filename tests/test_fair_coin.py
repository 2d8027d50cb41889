import math

from scipy.stats import binomtest

from rsor.games import fair_coin_pvalue


def test_fair_coin_pvalue_matches_scipy():
    for n in range(1, 61):
        for k in range(n + 1):
            assert math.isclose(fair_coin_pvalue(k, n), binomtest(k, n, 0.5).pvalue,
                                rel_tol=1e-12), (k, n)
