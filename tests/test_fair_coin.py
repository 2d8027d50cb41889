from fractions import Fraction

from rsor.games import fair_coin_pvalue

from binomial import binomial_pvalue


def test_fair_coin_pvalue_matches_the_exact_definition():
    for n in range(1, 61):
        for k in range(n + 1):
            assert fair_coin_pvalue(k, n) == binomial_pvalue(k, n, Fraction(1, 2)), (k, n)
