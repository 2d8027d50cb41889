"""Exact two-sided binomial test for the tests' statistical gates."""

import math


def binomial_pvalue(k, n, p):
    """The chance, with success probability p (a Fraction a/b), of an
    outcome of n trials no more likely than k successes: outcome i weighs
    comb(n, i) * a**i * (b - a)**(n - i), all in integers, and the weights
    at most k's, summed, are divided by b**n."""
    a, b = p.numerator, p.denominator
    weights = [math.comb(n, i) * a**i * (b - a) ** (n - i) for i in range(n + 1)]
    return sum(w for w in weights if w <= weights[k]) / b**n
