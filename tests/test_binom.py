import math
import random
from fractions import Fraction

import pytest

from qrcost.binom import binomial_pmf, tail_at_least


def _pmf_exact(n: int, p: float):
    """Binomial pmf with exact rational arithmetic on the binary value of p."""
    pf = Fraction(p)
    return [math.comb(n, k) * pf**k * (1 - pf) ** (n - k) for k in range(n + 1)]


def test_pmf_matches_exact_small_n():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(0, 30)
        p = rng.random()
        got = binomial_pmf(n, p)
        want = _pmf_exact(n, p)
        for g, w in zip(got, want):
            assert math.isclose(g, float(w), rel_tol=1e-12, abs_tol=1e-300)


def test_pmf_normalized_and_nonnegative():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 400)
        p = rng.random()
        pmf = binomial_pmf(n, p)
        assert len(pmf) == n + 1
        assert all(v >= 0.0 for v in pmf)
        assert math.isclose(math.fsum(pmf), 1.0, rel_tol=1e-12)


def test_pmf_degenerate_probabilities():
    assert binomial_pmf(5, 0.0) == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert binomial_pmf(5, 1.0) == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    assert binomial_pmf(0, 0.3) == [1.0]


def test_pmf_survives_underflow_of_edge_terms():
    # k=0 underflows to zero but the mode must keep full precision
    pmf = binomial_pmf(5000, 0.5)
    assert pmf[0] == 0.0
    want = math.exp(
        math.lgamma(5001) - 2 * math.lgamma(2501) + 5000 * math.log(0.5)
    )
    assert math.isclose(pmf[2500], want, rel_tol=1e-10)


def test_pmf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        binomial_pmf(-1, 0.5)
    with pytest.raises(ValueError):
        binomial_pmf(5, 1.5)


def test_tail_matches_exact_sum():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 40)
        p = rng.random()
        k = rng.randint(0, n + 2)
        want = float(sum(_pmf_exact(n, p)[min(k, n + 1):], Fraction(0)))
        if k <= 0:
            want = 1.0
        assert math.isclose(tail_at_least(n, p, k), want, rel_tol=1e-12, abs_tol=1e-300)


def test_tail_edges():
    assert tail_at_least(10, 0.3, 0) == 1.0
    assert tail_at_least(10, 0.3, 11) == 0.0
    assert math.isclose(tail_at_least(10, 0.3, 1), 1.0 - 0.7**10, rel_tol=1e-12)


def test_tail_small_p_large_n_keeps_precision():
    # dominated by the first included term n*C(n-1 choose t)... stays positive
    val = tail_at_least(103, 1e-3, 10)
    direct = math.fsum(binomial_pmf(103, 1e-3)[10:])
    assert val > 0.0
    assert math.isclose(val, direct, rel_tol=1e-12)


def _plain_fold(values):
    total = 0.0
    for value in values:
        total += value
    return total


def test_tail_is_a_left_to_right_fold_on_every_python():
    # the same bits whether or not builtin sum() compensates (Python 3.12+)
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 300)
        p = rng.random()
        k = rng.randint(1, n)
        pmf = binomial_pmf(n, p)
        if k > n * p:
            want = min(_plain_fold(pmf[k:]), 1.0)
        else:
            want = max(1.0 - _plain_fold(pmf[:k]), 0.0)
        assert tail_at_least(n, p, k) == want, (n, p, k)
