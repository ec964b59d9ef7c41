import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import station_reference

import qrcost
from qrcost.binom import binomial_pmf, binomial_pmf_rows, tail_at_least
from qrcost.core import libm


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


def test_pmf_rows_equal_the_scalar_loop():
    # one batch of mixed widths, edge probabilities included: every row bit
    # for bit as the one-row loop computes it (repr tells -0.0 apart)
    rng = random.Random(12)
    trials = [rng.choice([0, 1, 2, 5, 20, 21, 103, 1280]) for _ in range(300)]
    ps = [rng.choice([0.0, 1.0, rng.random(), rng.random() ** 12, 1.0 - rng.random() ** 12])
          for _ in trials]
    rows = binomial_pmf_rows(trials, ps)
    assert rows.shape == (300, 1281)
    for row, n, p in zip(rows.tolist(), trials, ps):
        want = station_reference.binomial_pmf(n, p)
        assert repr(row[: n + 1]) == repr(want), (n, p)
        assert not any(row[n + 1:]), (n, p)
        assert repr(binomial_pmf(n, p)) == repr(want), (n, p)


def test_pmf_rows_reject_bad_arguments():
    with pytest.raises(ValueError, match="trials must be >= 0"):
        binomial_pmf_rows([3, -1], [0.5, 0.5])
    for bad in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match="p must lie in"):
            binomial_pmf_rows([3, 3], [0.5, bad])


def test_libm_goes_through_the_math_library_per_element():
    rng = random.Random(13)
    a = np.array([rng.uniform(1e-9, 50.0) for _ in range(500)])
    k = np.array([rng.randint(0, 40) for _ in range(500)])
    assert libm(math.exp, a).tolist() == [math.exp(v) for v in a.tolist()]
    assert libm(pow, a, k).tolist() == [v**e for v, e in zip(a.tolist(), k.tolist())]
    assert libm(pow, 0.5, k).tolist() == [0.5**e for e in k.tolist()]
    assert libm(math.log2, 3.0) == math.log2(3.0)


def test_sources_call_no_numpy_transcendental():
    # numpy's SIMD exp/log/power can differ from libm in the last bit, which
    # would change dataset bytes; core.libm is the one way to apply them
    pattern = re.compile(r"np\.(exp|expm1|log|log1p|log2|log10|power|float_power)\b")
    for path in (Path(qrcost.__file__).parent).glob("*.py"):
        assert not pattern.search(path.read_text()), path.name
