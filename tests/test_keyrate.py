import math
import random

import numpy as np
import pytest
import station_reference

from qrcost.keyrate import QBER_DEAD, average_qber, binary_entropy, secure_fraction, secure_fraction_rows


def test_entropy_endpoints_and_peak():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_entropy_matches_direct_formula():
    rng = random.Random(0)
    for _ in range(200):
        q = rng.uniform(1e-9, 1.0 - 1e-9)
        direct = -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)
        assert math.isclose(binary_entropy(q), direct, rel_tol=1e-14)


def test_entropy_symmetry():
    rng = random.Random(1)
    for _ in range(100):
        q = rng.uniform(0.0, 1.0)
        assert math.isclose(binary_entropy(q), binary_entropy(1.0 - q), rel_tol=0, abs_tol=1e-15)


def test_entropy_rejects_outside_unit_interval():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_secure_fraction_perfect_and_floor():
    assert secure_fraction(0.0) == 1.0
    assert secure_fraction(0.5) == 0.0
    # positive just below the threshold, clamped to zero just above
    assert secure_fraction(0.1100) > 0.0
    assert secure_fraction(0.1101) == 0.0


def test_secure_fraction_decreasing_below_threshold():
    qs = [0.01 * k for k in range(11)]
    vals = [secure_fraction(q) for q in qs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_average_qber():
    assert average_qber(0.0, 0.0) == 0.0
    assert average_qber(0.02, 0.06) == pytest.approx(0.04, rel=1e-15)


def test_secure_fraction_rows_equal_the_scalar_formula():
    rng = random.Random(2)
    # the ends of the range computed without a log2 (keyrate.QBER_DEAD) too
    low, high = QBER_DEAD
    ends = [low, high, math.nextafter(low, 1.0), math.nextafter(high, 0.0), 0.11003, 0.88997]
    qs = [0.0, 1.0, 0.5, 0.11, 0.1101, 5e-324, *ends] + [
        rng.choice([rng.random(), rng.random() * 0.12, rng.random() ** 20]) for _ in range(2000)
    ]
    got = secure_fraction_rows(np.array(qs)).tolist()
    assert repr(got) == repr([station_reference.secure_fraction(q) for q in qs])
    assert [secure_fraction(q) for q in qs] == got
    with pytest.raises(ValueError, match="got 1.5"):
        secure_fraction_rows(np.array([0.1, 1.5]))
    with pytest.raises(ValueError):
        secure_fraction_rows(np.array([math.nan]))
