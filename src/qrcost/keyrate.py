"""Secret-key fraction for BB84-style entanglement-based QKD."""
from __future__ import annotations

import math

import numpy as np

from .core import libm


def binary_entropy_rows(q: np.ndarray) -> np.ndarray:
    """Shannon entropy of biased coins, in bits, one per entry of a 1-D
    array. Zero at q = 0 and q = 1."""
    bad = ~((0.0 <= q) & (q <= 1.0))
    if bad.any():
        raise ValueError(f"probability must lie in [0, 1], got {q[bad][0].item()}")
    out = np.zeros(len(q))
    inner = (q != 0.0) & (q != 1.0)
    p = q[inner]
    out[inner] = -p * libm(math.log2, p) - (1.0 - p) * libm(math.log2, 1.0 - p)
    return out


def binary_entropy(q: float) -> float:
    """Shannon entropy of a biased coin, in bits. Zero at q = 0 and q = 1."""
    return binary_entropy_rows(np.array([q], dtype=float))[0].item()


# Every error rate strictly between these has 1 - 2 h(Q) < -2e-3, far past
# the rounding of h, so its secure fraction is 0 without a log2 (the key-rate
# threshold is Q = 0.11003 and its mirror 0.88997)
QBER_DEAD = (0.1105, 0.8895)


def secure_fraction_rows(qber: np.ndarray) -> np.ndarray:
    """Asymptotic secret bits per raw bit at each average error rate of a 1-D
    array, clamped at zero; 0 without a log2 inside QBER_DEAD.

    One-way reconciliation plus privacy amplification charge one binary
    entropy each, evaluated at the basis-averaged error rate.
    """
    low, high = QBER_DEAD
    live = ~((low < qber) & (qber < high))
    out = np.zeros(len(qber))
    out[live] = np.maximum(1.0 - 2.0 * binary_entropy_rows(qber[live]), 0.0)
    return out


def secure_fraction(qber: float) -> float:
    """secure_fraction_rows of one error rate."""
    return secure_fraction_rows(np.array([qber], dtype=float))[0].item()


def parity_flip(bias, k):
    """Probability that the parity of k independent bits is flipped, each bit
    flipping with probability (1 - bias) / 2: (1 - bias**k) / 2. Numbers, or
    arrays elementwise."""
    return 0.5 * (1.0 - libm(pow, bias, k))


def average_qber(qber_x, qber_z):
    """Basis-averaged error rate fed to secure_fraction; numbers or arrays."""
    return 0.5 * (qber_x + qber_z)
