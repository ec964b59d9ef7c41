"""Secret-key fraction for BB84-style entanglement-based QKD."""
from __future__ import annotations

import math


def binary_entropy(q: float) -> float:
    """Shannon entropy of a biased coin, in bits. Zero at q = 0 and q = 1."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {q}")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def secure_fraction(qber: float) -> float:
    """Asymptotic secret bits per raw bit at average error rate qber, clamped at zero.

    One-way reconciliation plus privacy amplification charge one binary
    entropy each, evaluated at the basis-averaged error rate.
    """
    return max(1.0 - 2.0 * binary_entropy(qber), 0.0)


def parity_flip(bias: float, k: int) -> float:
    """Probability that the parity of k independent bits is flipped, each bit
    flipping with probability (1 - bias) / 2: (1 - bias**k) / 2."""
    return 0.5 * (1.0 - bias**k)


def average_qber(qber_x: float, qber_z: float) -> float:
    """Basis-averaged error rate fed to secure_fraction."""
    return 0.5 * (qber_x + qber_z)
