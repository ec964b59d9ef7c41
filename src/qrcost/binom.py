"""Stable binomial pmf and tail sums (stdlib only, no scipy dependency)."""
from __future__ import annotations

import math


def binomial_pmf(trials: int, p: float) -> list[float]:
    """Full pmf of Binomial(trials, p).

    Computed outward from the mode so entries keep relative precision even
    when the k = 0 term underflows.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    out = [0.0] * (trials + 1)
    if p == 0.0:
        out[0] = 1.0
        return out
    if p == 1.0:
        out[trials] = 1.0
        return out
    k0 = min(trials, int((trials + 1) * p))
    log_c = math.lgamma(trials + 1) - math.lgamma(k0 + 1) - math.lgamma(trials - k0 + 1)
    center = math.exp(log_c + k0 * math.log(p) + (trials - k0) * math.log1p(-p))
    out[k0] = center
    val = center
    for k in range(k0, 0, -1):
        val *= (k / (trials - k + 1)) * ((1.0 - p) / p)
        out[k - 1] = val
    val = center
    for k in range(k0, trials):
        val *= ((trials - k) / (k + 1)) * (p / (1.0 - p))
        out[k + 1] = val
    return out


def tail_at_least(trials: int, p: float, threshold: int) -> float:
    """P(Binomial(trials, p) >= threshold)."""
    if threshold <= 0:
        return 1.0
    if threshold > trials:
        return 0.0
    pmf = binomial_pmf(trials, p)
    if threshold > trials * p:
        return min(_fold(pmf[threshold:]), 1.0)
    return max(1.0 - _fold(pmf[:threshold]), 0.0)


def _fold(values: list[float]) -> float:
    """Left-to-right float total. Builtin sum() of floats is compensated from
    Python 3.12 on, which would change the last bits between versions."""
    total = 0.0
    for value in values:
        total += value
    return total
