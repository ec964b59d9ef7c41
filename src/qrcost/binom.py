"""Stable binomial pmf and tail sums (no scipy dependency)."""
from __future__ import annotations

import math

import numpy as np

from .core import libm


def binomial_pmf_rows(trials, p) -> np.ndarray:
    """Row i is the pmf of Binomial(trials[i], p[i]), zero past trials[i];
    shape (rows, max(trials) + 1).

    Computed outward from the mode so entries keep relative precision even
    when the k = 0 term underflows: the mode term from logs, then running
    products of the ratios of neighbouring terms. np.cumprod multiplies in
    order, so each row gets the float operations of a one-row call.
    """
    trials = np.asarray(trials, dtype=np.int64)
    p = np.asarray(p, dtype=float)
    if (trials < 0).any():
        raise ValueError("trials must be >= 0")
    bad = ~((0.0 <= p) & (p <= 1.0))
    if bad.any():
        raise ValueError(f"p must lie in [0, 1], got {p[bad][0].item()}")
    width = int(trials.max(initial=0)) + 1
    out = np.zeros((len(p), width))
    rows = np.arange(len(p))
    out[p == 0.0, 0] = 1.0
    out[rows[p == 1.0], trials[p == 1.0]] = 1.0
    inner = (p != 0.0) & (p != 1.0)
    n, q, rows = trials[inner], p[inner], rows[inner]
    k0 = np.minimum(n, ((n + 1) * q).astype(np.int64))
    log_c = libm(math.lgamma, n + 1) - libm(math.lgamma, k0 + 1) - libm(math.lgamma, n - k0 + 1)
    center = libm(math.exp, log_c + k0 * libm(math.log, q) + (n - k0) * libm(math.log1p, -q))
    # pmf[k] is center times the ratios of the steps from k0 to k, in walk
    # order: ratios placed at k, with center at k0 and 1.0 before it, make a
    # running product along the walk (reversed below k0) give it exactly
    k, n, k0 = np.arange(width), n[:, None], k0[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        below = np.where(k < k0, ((k + 1) / (n - k)) * ((1.0 - q) / q)[:, None], 1.0)
        above = np.where(k > k0, ((n - k + 1) / k) * (q / (1.0 - q))[:, None], 1.0)
        below[k == k0] = above[k == k0] = center
        below = np.cumprod(below[:, ::-1], axis=1)[:, ::-1]
        above = np.cumprod(above, axis=1)
    out[rows] = np.where(k <= k0, below, np.where(k <= n, above, 0.0))
    return out


def binomial_pmf(trials: int, p: float) -> list[float]:
    """Full pmf of Binomial(trials, p): one row of binomial_pmf_rows."""
    return binomial_pmf_rows([trials], [p])[0].tolist()


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
