"""Stable binomial pmf and tail sums (no scipy dependency)."""
from __future__ import annotations

import math

import numpy as np

from .core import libm, ordered_sum

# floats per pmf block of tail_rows (512 KB)
_BLOCK = 1 << 16


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
    # lgamma(c + 1) once per distinct count c among n, k0 and n - k0, not
    # three times per row: the same libm calls on the same arguments. The
    # counts are marked in a mask: np.unique would import numpy.ma
    counts = np.concatenate((n, k0, n - k0))
    seen = np.zeros(n.max(initial=-1) + 1, dtype=bool)
    seen[counts] = True
    distinct = np.flatnonzero(seen)
    log_factorial = libm(math.lgamma, distinct + 1)[np.searchsorted(distinct, counts)]
    lg_n, lg_k0, lg_rest = log_factorial.reshape(3, -1)
    log_c = lg_n - lg_k0 - lg_rest
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
    """P(Binomial(trials, p) >= threshold): one entry of tail_rows."""
    if threshold <= 0:
        return 1.0
    if threshold > trials:
        return 0.0
    return tail_rows([trials], [p], [threshold])[0, 0].item()


def tail_rows(trials, p, thresholds) -> np.ndarray:
    """[j, i] = P(Binomial(trials[i], p[i]) >= thresholds[j]).

    The pmf terms on the side of the threshold away from the mean are summed
    left to right (core.ordered_sum). The zeros past trials[i] add nothing,
    so an entry does not depend on the rows beside it. Rows go in blocks of
    about _BLOCK floats, which bounds the memory of wide rows.
    """
    trials = np.asarray(trials, dtype=np.int64)
    p = np.asarray(p, dtype=float)
    mean = trials * p
    out = np.empty((len(thresholds), len(p)))
    step = max(1, _BLOCK // (int(trials.max(initial=0)) + 1))
    for start in range(0, len(p), step):
        rows = slice(start, start + step)
        pmf = np.ascontiguousarray(binomial_pmf_rows(trials[rows], p[rows]).T)  # [k, row]
        k = np.arange(len(pmf))
        for j, threshold in enumerate(thresholds):
            upper = threshold > mean[rows]
            total = ordered_sum(np.where((k >= threshold)[:, None] == upper, pmf, 0.0))
            out[j, rows] = np.where(upper, np.minimum(total, 1.0), np.maximum(1.0 - total, 0.0))
    return out
