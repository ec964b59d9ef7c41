"""Plain-loop reference of the binomial pmf, the secure fraction and the gen3
station decode and throughput, one number at a time, kept apart from the
production array passes so the tests can check those against them bit for
bit.

These are the scalar folds qrcost used before its array passes: every float
operation happens in the same order, with Python floats and the C math
library, so `repr` equality is the expected outcome.
"""
from __future__ import annotations

import math
from functools import lru_cache


def binomial_pmf(trials: int, p: float) -> list[float]:
    """Pmf of Binomial(trials, p), walked outward from the mode."""
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


def secure_fraction(qber: float) -> float:
    """max(1 - 2 h(qber), 0) with the binary entropy h."""
    if qber == 0.0 or qber == 1.0:
        h = 0.0
    else:
        h = -qber * math.log2(qber) - (1.0 - qber) * math.log2(1.0 - qber)
    return max(1.0 - 2.0 * h, 0.0)


@lru_cache(maxsize=None)
def _majority_split(k: int, q: float) -> tuple[float, float, float]:
    """P(minority), P(tie), P(majority) of flips among k votes."""
    if k == 0:
        return 0.0, 1.0, 0.0
    lo = tie = hi = 0.0
    for j, w in enumerate(binomial_pmf(k, q)):
        if 2 * j < k:
            lo += w
        elif 2 * j == k:
            tie += w
        else:
            hi += w
    return lo, tie, hi


def vote_block(trials: int, p_arrive: float, p_flip: float) -> tuple[float, float, float]:
    """(correct, incorrect, unknown) of a majority vote over arrived voters."""
    pc = pi = pu = 0.0
    for k, w in enumerate(binomial_pmf(trials, p_arrive)):
        if w == 0.0:
            continue
        lo, tie, hi = _majority_split(k, p_flip)
        pc += w * lo
        pi += w * hi
        pu += w * tie
    return pc, pi, pu


def station_outcome(n: int, m: int, mu: float, eps_q: float) -> tuple[float, float, float, bool]:
    """(ratio_z, ratio_x, p_unknown, ok) of one station."""
    pc_blk, pi_blk, _ = vote_block(m, mu, eps_q)
    s = pc_blk + pi_blk
    d = pc_blk - pi_blk
    known_z = s**n
    pu_z = 1.0 - known_z
    pc_x, pi_x, pu_x = vote_block(n, mu**m, 0.5 * (1.0 - (1.0 - 2.0 * eps_q) ** m))
    s_x = pc_x + pi_x
    p_unknown = 1.0 - (1.0 - pu_x) * (1.0 - pu_z)
    if known_z <= 0.0 or s_x <= 0.0:
        return 0.0, 0.0, 1.0, False
    return (d / s) ** n, (pc_x - pi_x) / s_x, p_unknown, True


def throughput(eta_c: float, l_att: float, eps_q: float, n: int, m: int, spacing_km: float,
               l_tot_km: float) -> float:
    """x = p_succ * r of one gen3 configuration; 0 when the code cannot work."""
    stations = math.ceil(l_tot_km / spacing_km)
    mu = eta_c * math.exp(-spacing_km / l_att)
    if mu <= 0.5:
        return 0.0
    ratio_z, ratio_x, p_unknown, ok = station_outcome(n, m, mu, eps_q)
    if not ok:
        return 0.0
    p_succ = (1.0 - p_unknown) ** stations
    q_x = 0.5 * (1.0 - ratio_x**stations)
    q_z = 0.5 * (1.0 - ratio_z**stations)
    return p_succ * secure_fraction(0.5 * (q_x + q_z))
