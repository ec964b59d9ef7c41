"""One-way repeater chain sending parity-encoded photonic qubits.

A logical qubit is n blocks of m photons. Every station measures the
incoming code and re-encodes; decoding needs, per block, a majority of the
arrived photons read correctly (Z side) and, per logical qubit, a majority of
fully arrived blocks (X side). Stations are spaced closely enough that the
per-photon transmissivity stays above 1/2, otherwise the loss code cannot
work at all.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .binom import binomial_pmf
from .core import CostResult, Gen3Config, HardwareParams
from .keyrate import average_qber, parity_flip, secure_fraction

_CACHE_SIZE = 1 << 18


def transmissivity(eta_c: float, l0_km: float, l_att_km: float) -> float:
    """Probability that one photon survives a segment and couples back into
    the next station."""
    if not 0.0 <= eta_c <= 1.0:
        raise ValueError(f"eta_c must lie in [0, 1], got {eta_c}")
    if l0_km < 0 or l_att_km <= 0:
        raise ValueError("distances must be positive")
    return eta_c * math.exp(-l0_km / l_att_km)


def photon_error_rate(params: HardwareParams) -> float:
    """Readout flip probability for one arrived photon (storage error, half a
    two-qubit gate, one measurement)."""
    return params.eps_d + 0.5 * params.eps_g + params.xi


@lru_cache(maxsize=_CACHE_SIZE)
def _majority_split(k: int, q: float) -> tuple[float, float, float]:
    """P(minority), P(tie), P(majority) of flips among k votes flipping
    independently with probability q. k = 0 counts as a tie."""
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


@lru_cache(maxsize=_CACHE_SIZE)
def _vote_block(trials: int, p_arrive: float, p_flip: float) -> tuple[float, float, float]:
    """(correct, incorrect, unknown) for a majority vote over the subset of
    `trials` voters that arrive (each independently with p_arrive), each
    arrived vote flipped with probability p_flip. No arrivals or a tie leave
    the outcome unknown."""
    pc = pi = pu = 0.0
    for k, w in enumerate(binomial_pmf(trials, p_arrive)):
        if w == 0.0:
            continue
        lo, tie, hi = _majority_split(k, p_flip)
        pc += w * lo
        pi += w * hi
        pu += w * tie
    return pc, pi, pu


@lru_cache(maxsize=_CACHE_SIZE)
def decode_probs(n: int, m: int, mu: float, eps_q: float, basis: str) -> tuple[float, float, float]:
    """(p_correct, p_incorrect, p_unknown) of one logical readout at a single
    station, for basis 'z' (per-block majority, parity across blocks) or 'x'
    (per-block parity of complete blocks, majority across blocks)."""
    if basis == "z":
        pc, pi, _ = _vote_block(m, mu, eps_q)
        s, d = pc + pi, pc - pi
        known = s**n
        # parity over n known blocks: wrong iff an odd number of blocks vote wrong
        return 0.5 * (known + d**n), 0.5 * (known - d**n), 1.0 - known
    if basis == "x":
        return _decode_x(n, m, mu, eps_q)
    raise ValueError(f"basis must be 'x' or 'z', got {basis!r}")


def _decode_x(n: int, m: int, mu: float, eps_q: float) -> tuple[float, float, float]:
    """X readout: a block votes with its parity when all m photons arrive
    (the parity flips when an odd number of them flip); majority across blocks.
    Not cached: station_outcome caches its own results, and a cache here would
    hold one more entry for each of its misses."""
    arrive_all = mu**m
    return _vote_block(n, arrive_all, parity_flip(1.0 - 2.0 * eps_q, m))


@lru_cache(maxsize=_CACHE_SIZE)
def station_outcome(n: int, m: int, mu: float, eps_q: float) -> tuple[float, float, float, float]:
    """Per-station decode summary (ratio_z, ratio_x, p_unknown, ok).

    ratio_z/ratio_x are the conditional correctness biases
    (p_correct - p_incorrect) / (p_correct + p_incorrect) of the Z and X
    logical readouts; p_unknown is the probability that either readout is
    undecidable. ok is False when the code never decodes.
    """
    pc_blk, pi_blk, _ = _vote_block(m, mu, eps_q)
    s = pc_blk + pi_blk
    d = pc_blk - pi_blk
    # Z logical value is the parity of the n block outcomes: every block must
    # be known, errors cancel pairwise. The bias is taken as (d/s)**n: the
    # ratio of decode_probs(..., "z") agrees only to about 1e-12.
    known_z = s**n
    pu_z = 1.0 - known_z

    pc_x, pi_x, pu_x = _decode_x(n, m, mu, eps_q)
    s_x = pc_x + pi_x

    p_unknown = 1.0 - (1.0 - pu_x) * (1.0 - pu_z)
    if known_z <= 0.0 or s_x <= 0.0:
        return 0.0, 0.0, 1.0, False
    ratio_z = (d / s) ** n
    ratio_x = (pc_x - pi_x) / s_x
    return ratio_z, ratio_x, p_unknown, True


def _throughput(
    params: HardwareParams, config: Gen3Config, l_tot_km: float
) -> tuple[float, int, int]:
    """(x, qubits_per_station, stations) with x = p_succ * r the secret bits
    per gate time; x = 0 when the code cannot work. t0 is not read: the rate
    is x / t0."""
    stations = math.ceil(l_tot_km / config.spacing_km)
    qps = 2 * config.n * config.m
    mu = transmissivity(params.eta_c, config.spacing_km, params.l_att)
    if mu <= 0.5:
        return 0.0, qps, stations
    eps_q = photon_error_rate(params)
    ratio_z, ratio_x, p_unknown, ok = station_outcome(config.n, config.m, mu, eps_q)
    if not ok:
        return 0.0, qps, stations
    p_succ = (1.0 - p_unknown) ** stations
    q_x, q_z = parity_flip(ratio_x, stations), parity_flip(ratio_z, stations)
    return p_succ * secure_fraction(average_qber(q_x, q_z)), qps, stations


def evaluate(params: HardwareParams, config: Gen3Config, l_tot_km: float) -> CostResult:
    """Rate and cost of the one-way parity-code chain."""
    if l_tot_km <= 0:
        raise ValueError("l_tot_km must be > 0")
    x, qps, stations = _throughput(params, config, l_tot_km)
    if x <= 0.0:
        return CostResult.infeasible(qps, stations)
    return CostResult.from_rate(x / params.t0, qps, stations, l_tot_km)
