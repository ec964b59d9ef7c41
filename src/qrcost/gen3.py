"""One-way repeater chain sending parity-encoded photonic qubits.

A logical qubit is n blocks of m photons. Every station measures the
incoming code and re-encodes; decoding needs, per block, a majority of the
arrived photons read correctly (Z side) and, per logical qubit, a majority of
fully arrived blocks (X side). Stations are spaced closely enough that the
per-photon transmissivity stays above 1/2, otherwise the loss code cannot
work at all.

Station decodes and throughputs are computed in array passes over tables of
codes at transmissivities, each row with the float operations of a one-code
fold, so a code's numbers do not depend on the table that holds it. The
search prices a cell in one pass over its grid; a reader of one code reads
the table of its code grid (at least the default search's codes) at its
spacing, which a full scan then shares.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# binomial_pmf is not called here; the benchmark's tracer hooks this name
from .binom import binomial_pmf, binomial_pmf_rows  # noqa: F401
from .core import CostResult, Gen3Config, HardwareParams, libm
from .keyrate import average_qber, parity_flip, secure_fraction_rows

_CACHE_SIZE = 1 << 18
# a cell's tables take up to about 0.2 MB, so keep as many as optimize._frontier
_TABLE_CACHE_SIZE = 256
# floats per temporary array of a vote pass (128 KB): bounds the peak memory
# of a cell pass and keeps wide codes (n or m in the thousands) within reach
_BLOCK = 1 << 14

# The default search's largest code; every table holds at least these codes.
SEARCH_N = 20
SEARCH_M = 20


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


def _split(flips: np.ndarray, k: np.ndarray) -> np.ndarray:
    """[outcome, flip, i]: the probabilities that a minority, a majority or
    exactly half of k[i] arrived votes flip, each flipping with probability
    flips[f]. Sums run left to right over the flipped count (np.cumsum adds
    in order)."""
    flipped = binomial_pmf_rows(np.tile(k, len(flips)), np.repeat(flips, len(k)))
    flipped = flipped.reshape(len(flips), len(k), -1)  # [flip, i, flipped]
    excess = 2 * np.arange(flipped.shape[2]) - k[:, None]  # flipped minus unflipped votes
    outcomes = (excess < 0, excess > 0, excess == 0)
    return np.stack([np.cumsum(np.where(o, flipped, 0.0), axis=2)[..., -1] for o in outcomes])


def _votes(trials, p_arrive, p_flip) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(correct, incorrect, unknown) of one majority vote per row, over the
    subset of trials[i] voters that arrive (each independently with
    p_arrive[i]), each arrived vote flipped with probability p_flip[i]. No
    arrivals or a tie leave the outcome unknown. Sums run left to right over
    the arrived count. Rows and arrived counts go in blocks that keep each
    temporary array near _BLOCK floats; a row's sums do not depend on its
    block."""
    flips, which = np.unique(p_flip, return_inverse=True)
    which, width = which.ravel(), int(np.max(trials, initial=0)) + 1
    step = max(1, _BLOCK // (len(flips) * width))
    blocks = (np.arange(k, min(k + step, width)) for k in range(0, width, step))
    split = np.concatenate([_split(flips, k) for k in blocks], axis=2)
    step, votes = max(1, _BLOCK // width), []
    for i in range(0, len(trials), step):
        arrive = binomial_pmf_rows(trials[i:i + step], p_arrive[i:i + step])  # [row, arrived]
        weights = split[:, which[i:i + step], : arrive.shape[1]]
        votes.append(np.cumsum(arrive * weights, axis=2)[..., -1])
    return tuple(np.concatenate(votes, axis=1)) if votes else (np.zeros(0),) * 3


def _parity_vote(mu, m, eps_q):
    """(p_arrive, p_flip) of the X vote of a block of m photons at
    transmissivity mu: the block votes with its parity when all m photons
    arrive, and the parity flips when an odd number of them flip."""
    return libm(pow, mu, m), parity_flip(1.0 - 2.0 * eps_q, m)


@lru_cache(maxsize=_CACHE_SIZE)
def decode_probs(n: int, m: int, mu: float, eps_q: float, basis: str) -> tuple[float, float, float]:
    """(p_correct, p_incorrect, p_unknown) of one logical readout at a single
    station, for basis 'z' (per-block majority, parity across blocks) or 'x'
    (per-block parity of complete blocks, majority across blocks)."""
    if basis == "z":
        votes = _votes(np.array([m]), np.array([mu], dtype=float), np.array([eps_q], dtype=float))
        pc, pi, _ = (v.item() for v in votes)
        s, d = pc + pi, pc - pi
        known = s**n
        # parity over n known blocks: wrong iff an odd number of blocks vote wrong
        return 0.5 * (known + d**n), 0.5 * (known - d**n), 1.0 - known
    if basis == "x":
        arrive, flip = _parity_vote(np.array([mu], dtype=float), np.array([m]), eps_q)
        votes = _votes(np.array([n]), arrive, flip)
        return tuple(v.item() for v in votes)
    raise ValueError(f"basis must be 'x' or 'z', got {basis!r}")


def _station_rows(n, m, mu, eps_q: float) -> tuple[np.ndarray, ...]:
    """station_outcome of every code (n[j], m[j]) at every transmissivity
    mu[i], as four arrays [i, j]. One _votes call runs the Z vote once per
    transmissivity and distinct m, and the X vote once per entry."""
    blocks, block_of = np.unique(m, return_inverse=True)
    z = len(mu) * len(blocks)
    block_mu, block_m = np.repeat(mu, len(blocks)), np.tile(blocks, len(mu))
    block = (np.arange(len(mu))[:, None] * len(blocks) + block_of.ravel()).ravel()  # entry -> block
    x_arrive, x_flip = _parity_vote(block_mu, block_m, eps_q)
    n = np.tile(n, len(mu))
    pc, pi, pu = _votes(
        np.concatenate((block_m, n)),
        np.concatenate((block_mu, x_arrive[block])),
        np.concatenate((np.full(z, eps_q), x_flip[block])),
    )
    s, d = (pc[:z] + pi[:z])[block], (pc[:z] - pi[:z])[block]
    # Z logical value is the parity of the n block outcomes: every block must
    # be known, errors cancel pairwise. The bias is taken as (d/s)**n: the
    # ratio of decode_probs(..., "z") agrees only to about 1e-12.
    known_z = libm(pow, s, n)
    pu_z = 1.0 - known_z
    pc_x, pi_x, pu_x = pc[z:], pi[z:], pu[z:]
    s_x = pc_x + pi_x
    p_unknown = 1.0 - (1.0 - pu_x) * (1.0 - pu_z)
    ok = ~((known_z <= 0.0) | (s_x <= 0.0))
    ratio_z, ratio_x = np.zeros(len(ok)), np.zeros(len(ok))
    ratio_z[ok] = libm(pow, d[ok] / s[ok], n[ok])
    ratio_x[ok] = (pc_x[ok] - pi_x[ok]) / s_x[ok]
    rows = ratio_z, ratio_x, np.where(ok, p_unknown, 1.0), ok
    return tuple(a.reshape(len(mu), -1) for a in rows)


@lru_cache(maxsize=64)
def codes(
    min_n: int, max_n: int, min_m: int, max_m: int, max_photons: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(n, m, qubits_per_station) of every code with min_n <= n <= max_n,
    min_m <= m <= max_m and n * m <= max_photons, n outermost."""
    shapes = [
        (n, m)
        for n in range(min_n, max_n + 1)
        for m in range(min_m, max_m + 1)
        if n * m <= max_photons
    ]
    return (
        tuple(n for n, _ in shapes),
        tuple(m for _, m in shapes),
        tuple(2 * n * m for n, m in shapes),
    )


def _one_code(n: int, m: int) -> tuple[tuple, int]:
    """The code grid whose tables every one-code reader of (n, m) reads, and
    the code's index in it: every code with n <= SEARCH_N and m <= SEARCH_M
    (the default search's) when it lies there, so a full scan shares a few
    tables, otherwise the code alone."""
    if n <= SEARCH_N and m <= SEARCH_M:
        return (1, SEARCH_N, 1, SEARCH_M, SEARCH_N * SEARCH_M), (n - 1) * SEARCH_M + m - 1
    return (n, n, m, m, n * m), 0


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def station_outcome(n, m, mu, eps_q: float):
    """Per-station decode summary (ratio_z, ratio_x, p_unknown, ok).

    ratio_z/ratio_x are the conditional correctness biases
    (p_correct - p_incorrect) / (p_correct + p_incorrect) of the Z and X
    logical readouts; p_unknown is the probability that either readout is
    undecidable. ok is False when the code never decodes (ratios 0,
    p_unknown 1). Given tuples, a batch: every code (n[j], m[j]) at every
    transmissivity mu[i], four read-only arrays [i, j]. Given numbers, one
    code, read off the batch of its grid (see _one_code).
    """
    if isinstance(n, tuple):
        rows = _station_rows(np.array(n), np.array(m), np.array(mu), eps_q)
        for a in rows:
            a.flags.writeable = False
        return rows
    grid, j = _one_code(n, m)
    return tuple(a[0, j].item() for a in station_outcome(*codes(*grid)[:2], (mu,), eps_q))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _throughput_table(grid: tuple, mu: tuple, eps_q: float, stations: tuple) -> np.ndarray:
    """x = p_succ * r of every code of the grid (see codes) at every
    transmissivity mu[i] over stations[i] stations, [i, j]; 0 where the code
    never decodes."""
    n, m, _ = codes(*grid)
    ratio_z, ratio_x, p_unknown, ok = station_outcome(n, m, mu, eps_q)
    stations = np.array(stations, dtype=object)[:, None]  # Python ints, as math.ceil gives
    p_succ = libm(pow, 1.0 - p_unknown, stations)
    q_x, q_z = parity_flip(ratio_x, stations), parity_flip(ratio_z, stations)
    r = secure_fraction_rows(average_qber(q_x, q_z).ravel()).reshape(ok.shape)
    x = np.where(ok, p_succ * r, 0.0)
    x.flags.writeable = False
    return x


def throughput(
    params: HardwareParams, grid: tuple, spacings_km: tuple, l_tot_km: float
) -> tuple[list[int], np.ndarray, tuple[int, ...], list[int]]:
    """(live, x, qubits_per_station, stations) of every code of the grid (see
    codes) at every spacing. live lists the spacings whose transmissivity
    exceeds 1/2: no code works at the others, which are ruled out before any
    decode. x[k, j] = p_succ * r is the secret bits per gate time of code j
    at spacing live[k], 0 where the code cannot work, all from one array
    pass; t0 is not read: the rate is x / t0. stations[i] counts the
    stations at spacings_km[i]."""
    _, _, qps = codes(*grid)
    stations = [math.ceil(l_tot_km / spacing) for spacing in spacings_km]
    mus = [transmissivity(params.eta_c, spacing, params.l_att) for spacing in spacings_km]
    live = [i for i, mu in enumerate(mus) if mu > 0.5]
    if not live:
        return live, np.zeros((0, len(qps))), qps, stations
    key = tuple(mus[i] for i in live), photon_error_rate(params), tuple(stations[i] for i in live)
    return live, _throughput_table(grid, *key), qps, stations


def _throughput(
    params: HardwareParams, config: Gen3Config, l_tot_km: float
) -> tuple[float, int, int]:
    """(x, qubits_per_station, stations) of one configuration, read off the
    table of its code grid at its spacing."""
    grid, j = _one_code(config.n, config.m)
    live, x, qps, stations = throughput(params, grid, (config.spacing_km,), l_tot_km)
    return (x[0, j].item() if live else 0.0), qps[j], stations[0]


def evaluate(params: HardwareParams, config: Gen3Config, l_tot_km: float) -> CostResult:
    """Rate and cost of the one-way parity-code chain."""
    if l_tot_km <= 0:
        raise ValueError("l_tot_km must be > 0")
    x, qps, stations = _throughput(params, config, l_tot_km)
    if x <= 0.0:
        return CostResult.infeasible(qps, stations)
    return CostResult.from_rate(x / params.t0, qps, stations, l_tot_km)
