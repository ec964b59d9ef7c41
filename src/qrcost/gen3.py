"""One-way repeater chain sending parity-encoded photonic qubits.

A logical qubit is n blocks of m photons. Every station measures the
incoming code and re-encodes; decoding needs, per block, a majority of the
arrived photons read correctly (Z side) and, per logical qubit, a majority of
fully arrived blocks (X side). Stations are spaced closely enough that the
per-photon transmissivity stays above 1/2, otherwise the loss code cannot
work at all.

Station decodes and throughputs are computed in array passes over tables of
codes at transmissivities, each row with the float operations of a one-code
fold, so a code's numbers do not depend on the table that holds it.
`throughput` computes every code of a grid at every spacing in one pass:
the search over its cell's grid, `evaluate` over its code alone at its
spacing. Both read the station batch and its layout through their one
cached accessor each (`station_outcome`, `_layout`), and both turn a
throughput into a cost through `price`.

A pass splits into a layout and a vote. The layout (`_layout`) holds the
vote rows and the pmf of each row's arrived count; it reads the codes and
the transmissivities only, so every cell at one coupling, attenuation
length and spacing grid shares it, whatever its gate error. The vote splits
the arrivals by the flip probabilities, which read the gate error only.
"""
from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# binomial_pmf is not called here; the benchmark's tracer hooks this name
from .binom import binomial_pmf, binomial_pmf_rows  # noqa: F401
from .core import CostResult, Gen3Config, HardwareParams, libm, ordered_sum, segment_count
from .keyrate import average_qber, parity_flip, secure_fraction_rows

# floats per temporary array of a vote pass (128 KB): bounds the peak memory
# of a cell pass and keeps wide codes (n or m in the thousands) within reach
_BLOCK = 1 << 14


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
    two-qubit gate, one measurement); above 1 no code works."""
    return params.eps_d + 0.5 * params.eps_g + params.xi


def _split(flips: np.ndarray, k: np.ndarray) -> np.ndarray:
    """[i, outcome, flip]: the probabilities that a minority, a majority or
    exactly half of k[i] arrived votes flip, each flipping with probability
    flips[f]. Sums run left to right over the flipped count
    (core.ordered_sum)."""
    flipped = binomial_pmf_rows(np.tile(k, len(flips)), np.repeat(flips, len(k)))
    flipped = np.ascontiguousarray(flipped.T).reshape(-1, len(flips), len(k))  # [flipped, flip, i]
    excess = np.arange(len(flipped))[:, None] * 2 - k  # flipped minus unflipped votes
    outcomes = (excess < 0, excess > 0, excess == 0)
    return np.stack([ordered_sum(np.where(o[:, None], flipped, 0.0)).T for o in outcomes], axis=1)


def _arrivals(trials, p_arrive) -> tuple[np.ndarray, ...]:
    """Row i is the pmf of the arrived count, Binomial(trials[i],
    p_arrive[i]), in blocks of rows that keep each block near _BLOCK floats."""
    step = max(1, _BLOCK // (int(np.max(trials, initial=0)) + 1))
    return tuple(
        binomial_pmf_rows(trials[i:i + step], p_arrive[i:i + step])
        for i in range(0, len(trials), step)
    )


def _votes(trials, arrivals, p_flip) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(correct, incorrect, unknown) of one majority vote per row, over the
    subset of trials[i] voters that arrive (arrivals, see _arrivals), each
    arrived vote flipped with probability p_flip[i]. No arrivals or a tie
    leave the outcome unknown. Sums run left to right over the arrived count
    (core.ordered_sum). Flip splits go in blocks of arrived counts that keep
    each temporary array near _BLOCK floats; a row's sums do not depend on
    its block."""
    flips, which = np.unique(p_flip, return_inverse=True)
    which, width = which.ravel(), int(np.max(trials, initial=0)) + 1
    step = max(1, _BLOCK // (len(flips) * width))
    blocks = (np.arange(k, min(k + step, width)) for k in range(0, width, step))
    split = np.concatenate([_split(flips, k) for k in blocks])  # [arrived, outcome, flip]
    votes, start = [], 0
    for arrive in arrivals:  # [row, arrived]
        weights = split[: arrive.shape[1], :, which[start:start + len(arrive)]]
        votes.append(ordered_sum(arrive.T[:, None, :] * weights))
        start += len(arrive)
    return tuple(np.concatenate(votes, axis=1)) if votes else (np.zeros(0),) * 3


def _parity_arrival(mu, m):
    """Arrival probability of the X vote of a block of m photons at
    transmissivity mu: the block votes with its parity when all m photons
    arrive."""
    return libm(pow, mu, m)


def _parity_flip(m, eps_q):
    """Flip probability of the X vote of a block of m photons: the parity
    flips when an odd number of them flip."""
    return parity_flip(1.0 - 2.0 * eps_q, m)


def decode_probs(n: int, m: int, mu: float, eps_q: float, basis: str) -> tuple[float, float, float]:
    """(p_correct, p_incorrect, p_unknown) of one logical readout at a single
    station, for basis 'z' (per-block majority, parity across blocks) or 'x'
    (per-block parity of complete blocks, majority across blocks)."""
    if basis == "z":
        trials = np.array([m])
        arrivals = _arrivals(trials, np.array([mu], dtype=float))
        votes = _votes(trials, arrivals, np.array([eps_q], dtype=float))
        pc, pi, _ = (v.item() for v in votes)
        s, d = pc + pi, pc - pi
        known = s**n
        # parity over n known blocks: wrong iff an odd number of blocks vote wrong
        return 0.5 * (known + d**n), 0.5 * (known - d**n), 1.0 - known
    if basis == "x":
        trials, blocks = np.array([n]), np.array([m])
        arrivals = _arrivals(trials, _parity_arrival(np.array([mu], dtype=float), blocks))
        votes = _votes(trials, arrivals, _parity_flip(blocks, eps_q))
        return tuple(v.item() for v in votes)
    raise ValueError(f"basis must be 'x' or 'z', got {basis!r}")


class _Layout(NamedTuple):
    """The eps_q-free part of a station batch (see station_outcome): its vote
    rows, Z votes first, and their arrivals."""

    block: np.ndarray  # per entry, its Z vote row: one per transmissivity and distinct m
    block_m: np.ndarray  # per Z vote row, its m
    trials: np.ndarray  # per vote row; an X vote row's is the n of its entry [i, j], flattened
    arrivals: tuple[np.ndarray, ...]  # per vote row, see _arrivals


# Every cell of a search at one coupling and attenuation length shares its
# batch's layout, whatever its gate error. An entry of the default search
# (6,200 vote rows of up to 21 arrived counts) takes about 1.1 MB; keep the
# live couplings of a default region map (5 of 10) and more, and a larger
# lattice's (hold_layouts).
@lru_cache(maxsize=16)
def _layout(n: tuple, m: tuple, mu: tuple) -> _Layout:
    """The vote rows of every code (n[j], m[j]) at every transmissivity mu[i]:
    the Z vote once per transmissivity and distinct m, of m photons that
    arrive with mu; the X vote once per entry, of n blocks that arrive with
    mu**m."""
    blocks, block_of = np.unique(m, return_inverse=True)
    block_mu, block_m = np.repeat(mu, len(blocks)), np.tile(blocks, len(mu))
    block = (np.arange(len(mu))[:, None] * len(blocks) + block_of.ravel()).ravel()  # entry -> block
    trials = np.concatenate((block_m, np.tile(n, len(mu))))
    p_arrive = np.concatenate((block_mu, _parity_arrival(block_mu, block_m)[block]))
    layout = _Layout(block, block_m, trials, _arrivals(trials, p_arrive))
    for a in (*layout[:3], *layout.arrivals):
        a.flags.writeable = False
    return layout


def hold_layouts(count: int) -> None:
    """Let the layout cache keep count layouts, if it keeps fewer: a region
    map visits every coupling once per gate error, so a cache that holds
    fewer than its couplings evicts each layout before the next gate error
    reads it. The cache starts empty at its new size."""
    global _layout
    if count > _layout.cache_info().maxsize:
        _layout = lru_cache(maxsize=count)(_layout.__wrapped__)


# A search's batch serves its cell at every distance: an l_tot sweep reads
# its one cell's batch at each value (7 of 8 hits in an 8-value sweep), and
# no other command reads a batch twice. An entry of the default search takes
# about 0.2 MB, so keep a few.
@lru_cache(maxsize=4)
def station_outcome(n: tuple, m: tuple, mu: tuple, eps_q: float) -> tuple[np.ndarray, ...]:
    """Per-station decode summary (ratio_z, ratio_x, p_unknown, ok) of every
    code (n[j], m[j]) at every transmissivity mu[i], as four read-only arrays
    [i, j], from one _votes call over the rows of their layout (see
    _layout).

    ratio_z/ratio_x are the conditional correctness biases
    (p_correct - p_incorrect) / (p_correct + p_incorrect) of the Z and X
    logical readouts; p_unknown is the probability that either readout is
    undecidable. ok is False where the code never decodes (ratios 0,
    p_unknown 1).
    """
    layout = _layout(n, m, mu)
    block, z = layout.block, len(layout.block_m)
    pc, pi, pu = _votes(
        layout.trials,
        layout.arrivals,
        np.concatenate((np.full(z, eps_q), _parity_flip(layout.block_m, eps_q)[block])),
    )
    blocks, s, d = layout.trials[z:], (pc[:z] + pi[:z])[block], (pc[:z] - pi[:z])[block]
    # Z logical value is the parity of the n block outcomes: every block must
    # be known, errors cancel pairwise. The bias is taken as (d/s)**n: the
    # ratio of decode_probs(..., "z") agrees only to about 1e-12.
    known_z = libm(pow, s, blocks)
    pu_z = 1.0 - known_z
    pc_x, pi_x, pu_x = pc[z:], pi[z:], pu[z:]
    s_x = pc_x + pi_x
    p_unknown = 1.0 - (1.0 - pu_x) * (1.0 - pu_z)
    ok = ~((known_z <= 0.0) | (s_x <= 0.0))
    ratio_z, ratio_x = np.zeros(len(ok)), np.zeros(len(ok))
    ratio_z[ok] = libm(pow, d[ok] / s[ok], blocks[ok])
    ratio_x[ok] = (pc_x[ok] - pi_x[ok]) / s_x[ok]
    p_unknown = np.where(ok, p_unknown, 1.0)
    rows = tuple(a.reshape(len(mu), -1) for a in (ratio_z, ratio_x, p_unknown, ok))
    for a in rows:
        a.flags.writeable = False
    return rows


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


def _live(params: HardwareParams, spacings_km: tuple, l_tot_km: float) -> tuple:
    """(stations, live, mu): the station count at each spacing, the spacings
    whose transmissivity exceeds 1/2 and whose station count a float holds,
    and their transmissivities. Only the coupling, attenuation length and
    distance are read, whatever the gate error."""
    stations = [segment_count(l_tot_km, spacing) for spacing in spacings_km]
    mus = [transmissivity(params.eta_c, spacing, params.l_att) for spacing in spacings_km]
    live = [i for i, mu in enumerate(mus) if mu > 0.5 and stations[i] <= sys.float_info.max]
    return stations, live, tuple(mus[i] for i in live)


def throughput(
    params: HardwareParams, grid: tuple, spacings_km: tuple, l_tot_km: float
) -> tuple[list[int], np.ndarray, tuple[int, ...], list[int]]:
    """(live, x, qubits_per_station, stations) of every code of the grid (see
    codes) at every spacing. live lists the spacings whose transmissivity
    exceeds 1/2 (no code works at the others) and whose station count a
    float holds (past it no cost is a float); the others are ruled out
    before any decode, as is every spacing past a photon error rate of 1.
    x[k, j] = p_succ * r is the secret bits per gate time of code j at
    spacing live[k], 0 where the code cannot work, all from one array pass
    over the station batch of the live spacings; t0 is not read: the rate
    is x / t0. stations[i] counts the stations at spacings_km[i]."""
    n, m, qps = codes(*grid)
    stations, live, mu = _live(params, spacings_km, l_tot_km)
    eps_q = photon_error_rate(params)
    if not (live and eps_q <= 1.0):
        return [], np.zeros((0, len(qps))), qps, stations
    ratio_z, ratio_x, p_unknown, ok = station_outcome(n, m, mu, eps_q)
    live_stations = np.array([stations[i] for i in live], dtype=object)[:, None]  # Python ints
    p_succ = libm(pow, 1.0 - p_unknown, live_stations)
    q_x, q_z = parity_flip(ratio_x, live_stations), parity_flip(ratio_z, live_stations)
    r = secure_fraction_rows(average_qber(q_x, q_z).ravel()).reshape(ok.shape)
    return live, np.where(ok, p_succ * r, 0.0), qps, stations


def warm(params: HardwareParams, grid: tuple, spacings_km: tuple, l_tot_km: float) -> None:
    """Build the layout that throughput's station batch reads at params'
    coupling, attenuation length and distance, whatever the gate error."""
    n, m, _ = codes(*grid)
    _, _, mu = _live(params, spacings_km, l_tot_km)
    _layout(n, m, mu)


def price(params: HardwareParams, l_tot_km: float, x: float, qps: int, stations: int) -> CostResult:
    """Rate and cost of a chain of throughput x (see throughput)."""
    if x <= 0.0:
        return CostResult.infeasible(qps, stations)
    return CostResult.from_rate(x / params.t0, qps, stations, l_tot_km)


def evaluate(params: HardwareParams, config: Gen3Config, l_tot_km: float) -> CostResult:
    """Rate and cost of the one-way parity-code chain, from the table of its
    code alone at its spacing."""
    grid = config.n, config.n, config.m, config.m, config.n * config.m  # as codes takes it
    live, x, qps, stations = throughput(params, grid, (config.spacing_km,), l_tot_km)
    return price(params, l_tot_km, x.item(0) if live else 0.0, qps[0], stations[0])
