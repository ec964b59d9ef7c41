"""One-way repeater chain sending parity-encoded photonic qubits.

A logical qubit is n blocks of m photons. Every station measures the
incoming code and re-encodes; decoding needs, per block, a majority of the
arrived photons read correctly (Z side) and, per logical qubit, a majority of
fully arrived blocks (X side). Stations are spaced closely enough that the
per-photon transmissivity stays above 1/2, otherwise the loss code cannot
work at all.

Station decodes and throughputs are computed in array passes over tables of
codes at transmissivities, each row with the float operations of a one-code
fold, so a code's numbers do not depend on the table that holds it. One cell
pass, `bound`, serves the search and `evaluate` alike. It bounds every code
of a grid at every spacing without a vote, then decodes the entries asked
for from their own vote rows of the layout (`_decode`), or reads the cached
decode of every entry (`station_outcome`) when all are asked for. The
pruned search asks for the entries its bound leaves a chance; `evaluate`
runs the pass over its code alone at its spacing. Both turn a throughput
into a cost through `price`.

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
from .keyrate import QBER_DEAD, average_qber, parity_flip, secure_fraction_rows

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
        # C order, as ordered_sum reads it: no copy there
        votes.append(ordered_sum(np.multiply(arrive.T[:, None, :], weights, order="C")))
        start += len(arrive)
    return tuple(np.concatenate(votes, axis=1)) if votes else (np.zeros(0),) * 3


def _gather(arrivals, rows, width):
    """The rows at the ascending indices rows of a layout's arrivals (see
    _arrivals), one copy per block that holds some, cut to width arrived
    counts. A row's counts past its trials hold zeros, which its votes add
    last, so a cut row sums to the same floats."""
    start = 0
    for arrive in arrivals:
        low, high = np.searchsorted(rows, (start, start + len(arrive)))
        if high > low:
            yield arrive[rows[low:high] - start, :width]
        start += len(arrive)


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
# (6,200 vote rows of up to 21 arrived counts) takes about 1.1 MB; keep a
# few couplings' (a region map lets it keep its lattice's, optimize.WARMED).
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


def _decode(layout: _Layout, eps_q: float, entries: np.ndarray) -> tuple[np.ndarray, ...]:
    """(ratio_z, ratio_x, p_unknown, ok) of the entries at the ascending
    flat indices entries, [i, j] order, of a layout's batch (see
    station_outcome), from the vote rows those read alone (_gather). An
    entry gets the same floats whatever the other entries asked for."""
    z = len(layout.block_m)
    needed = np.zeros(z, dtype=bool)
    needed[layout.block[entries]] = True
    z_rows = np.flatnonzero(needed)
    z_of = (np.cumsum(needed) - 1)[layout.block[entries]]
    rows = np.concatenate((z_rows, z + entries))
    trials, z = layout.trials[rows], len(z_rows)
    arrivals = _gather(layout.arrivals, rows, int(trials.max(initial=0)) + 1)
    flips = np.concatenate((np.full(z, eps_q), _parity_flip(layout.block_m[z_rows], eps_q)[z_of]))
    pc, pi, pu = _votes(trials, arrivals, flips)
    blocks, s, d = trials[z:], (pc[:z] + pi[:z])[z_of], (pc[:z] - pi[:z])[z_of]
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
    return ratio_z, ratio_x, np.where(ok, p_unknown, 1.0), ok


# The _decode of every entry, cached: a search reads it where none of the
# entries it prices first decodes (the unpruned pass always does), and
# evaluate for its one entry. The key holds no distance, so an 8-value l_tot
# sweep at eps_g = 1e-2 hits 5 of 6 lookups; the default optimize, sweep and
# region map hit it 0 times. An entry of the default search takes about
# 0.2 MB, so keep a few.
@lru_cache(maxsize=4)
def station_outcome(n: tuple, m: tuple, mu: tuple, eps_q: float) -> tuple[np.ndarray, ...]:
    """Per-station decode summary (ratio_z, ratio_x, p_unknown, ok) of every
    code (n[j], m[j]) at every transmissivity mu[i], as four read-only arrays
    [i, j], decoded from every vote row of their layout (see _layout).

    ratio_z/ratio_x are the conditional correctness biases
    (p_correct - p_incorrect) / (p_correct + p_incorrect) of the Z and X
    logical readouts; p_unknown is the probability that either readout is
    undecidable. ok is False where the code never decodes (ratios 0,
    p_unknown 1).
    """
    entries = np.arange(len(mu) * len(n))
    rows = tuple(a.reshape(len(mu), -1) for a in _decode(_layout(n, m, mu), eps_q, entries))
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


# Where |ratio_x|**stations or |ratio_z|**stations is at most this, one
# parity flip lies in [(1 - b) / 2, (1 + b) / 2] and the average error rate
# in [(1 - b) / 4, (3 + b) / 4], inside keyrate.QBER_DEAD: r = 0
_DEAD_BIAS = 1.0 - 4.0 * QBER_DEAD[0]


def _rate(ratio_z, ratio_x, p_unknown, ok, counts: list, row: np.ndarray) -> np.ndarray:
    """x = p_succ * r per entry of a decoded batch, whose station count is
    counts[row]. An entry that cannot decode, or whose |ratio_x| or
    |ratio_z| is at most _DEAD_BIAS**(1/stations) with a relative margin of
    1e-9, has x = 0 without its p_succ, parity flips and entropies."""
    bias = np.array([_DEAD_BIAS ** (1.0 / count) * (1.0 - 1e-9) for count in counts])[row]
    live = ok & (np.abs(ratio_x) > bias) & (np.abs(ratio_z) > bias)
    stations = np.array(counts, dtype=object)[row[live]]  # Python ints
    p_succ = libm(pow, 1.0 - p_unknown[live], stations)
    q_x, q_z = parity_flip(ratio_x[live], stations), parity_flip(ratio_z[live], stations)
    x = np.zeros(len(ok))
    x[live] = p_succ * secure_fraction_rows(average_qber(q_x, q_z))
    return x


# Relative slack per photon of a code on the station bound: 2^9 ulps of 1. A
# station's computed 1 - p_unknown exceeds its exact bound by at most 14 ulps
# per photon in a scan of codes up to n * m = 4,000 (and 499 ulps in all on
# the default grid), from the rounding of the vote sums and of the bound's
# own powers, which cancel where 1 - mu**m or (1 - mu**m)**n nears 1.
_SLACK = 2.0**-44
# Below this the powers may have lost bits to underflow; any x there is
# smaller still
_TINY = 2.0**-1020


def _power(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """base ** exponent elementwise by repeated squaring, numpy
    multiplications only; exponent holds non-negative integers (Python ints
    in an object array where int64 could overflow), broadcast against
    base."""
    out = np.ones(np.broadcast_shapes(base.shape, exponent.shape))
    for bit in range(int(exponent.max(initial=0)).bit_length()):
        if bit:
            base = base * base
        out = np.where(((exponent >> bit) & 1).astype(bool), out * base, out)
    return out


def bound(params: HardwareParams, l_tot_km: float, grid: tuple, spacings_km: tuple) -> tuple:
    """(bounds, groups, price) of one cell pass, as optimize.Family.bound
    returns them, over every code j of the grid (see codes) at every live
    spacing k (see _live), one row per entry k * len(qps) + j: no spacing is
    live past a photon error rate of 1. An entry's one term is N / x, with
    N = stations * qps an exact integer cast to float once and x = p_succ *
    r the secret bits per gate time; t0 is not read: the rate is x / t0.

    bounds holds N / top, from no vote and no libm call. A station's readout
    is known only if every Z block has an arrived photon and some X block
    arrives whole, so 1 - p_unknown is at most (1 - (1 - mu)**m)**n *
    (1 - (1 - mu**m)**n), p_succ at most that to the power stations, and x
    at most p_succ (r <= 1). The base is raised by n * m * _SLACK before
    the power, which covers the rounding of both sides and of N as a
    product of two floats; raised to the station count, the slack grows
    with it. top lies in [_TINY, 2]: x is at most 1.

    price(index) decodes the entries at the ascending indices index from
    their own vote rows (_decode), or reads the cached batch
    (station_outcome) when every entry is asked for; an entry gets the same
    floats either way. x = 0 where the code cannot work, and where N passes
    the float range (no cost there is a float). A row's inputs are those of
    gen3.price."""
    n, m, qps = codes(*grid)
    stations, live, mu = _live(params, spacings_km, l_tot_km)
    eps_q = photon_error_rate(params)
    if not (live and eps_q <= 1.0):
        return np.zeros((0, 1)), np.zeros(0, dtype=int), lambda index: (np.zeros((0, 1)), index, None)
    counts = [stations[i] for i in live]
    count_ints = np.array(counts, dtype=object)  # Python ints
    # N <= float max exactly where qps <= float max // stations (an integer)
    most = [min(int(sys.float_info.max) // count, max(qps)) for count in counts]
    fits = (np.array(qps) <= np.array(most)[:, None]).ravel()
    n_row, m_row, mu_col = np.array(n), np.array(m), np.array(mu)[:, None]
    with np.errstate(over="ignore"):  # a term overflows to inf, as scalar floats do
        station = _power(1.0 - _power(1.0 - mu_col, m_row), n_row)
        station = station * (1.0 - _power(1.0 - _power(mu_col, m_row), n_row))
        top = _power(station + n_row * m_row * _SLACK, count_ints[:, None])
        top = np.clip(top, _TINY, 2.0)
        bounds = np.multiply.outer([float(c) for c in counts], [float(q) for q in qps]) / top

    def price_entries(index):
        if len(index) == bounds.size:
            outcome = (a.ravel() for a in station_outcome(n, m, mu, eps_q))
        else:
            outcome = _decode(_layout(n, m, mu), eps_q, index)
        x = _rate(*outcome, counts, index // len(qps))
        x[~fits[index]] = 0.0
        feasible = x > 0.0
        index, x = index[feasible], x[feasible]
        k, j = np.divmod(index, len(qps))

        def key(row):
            a, b = live[k[row]], j[row]
            return (n[b], m[b], spacings_km[a]), (x[row].item(), qps[b], stations[a])

        exact = count_ints[k] * np.array(qps, dtype=object)[j]
        with np.errstate(over="ignore"):
            return (exact.astype(float) / x)[:, None], index, key

    return bounds.reshape(-1, 1), np.zeros(bounds.size, dtype=int), price_entries


def warm(params: HardwareParams, grid: tuple, spacings_km: tuple, l_tot_km: float) -> None:
    """Build the layout that bound's decodes read at params' coupling,
    attenuation length and distance, whatever the gate error; a coupling
    with no live spacing reads none."""
    n, m, _ = codes(*grid)
    _, live, mu = _live(params, spacings_km, l_tot_km)
    if live:
        _layout(n, m, mu)


def price(params: HardwareParams, l_tot_km: float, x: float, qps: int, stations: int) -> CostResult:
    """Rate and cost of a chain of throughput x (see bound)."""
    if x <= 0.0:
        return CostResult.infeasible(qps, stations)
    return CostResult.from_rate(x / params.t0, qps, stations, l_tot_km)


def evaluate(params: HardwareParams, config: Gen3Config, l_tot_km: float) -> CostResult:
    """Rate and cost of the one-way parity-code chain: the search's cell
    pass (bound) over its code alone at its spacing."""
    grid = config.n, config.n, config.m, config.m, config.n * config.m  # as codes takes it
    bounds, _, price_entries = bound(params, l_tot_km, grid, (config.spacing_km,))
    _, kept, key = price_entries(np.arange(len(bounds)))
    if len(kept):
        return price(params, l_tot_km, *key(0)[1])
    return CostResult.infeasible(2 * config.n * config.m, segment_count(l_tot_km, config.spacing_km))
