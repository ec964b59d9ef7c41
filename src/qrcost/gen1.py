"""Purify-and-swap repeater chains (nested pumping over a doubling hierarchy).

A chain with `levels = N` splits the total distance into 2^N elementary links.
Level 0 generates and pumps elementary pairs; each higher level swaps two
pairs from the level below and pumps the result. `rounds[k]` purification
rounds run at level k.

The mean waiting time for one end-to-end pair decomposes as

    T = T_signal * (alpha / p0 + beta) + t0 * gamma

where T_signal is the one-link signal time L0/c, p0 the heralded-generation
success probability, and (alpha, beta, gamma) depend only on the gate and
measurement errors and the pumping schedule. Retries are modeled with the
standard mean-value bookkeeping: producing two pairs in parallel costs 3/2 of
one mean, a failed purification discards and retries (geometrically), and
classical heralding over a level-k pair costs 2^k signal times.

Schedule tables. The schedules of a grid form a prefix tree: level k starts
from swap(prefix, prefix) of its level-(k-1) prefix and then runs its own
rounds. `_schedule_summary` builds one table per (scheme, eps_g, xi) and
grid. It advances every prefix of a level at once, as one batch of states,
and each row gets exactly the float operations of a one-schedule fold, so a
row does not depend on the table that holds it. Every table is read
through that one cached accessor: the search's cell pass (`bound`) reads
each level's summary columns of its search grid (`_search_grid`) whole,
and the search prices a row through `price`; every reader of one schedule
(evaluate, waiting_time, time_constants, ladder_success_probs) reads row 0
of each level of the schedule's one-path grid (`_path`). The qubits per
station of every row depend on the scheme and the grid only, so every
table of a grid, at any (eps_g, xi), shares one set of qps columns
(`_qps_columns`).

A table's summary columns per level are (alpha, beta, gamma, Q, qps), with Q
the basis-averaged error rate of each row's end state. The secure fraction
r = secure_fraction(Q) costs two log2 per row, so it is computed only where
it is read: by `_summary` for one schedule, and by `bound` for the rows the
search prices.
"""
from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    GEN1_SCHEMES,
    BellDiagonalState,
    CostResult,
    Gen1Config,
    HardwareParams,
    _check_distance,
    _normalized,
)
from .keyrate import QBER_DEAD, average_qber, secure_fraction_rows
from .pairs import elementary_pair, heg_success_prob, purify, swap


class _Table(NamedTuple):
    """Every schedule prefix of a grid, one batch per nesting level. The rows
    of level k are the prefixes (r_0, ..., r_k) with r_j in grid[j], in
    lexicographic order."""

    grid: tuple[tuple[int, ...], ...]
    # per level, one batch over its rows, and the [parent row, round] success
    # probabilities
    states: tuple[BellDiagonalState, ...]
    probs: tuple[np.ndarray, ...]
    # per level, the summary columns (alpha, beta, gamma, Q, qps) over its
    # rows; qps is int64, or Python ints (object dtype) where an int64 could
    # overflow (_qps_columns)
    columns: tuple[tuple[np.ndarray, ...], ...]


def _parent_major(columns, parents: int) -> np.ndarray:
    """[parent, j] = columns[j] of that parent; a column may be one float
    shared by every parent."""
    out = np.empty((parents, len(columns)))
    for j, column in enumerate(columns):
        out[:, j] = column
    return out


# Every table of a grid shares its qps columns, whatever its gate error. An
# entry of the default search grid (9,840 rows of int64) takes about 0.08 MB;
# keep both schemes of a few grids.
@lru_cache(maxsize=8)
def _qps_columns(scheme: str, grid: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, ...]:
    """Per level of the grid, the qubits per station of each row; they depend
    on the scheme and the grid only. They are int64 where the grid's deepest
    Deutsch count, 2 * 2^(sum of each level's largest round count), fits
    one, and Python ints past that, so that they stay exact (see
    _qubits_per_station)."""
    fits = sum(map(max, grid)) <= 61  # 2 * 2^61 is the largest such count an int64 holds
    columns = []
    rounds = np.zeros((1, 0), dtype=np.int64 if fits else object)  # each row's rounds prefix
    for options in grid:
        rounds = np.column_stack(
            (np.repeat(rounds, len(options), axis=0), np.tile(options, len(rounds)))
        )
        qps = _qubits_per_station(scheme, tuple(rounds.T))
        qps.flags.writeable = False
        columns.append(qps)
    return tuple(columns)


def _search_grid(max_levels: int, max_rounds: int) -> tuple[tuple[int, ...], ...]:
    """The round counts allowed at each level of a search's tables."""
    return (tuple(range(max_rounds + 1)),) * (max_levels + 1)


# The search reads a cell's tables once, and its rare unpruned fallback at
# the same point reads them again; optimize._frontier keeps what a later
# point needs. The readers of one schedule come back to its one-path table
# within a check (validate gen1-time: 5 of 8 hits). So keep two tables: one
# cell's, one per scheme.
@lru_cache(maxsize=len(GEN1_SCHEMES))
def _schedule_summary(
    scheme: str, eps_g: float, xi: float, grid: tuple[tuple[int, ...], ...]
) -> _Table:
    """The schedule table of a grid; grid[k] lists the round counts allowed at
    level k."""
    qps_columns = _qps_columns(scheme, grid)
    states, probs, columns, a_levels, s_levels = [], [], [], [], []
    size = 1
    for k, options in enumerate(grid):
        parents, size = size, size * len(options)
        entry = elementary_pair(eps_g) if k == 0 else swap(states[-1], states[-1], eps_g, xi)
        state, pumped, level_probs = entry, [entry], []
        for _ in range(max(options)):
            p, state = purify(state, state if scheme == "deutsch" else entry, eps_g, xi)
            level_probs.append(p)
            pumped.append(state)
        weights = zip(*(pumped[m].as_tuple() for m in options))
        states.append(_normalized(*(_parent_major(w, parents).ravel() for w in weights)))
        probs.append(_parent_major(level_probs, parents))
        coefficients = [_retry_coefficients(scheme, level_probs[:m]) for m in options]
        a_levels.append(_parent_major([a for a, _ in coefficients], parents).ravel())
        s_levels.append(_parent_major([s for _, s in coefficients], parents).ravel())
        alpha, beta, gamma = _time_coefficients(a_levels, s_levels)
        qber = average_qber(states[-1].qber_x, states[-1].qber_z)
        for column in (alpha, beta, gamma, qber, probs[-1], *states[-1].as_tuple()):
            column.flags.writeable = False
        columns.append((alpha, beta, gamma, qber, qps_columns[k]))
    return _Table(grid, tuple(states), tuple(probs), tuple(columns))


def _path(params: HardwareParams, config: Gen1Config) -> _Table:
    """The table of the schedule's one-path grid; the schedule is row 0 of
    each level."""
    grid = tuple((m,) for m in config.rounds)
    return _schedule_summary(config.scheme, params.eps_g, params.xi, grid)


def _summary(params: HardwareParams, config: Gen1Config) -> tuple[float, float, float, float, int]:
    """(alpha, beta, gamma, secure_fraction, qubits_per_station) of a schedule."""
    alpha, beta, gamma, qber, qps = _path(params, config).columns[config.levels]
    r = secure_fraction_rows(qber)
    return alpha.item(0), beta.item(0), gamma.item(0), r.item(0), qps.item(0)


def _search_columns(eps_g: float, xi: float, search: tuple):
    """(scheme, levels, summary columns) of every nesting level of a search
    (schemes, min_levels, max_levels, max_rounds), in its order, read off
    one table per scheme."""
    schemes, min_levels, max_levels, max_rounds = search
    grid = _search_grid(max_levels, max_rounds)
    for scheme in schemes:
        table = _schedule_summary(scheme, eps_g, xi, grid)
        for levels in range(min_levels, max_levels + 1):
            yield scheme, levels, table.columns[levels]


def _rounds(rows, levels: int, max_rounds: int) -> tuple:
    """Per level, the round counts of the table rows at a search grid's
    nesting level: its rows run over 0..max_rounds at each level,
    lexicographically (_qps_columns)."""
    return np.unravel_index(rows, (max_rounds + 1,) * (levels + 1))


def schedules(eps_g: float, xi: float, search: tuple) -> list:
    """(scheme, levels, rounds, summary) of every schedule of a search (see
    _search_columns), in its order; the summary holds the secure fraction r
    in place of the table's Q."""
    *_, max_rounds = search
    out = []
    for scheme, levels, (alpha, beta, gamma, qber, qps) in _search_columns(eps_g, xi, search):
        columns = (alpha, beta, gamma, secure_fraction_rows(qber), qps)
        rounds = zip(*(d.tolist() for d in _rounds(np.arange(len(qps)), levels, max_rounds)))
        summaries = zip(*(c.tolist() for c in columns))
        out += [(scheme, levels, *row) for row in zip(rounds, summaries)]
    return out


def bound(eps_g: float, xi: float, search: tuple) -> tuple:
    """(bounds, groups, price) of one cell pass, as optimize.Family.bound
    returns them, over every schedule of a search (see _search_columns)
    whose Q lies outside keyrate.QBER_DEAD (r = 0 there) and whose N =
    2^n * qps a float holds (no cost is a float past it), in its order,
    grouped by nesting level.

    At nesting level n the cost is (2^n / L) * (K1 * qps*alpha/r + K2 *
    qps*beta/r + K3 * qps*gamma/r) with K1 = T_signal/p0, K2 = T_signal and
    K3 = t0 (weights). The three products are the terms, each computed as
    (qps * alpha) / r with qps cast exactly to float, as Python multiplies
    an int by a float; a schedule with r <= 0 is infeasible everywhere. A
    feasible row has 0 < r <= 1, so the same float products qps * alpha,
    qps * beta and qps * gamma bound its terms from below with no slack, and
    r is priced (two log2 per row) only for the rows price is asked for. A
    row's inputs to price are its level and summary."""
    low, high = QBER_DEAD
    *_, max_rounds = search
    blocks = list(_search_columns(eps_g, xi, search))

    def live(levels, qber, qps):
        keep = ~((low < qber) & (qber < high))
        # the last row runs the most rounds at every level, so it holds the
        # most qubits: a level checks its rows only where that one's N passes
        most = int(sys.float_info.max) // 2**levels
        if int(qps[-1]) > most:
            keep &= (qps <= most).astype(bool)
        return keep

    # every kept row is written once, in place, into arrays sized for the cell
    masks = [live(levels, columns[3], columns[4]) for _, levels, columns in blocks]
    size = sum(map(np.count_nonzero, masks))
    bounds, qber = np.empty((size, 3)), np.empty(size)
    block, table_row, groups = (np.empty(size, dtype=int) for _ in range(3))
    end = 0
    for b, (_, levels, (alpha, beta, gamma, q, qps)) in enumerate(blocks):
        rows = np.flatnonzero(masks[b])
        at = slice(end, end + len(rows))
        end = at.stop
        n = qps[rows].astype(float)
        for j, c in enumerate((alpha, beta, gamma)):
            np.multiply(n, c[rows], out=bounds[at, j])
        qber[at], block[at], table_row[at], groups[at] = q[rows], b, rows, levels

    def price_rows(index):
        r = secure_fraction_rows(qber[index])
        feasible = r > 0.0
        index, r = index[feasible], r[feasible]

        def key(i):
            scheme, levels, columns = blocks[block[index[i]]]
            row = table_row[index[i]]
            rounds = tuple(map(int, _rounds(row, levels, max_rounds)))
            alpha, beta, gamma, _, qps = (column.item(row) for column in columns)
            return (scheme, levels, rounds), (levels, (alpha, beta, gamma, r.item(i), qps))

        return bounds[index] / r[:, None], index, key

    return bounds, groups, price_rows


def weights(params: HardwareParams, l_tot_km: float, search: tuple) -> list:
    """The weights of bound's terms at a point: t0, and T_signal and
    T_signal/p0 of each nesting level of a search. A level whose link never
    succeeds (p0 = 0) is infeasible in every scan and adds no weights."""
    _, min_levels, max_levels, _ = search
    out = [params.t0]
    for levels in range(min_levels, max_levels + 1):
        t_signal, p0 = _link(params, levels, l_tot_km)
        if p0 > 0.0:
            out += [t_signal, t_signal / p0]
    return out


def warm(search: tuple) -> None:
    """Build the qps columns that every table of a search shares, whatever
    its gate error."""
    schemes, _, max_levels, max_rounds = search
    for scheme in schemes:
        _qps_columns(scheme, _search_grid(max_levels, max_rounds))


def _retry_coefficients(scheme: str, probs: list) -> tuple:
    """Coefficients (A, S) such that the mean time to finish one level's
    pumping is A * t_entry + S * t_round; per-round success probabilities
    are floats or arrays of one shape.

    t_entry is the mean time to furnish one entry pair and t_round the fixed
    per-round overhead (gate plus heralding). Deutsch pumping rebuilds both
    inputs from the previous round on failure; the fresh-copy scheme keeps a
    storage pair but restarts the whole level when any round fails.
    """
    m = len(probs)
    if m == 0:
        return 1.0, 0.0
    inv = [1.0 / p for p in probs]
    suffix = 0.0
    acc = 1.0
    if scheme == "deutsch":
        for y in range(m):
            acc *= inv[m - 1 - y]
            suffix += 1.5**y * acc
        a = 1.0
        for q in inv:
            a *= 1.5 * q
        return a, suffix
    for y in range(m):
        acc *= inv[m - 1 - y]
        suffix += acc
    prod = 1.0
    for q in inv:
        prod *= q
    return prod + suffix, suffix


def _time_coefficients(a_list: list, s_list: list) -> tuple:
    """(alpha, beta, gamma) over the rows of the deepest level from each
    level's retry coefficients (A, S) over its own rows, elementary level
    first. A row of a level is the prefix of a run of consecutive deepest
    rows; its coefficients are repeated to that run only where they are
    multiplied, one level at a time."""
    n = len(a_list) - 1
    size = len(a_list[n])

    def full(column):
        return np.repeat(column, size // len(column))

    suf = [1.0] * (n + 2)
    for y in range(n, -1, -1):
        suf[y] = full(a_list[y]) * suf[y + 1]
    top = 1.5**n * suf[1]
    alpha = top * full(a_list[0])
    beta = top * full(s_list[0])
    gamma = beta.copy()
    for y in range(1, n + 1):
        w = 1.5 ** (n - y)
        s = full(s_list[y])
        beta += w * 2.0**y * s * suf[y + 1]
        gamma += w * (s * suf[y + 1] + suf[y])
    return alpha, beta, gamma


def _qubits_per_station(scheme: str, rounds: tuple[int, ...]) -> int:
    """Deutsch pumping holds every pair of the binary round tree at once;
    fresh-copy pumping holds one storage pair per pumped level plus the
    working pair. The round counts may be ints or arrays of one shape; an
    array of Python ints (object dtype) keeps the Deutsch count exact."""
    if scheme == "deutsch":
        z = 2 ** sum(rounds)
    else:
        z = len(rounds) + 1 - sum(mi == 0 for mi in rounds)
    return 2 * z


def ladder_success_probs(
    params: HardwareParams, config: Gen1Config
) -> tuple[tuple[float, ...], ...]:
    """Per-level purification success probabilities, outermost level last."""
    return tuple(tuple(level[0].tolist()) for level in _path(params, config).probs)


def time_constants(params: HardwareParams, config: Gen1Config) -> tuple[float, float, float]:
    """(alpha, beta, gamma) of the waiting-time decomposition."""
    alpha, beta, gamma, _, _ = _summary(params, config)
    return alpha, beta, gamma


def qubits_per_station(config: Gen1Config) -> int:
    """Memory qubits each station must hold for the schedule."""
    return _qubits_per_station(config.scheme, config.rounds)


def waiting_time(params: HardwareParams, config: Gen1Config, l_tot_km: float) -> float:
    """Mean seconds to deliver one purified end-to-end pair; infinite when the
    elementary heralding never succeeds."""
    _check_distance("l_tot_km", l_tot_km)
    alpha, beta, gamma = time_constants(params, config)
    return _waiting_time(alpha, beta, gamma, params.t0, _link(params, config.levels, l_tot_km))


def _link(params: HardwareParams, levels: int, l_tot_km: float) -> tuple[float, float]:
    """(T_signal, p0) of one elementary link of a `levels`-deep chain; shared by
    every schedule at that depth."""
    l0 = l_tot_km / 2**levels
    return l0 / params.c_fiber, heg_success_prob(params.eta_c, l0, params.l_att)


def _waiting_time(
    alpha: float, beta: float, gamma: float, t0: float, link: tuple[float, float]
) -> float:
    t_signal, p0 = link
    if p0 <= 0.0:  # the success probability underflows on very long links
        return math.inf
    return t_signal * (alpha / p0 + beta) + t0 * gamma


def price(params: HardwareParams, l_tot_km: float, levels: int, summary: tuple) -> CostResult:
    """Rate and cost of a `levels`-deep schedule with the given
    (alpha, beta, gamma, secure_fraction, qubits_per_station)."""
    alpha, beta, gamma, r, qps = summary
    stations = 2**levels
    if r <= 0.0:
        return CostResult.infeasible(qps, stations)
    w = _waiting_time(alpha, beta, gamma, params.t0, _link(params, levels, l_tot_km))
    return CostResult.from_rate(r / w, qps, stations, l_tot_km)


def evaluate(params: HardwareParams, config: Gen1Config, l_tot_km: float) -> CostResult:
    """Secret-key rate and qubit cost of one purify-and-swap architecture;
    infeasible, with no table built, where N = 2^levels * qps passes the
    float range (as bound rules it out)."""
    _check_distance("l_tot_km", l_tot_km)
    qps, stations = qubits_per_station(config), 2**config.levels
    if stations * qps > sys.float_info.max:
        return CostResult.infeasible(qps, stations)
    return price(params, l_tot_km, config.levels, _summary(params, config))
