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
search bounds (max_levels, max_rounds). It advances every prefix of a level at once, as one batch of states, and each
row gets exactly the float operations of a one-schedule fold, so a row does
not depend on the table that holds it. Every reader (the optimizer's
candidates, evaluate, time_constants, final_state, ladder_success_probs)
reads one row: of the search's table when the schedule lies in its grid
(`evaluate` takes the bounds of the search that calls it, every other reader
the default ones), otherwise of a one-path table that holds the schedule
alone. One-path tables have a cache of their own, so they never
evict a grid table.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import BellDiagonalState, CostResult, Gen1Config, HardwareParams, _normalized
from .keyrate import average_qber, secure_fraction_rows
from .pairs import elementary_pair, heg_success_prob, purify, swap

# The default search: nesting levels 0..7, each with 0..2 rounds.
SEARCH_LEVELS = 7
SEARCH_ROUNDS = 2


class _Table(NamedTuple):
    """Every schedule prefix of a grid, one batch per nesting level. The rows
    of level k are the prefixes (r_0, ..., r_k) with r_j in grid[j], in
    lexicographic order."""

    grid: tuple[tuple[int, ...], ...]
    states: tuple[BellDiagonalState, ...]  # per level, one batch over its rows
    probs: tuple[np.ndarray, ...]  # per level, [parent row, round] success probabilities
    summaries: tuple[tuple[tuple[float, float, float, float, int], ...], ...]  # per level, per row


def _row(grid: tuple[tuple[int, ...], ...], rounds: tuple[int, ...]) -> int:
    """The row of a schedule prefix at its level."""
    index = 0
    for options, m in zip(grid, rounds):
        index = index * len(options) + options.index(m)
    return index


def _parent_major(columns, parents: int) -> np.ndarray:
    """[parent, j] = columns[j] of that parent; a column may be one float
    shared by every parent."""
    out = np.empty((parents, len(columns)))
    for j, column in enumerate(columns):
        out[:, j] = column
    return out


def _build_table(
    scheme: str,
    eps_g: float,
    xi: float,
    grid: tuple[tuple[int, ...], ...],
) -> _Table:
    """The schedule table of a grid; grid[k] lists the round counts allowed at
    level k."""
    states, probs, summaries, a_levels, s_levels = [], [], [], [], []
    # the rounds prefix of each row, as Python ints so that qps stays exact
    rounds = np.zeros((1, 0), dtype=object)
    for k, options in enumerate(grid):
        parents = len(rounds)
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
        rounds = np.column_stack(
            (np.repeat(rounds, len(options), axis=0), np.tile(options, parents))
        )

        size = len(rounds)
        alpha, beta, gamma = _time_coefficients(
            [np.repeat(a, size // len(a)) for a in a_levels],
            [np.repeat(s, size // len(s)) for s in s_levels],
        )
        r = secure_fraction_rows(average_qber(states[-1].qber_x, states[-1].qber_z)).tolist()
        qps = _qubits_per_station(scheme, tuple(rounds.T))
        summaries.append(tuple(zip(alpha.tolist(), beta.tolist(), gamma.tolist(), r, qps.tolist())))
    return _Table(grid, tuple(states), tuple(probs), tuple(summaries))


@lru_cache(maxsize=32)
def _schedule_summary(
    scheme: str, eps_g: float, xi: float, max_levels: int, max_rounds: int
) -> _Table:
    """The table of every schedule at most max_levels deep with at most
    max_rounds rounds per level."""
    grid = (tuple(range(max_rounds + 1)),) * (max_levels + 1)
    return _build_table(scheme, eps_g, xi, grid)


@lru_cache(maxsize=256)
def _one_path(scheme: str, eps_g: float, xi: float, rounds: tuple[int, ...]) -> _Table:
    """The table of one schedule alone: one row per level."""
    return _build_table(scheme, eps_g, xi, tuple((m,) for m in rounds))


def _table_row(
    params: HardwareParams,
    config: Gen1Config,
    max_levels: int = SEARCH_LEVELS,
    max_rounds: int = SEARCH_ROUNDS,
) -> tuple[_Table, int]:
    """The search's table when its grid holds the schedule, otherwise the
    schedule's own one-path table; and the schedule's row in it."""
    if config.levels <= max_levels and max(config.rounds) <= max_rounds:
        table = _schedule_summary(config.scheme, params.eps_g, params.xi, max_levels, max_rounds)
    else:
        table = _one_path(config.scheme, params.eps_g, params.xi, config.rounds)
    return table, _row(table.grid, config.rounds)


def _summary(
    params: HardwareParams,
    config: Gen1Config,
    max_levels: int = SEARCH_LEVELS,
    max_rounds: int = SEARCH_ROUNDS,
) -> tuple[float, float, float, float, int]:
    """(alpha, beta, gamma, secure_fraction, qubits_per_station) of a schedule."""
    table, i = _table_row(params, config, max_levels, max_rounds)
    return table.summaries[config.levels][i]


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
    """(alpha, beta, gamma) from each level's retry coefficients (A, S),
    elementary level first; floats or arrays of one shape."""
    n = len(a_list) - 1
    suf = [1.0] * (n + 2)
    for y in range(n, -1, -1):
        suf[y] = a_list[y] * suf[y + 1]
    top = 1.5**n * suf[1]
    alpha = top * a_list[0]
    beta = top * s_list[0]
    gamma = top * s_list[0]
    for y in range(1, n + 1):
        w = 1.5 ** (n - y)
        beta += w * 2.0**y * s_list[y] * suf[y + 1]
        gamma += w * (s_list[y] * suf[y + 1] + suf[y])
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


def final_state(params: HardwareParams, config: Gen1Config) -> BellDiagonalState:
    """End-to-end Bell-diagonal state after all swaps and purification."""
    table, i = _table_row(params, config)
    return _normalized(*(w[i].item() for w in table.states[config.levels].as_tuple()))


def ladder_success_probs(
    params: HardwareParams, config: Gen1Config
) -> tuple[tuple[float, ...], ...]:
    """Per-level purification success probabilities, outermost level last."""
    table, _ = _table_row(params, config)
    return tuple(
        tuple(table.probs[k][_row(table.grid, config.rounds[:k]), :m].tolist())
        for k, m in enumerate(config.rounds)
    )


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
    if l_tot_km <= 0:
        raise ValueError("l_tot_km must be > 0")
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


def _finish(
    summary: tuple[float, float, float, float, int],
    params: HardwareParams,
    levels: int,
    l_tot_km: float,
    link: tuple[float, float],
) -> CostResult:
    alpha, beta, gamma, r, qps = summary
    stations = 2**levels
    if r <= 0.0:
        return CostResult.infeasible(qps, stations)
    w = _waiting_time(alpha, beta, gamma, params.t0, link)
    return CostResult.from_rate(r / w, qps, stations, l_tot_km)


def evaluate(
    params: HardwareParams,
    config: Gen1Config,
    l_tot_km: float,
    max_levels: int = SEARCH_LEVELS,
    max_rounds: int = SEARCH_ROUNDS,
) -> CostResult:
    """Secret-key rate and qubit cost of one purify-and-swap architecture;
    max_levels and max_rounds bound the search that asks, whose table is read
    when it holds the schedule."""
    if l_tot_km <= 0:
        raise ValueError("l_tot_km must be > 0")
    link = _link(params, config.levels, l_tot_km)
    summary = _summary(params, config, max_levels, max_rounds)
    return _finish(summary, params, config.levels, l_tot_km, link)
