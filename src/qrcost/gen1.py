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
"""
from __future__ import annotations

import math
from functools import lru_cache

from .core import BellDiagonalState, CostResult, Gen1Config, HardwareParams
from .keyrate import average_qber, secure_fraction
from .pairs import elementary_pair, heg_success_prob, purify, swap

_CACHE_SIZE = 1 << 18


@lru_cache(maxsize=_CACHE_SIZE)
def _level_chain(
    scheme: str,
    rounds_prefix: tuple[int, ...],
    eps_g: float,
    xi: float,
) -> tuple[BellDiagonalState, tuple[float, ...]]:
    """State and per-round success probabilities at level len(prefix)-1.

    Prefix caching lets the optimizer share work across schedules that agree
    on their lower levels.
    """
    m = rounds_prefix[-1]
    if len(rounds_prefix) == 1:
        entry = elementary_pair(eps_g)
    else:
        below, _ = _level_chain(scheme, rounds_prefix[:-1], eps_g, xi)
        entry = swap(below, below, eps_g, xi)
    probs: list[float] = []
    state = entry
    for _ in range(m):
        other = state if scheme == "deutsch" else entry
        p, state = purify(state, other, eps_g, xi)
        probs.append(p)
    return state, tuple(probs)


def _retry_coefficients(scheme: str, probs: tuple[float, ...]) -> tuple[float, float]:
    """Coefficients (A, S) such that the mean time to finish one level's
    pumping is A * t_entry + S * t_round.

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


@lru_cache(maxsize=_CACHE_SIZE)
def _schedule_summary(
    scheme: str,
    rounds: tuple[int, ...],
    eps_g: float,
    xi: float,
) -> tuple[float, float, float, float, int]:
    """(alpha, beta, gamma, secure_fraction, qubits_per_station) for a schedule."""
    n = len(rounds) - 1
    a_list: list[float] = []
    s_list: list[float] = []
    for k in range(n + 1):
        _, probs = _level_chain(scheme, rounds[: k + 1], eps_g, xi)
        a, s = _retry_coefficients(scheme, probs)
        a_list.append(a)
        s_list.append(s)

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

    state, _ = _level_chain(scheme, rounds, eps_g, xi)
    r = secure_fraction(average_qber(state.qber_x, state.qber_z))
    return alpha, beta, gamma, r, _qubits_per_station(scheme, rounds)


def _qubits_per_station(scheme: str, rounds: tuple[int, ...]) -> int:
    """Deutsch pumping holds every pair of the binary round tree at once;
    fresh-copy pumping holds one storage pair per pumped level plus the
    working pair."""
    if scheme == "deutsch":
        z = 2 ** sum(rounds)
    else:
        z = len(rounds) + 1 - sum(1 for mi in rounds if mi == 0)
    return 2 * z


def final_state(params: HardwareParams, config: Gen1Config) -> BellDiagonalState:
    """End-to-end Bell-diagonal state after all swaps and purification."""
    state, _ = _level_chain(config.scheme, config.rounds, params.eps_g, params.xi)
    return state


def ladder_success_probs(
    params: HardwareParams, config: Gen1Config
) -> tuple[tuple[float, ...], ...]:
    """Per-level purification success probabilities, outermost level last."""
    return tuple(
        _level_chain(config.scheme, config.rounds[: k + 1], params.eps_g, params.xi)[1]
        for k in range(config.levels + 1)
    )


def time_constants(params: HardwareParams, config: Gen1Config) -> tuple[float, float, float]:
    """(alpha, beta, gamma) of the waiting-time decomposition."""
    alpha, beta, gamma, _, _ = _schedule_summary(
        config.scheme, config.rounds, params.eps_g, params.xi
    )
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


def evaluate(params: HardwareParams, config: Gen1Config, l_tot_km: float) -> CostResult:
    """Secret-key rate and qubit cost of one purify-and-swap architecture."""
    if l_tot_km <= 0:
        raise ValueError("l_tot_km must be > 0")
    summary = _schedule_summary(config.scheme, config.rounds, params.eps_g, params.xi)
    return _finish(summary, params, config.levels, l_tot_km, _link(params, config.levels, l_tot_km))
