"""Plain-loop reference folds of the pair algebra, kept apart from the
production paths (gen1's batched schedule tables, gen2's swap-chain table) so
the tests can check those against an independent implementation.

`deutsch_fixed_point` iterates Deutsch purification of a pair against
itself to its fixed point, the exact ceiling that the quadratic expansion
`pumped_fidelity_bound` approximates; no production path computes either.

`schedule_summary` is the scalar per-schedule fold that gen1 used before its
tables: one `swap` and one `pump_schedule` per level on single states, then
the retry and suffix-product loops in the same operation order, and the
scalar secure fraction of `station_reference`. It caches
every prefix and summary, without a bound, only to keep the exhaustive
comparisons fast: the reference scans price every schedule of a default grid
(19,674) from it.
"""
from __future__ import annotations

from functools import lru_cache

from station_reference import secure_fraction

from qrcost.core import MAX_GATE_ERROR, BellDiagonalState, werner_state
from qrcost.keyrate import average_qber
from qrcost.pairs import elementary_pair, purify, swap


def swap_chain(state: BellDiagonalState, segments: int, eps_g: float, xi: float) -> BellDiagonalState:
    """Fold `segments` identical pairs into one end-to-end pair via swaps."""
    if segments < 1:
        raise ValueError("segments must be >= 1")
    out = state
    for _ in range(segments - 1):
        out = swap(out, state, eps_g, xi)
    return out


def pump_schedule(
    base: BellDiagonalState,
    rounds: int,
    eps_g: float,
    xi: float,
    scheme: str = "deutsch",
) -> tuple[BellDiagonalState, tuple[float, ...]]:
    """Apply `rounds` purification rounds, returning the state and per-round
    success probabilities.

    'deutsch' purifies two copies of the current state against each other;
    'dur' pumps the current state with a fresh copy of `base`.
    """
    if scheme not in ("deutsch", "dur"):
        raise ValueError(f"unknown purification scheme {scheme!r}")
    probs: list[float] = []
    state = base
    for _ in range(rounds):
        other = state if scheme == "deutsch" else base
        p, state = purify(state, other, eps_g, xi)
        probs.append(p)
    return state, tuple(probs)


def pumped_fidelity_bound(eps_g: float, xi: float) -> float:
    """Fidelity ceiling of recurrence purification, to second order in the
    errors.

    Quadratic expansion of the fixed point reached by purifying a state
    against itself repeatedly (see deutsch_fixed_point for the exact
    iteration); the residual is third order in (eps_g, xi).
    """
    if not 0.0 <= eps_g <= MAX_GATE_ERROR:
        raise ValueError(
            f"eps_g must lie in [0, {MAX_GATE_ERROR}] for the elementary-pair model, got {eps_g}"
        )
    return 1.0 - 1.25 * eps_g - (9.0 * xi + 4.75 * eps_g) * eps_g


def deutsch_fixed_point(
    eps_g: float,
    xi: float,
    tol: float = 1e-14,
    max_iter: int = 1000,
) -> BellDiagonalState:
    """Fixed point of purifying a pair against an identical copy of itself.

    Iterates from the Werner state of fidelity 0.9 until successive
    fidelities differ by less than tol. This is the exact ceiling that
    pumped_fidelity_bound approximates.
    """
    if not 0.0 <= eps_g <= 0.01:
        raise ValueError(
            f"eps_g must lie in [0, 0.01] for the fixed point to be meaningful, got {eps_g}"
        )
    state = werner_state(0.9)
    prev = state.a
    for _ in range(max_iter):
        _, state = purify(state, state, eps_g, xi)
        if abs(state.a - prev) < tol:
            return state
        prev = state.a
    raise ArithmeticError(
        f"purification iteration did not converge within {max_iter} rounds"
    )


@lru_cache(maxsize=None)
def ladder(
    scheme: str, rounds: tuple[int, ...], eps_g: float, xi: float
) -> tuple[BellDiagonalState, tuple[tuple[float, ...], ...]]:
    """End state and per-level success probabilities of a schedule: the
    elementary pair pumped, then per level a swap of two copies and a pump."""
    if len(rounds) == 1:
        entry, below = elementary_pair(eps_g), ()
    else:
        state, below = ladder(scheme, rounds[:-1], eps_g, xi)
        entry = swap(state, state, eps_g, xi)
    state, probs = pump_schedule(entry, rounds[-1], eps_g, xi, scheme)
    return state, below + (probs,)


def _retry(scheme: str, probs: tuple[float, ...]) -> tuple[float, float]:
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


@lru_cache(maxsize=None)
def schedule_summary(
    scheme: str, rounds: tuple[int, ...], eps_g: float, xi: float
) -> tuple[float, float, float, float, int]:
    """(alpha, beta, gamma, secure_fraction, qubits_per_station) of one
    schedule."""
    state, probs = ladder(scheme, rounds, eps_g, xi)
    n = len(rounds) - 1
    a_list, s_list = zip(*(_retry(scheme, level) for level in probs))
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
    r = secure_fraction(average_qber(state.qber_x, state.qber_z))
    if scheme == "deutsch":
        qps = 2 * 2 ** sum(rounds)
    else:
        qps = 2 * (len(rounds) + 1 - sum(1 for m in rounds if m == 0))
    return alpha, beta, gamma, r, qps
