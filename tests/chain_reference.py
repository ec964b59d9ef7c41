"""Plain-loop reference folds of the pair algebra, kept apart from the
cached production paths (gen1._level_chain, gen2's swap-chain table) so the
tests can check those against an independent implementation."""
from __future__ import annotations

from qrcost.core import BellDiagonalState
from qrcost.pairs import purify, swap


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
