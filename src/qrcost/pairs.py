"""Elementary-pair generation, entanglement purification, and swapping.

All two-pair operations act on Bell-diagonal states and include two-qubit gate
error eps_g (depolarizing) and measurement error xi. `purify` and `swap` also
take batches of states (BellDiagonalState over numpy arrays): each batch row
gets the same float operations, in the same order, as a single state would.
"""
from __future__ import annotations

import math

from .core import BellDiagonalState, MAX_GATE_ERROR, _any, werner_state


def heg_success_prob(eta_c: float, l0_km: float, l_att_km: float) -> float:
    """Success probability of one heralded entanglement-generation attempt.

    Both photons must survive half the link each and couple into memory at
    both ends; the herald itself succeeds in half the cases.
    """
    if not 0.0 <= eta_c <= 1.0:
        raise ValueError(f"eta_c must lie in [0, 1], got {eta_c}")
    if l0_km < 0 or l_att_km <= 0:
        raise ValueError("distances must be positive")
    return 0.5 * eta_c * eta_c * math.exp(-l0_km / l_att_km)


def elementary_pair_fidelity(eps_g: float) -> float:
    """Leading-order fidelity of a freshly generated elementary pair."""
    if not 0.0 <= eps_g <= MAX_GATE_ERROR:
        raise ValueError(
            f"eps_g must lie in [0, {MAX_GATE_ERROR}] for the elementary-pair model, got {eps_g}"
        )
    return 1.0 - 1.25 * eps_g


def elementary_pair(eps_g: float) -> BellDiagonalState:
    """Werner state produced by one round of heralded generation."""
    return werner_state(elementary_pair_fidelity(eps_g))


def purify(
    rho1: BellDiagonalState,
    rho2: BellDiagonalState,
    eps_g: float,
    xi: float,
) -> tuple[float, BellDiagonalState]:
    """One recurrence purification round consuming rho2 to purify rho1.

    Returns (success probability, post-selected output state). Both parities
    of the target-qubit measurements are accepted when they agree; gate error
    mixes in identity noise, measurement error flips each outcome with
    probability xi.
    """
    a1, b1, c1, d1 = rho1.as_tuple()
    a2, b2, c2, d2 = rho2.as_tuple()

    g = (1.0 - eps_g) ** 2
    mix = 1.0 - g
    s = xi * xi + (1.0 - xi) ** 2  # both outcomes faithful or both flipped
    t = 2.0 * xi * (1.0 - xi)  # exactly one outcome flipped

    ad1, bc1 = a1 + d1, b1 + c1
    ad2, bc2 = a2 + d2, b2 + c2
    p_success = g * (s * (ad1 * ad2 + bc1 * bc2) + t * (ad1 * bc2 + bc1 * ad2)) + mix / 2.0
    if _any(p_success <= 0.0):
        raise ArithmeticError("purification success probability vanished")

    floor = mix / 8.0
    a = (g * (s * (a1 * a2 + d1 * d2) + t * (a1 * c2 + d1 * b2)) + floor) / p_success
    b = (g * (s * (a1 * d2 + d1 * a2) + t * (a1 * b2 + d1 * c2)) + floor) / p_success
    c = (g * (s * (b1 * b2 + c1 * c2) + t * (b1 * d2 + c1 * a2)) + floor) / p_success
    d = (g * (s * (b1 * c2 + c1 * b2) + t * (b1 * a2 + c1 * d2)) + floor) / p_success
    return p_success, BellDiagonalState(a, b, c, d)


def swap(
    rho1: BellDiagonalState,
    rho2: BellDiagonalState,
    eps_g: float,
    xi: float,
) -> BellDiagonalState:
    """Entanglement swapping of two Bell-diagonal pairs at a shared station.

    Deterministic (the Bell measurement always yields an outcome); gate error
    adds an identity admixture and each of the two measurement outcomes is
    misread independently with probability xi.
    """
    return BellDiagonalState(*swap_weights(rho1.as_tuple(), rho2.as_tuple(), eps_g, xi))


def swap_weights(weights1: tuple, weights2: tuple, eps_g: float, xi: float) -> tuple:
    """The Bell weights (a, b, c, d) that swap gives, before the
    renormalization of BellDiagonalState (core._renormalized), from the two
    pairs' weights (floats or arrays)."""
    a1, b1, c1, d1 = weights1
    a2, b2, c2, d2 = weights2

    w0 = (1.0 - xi) ** 2  # both outcomes read correctly
    w1 = xi * (1.0 - xi)  # exactly one misread (each of two ways)
    w2 = xi * xi  # both misread

    ad1, bc1 = a1 + d1, b1 + c1
    ad2, bc2 = a2 + d2, b2 + c2
    cross = ad1 * bc2 + bc1 * ad2
    same = ad1 * ad2 + bc1 * bc2

    diag = a1 * a2 + b1 * b2 + c1 * c2 + d1 * d2
    anti = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
    phase = a1 * b2 + b1 * a2 + c1 * d2 + d1 * c2
    bitph = a1 * c2 + c1 * a2 + b1 * d2 + d1 * b2

    g = 1.0 - eps_g
    a = g * (w0 * diag + w1 * cross + w2 * anti) + eps_g / 4.0
    b = g * (w0 * phase + w1 * same + w2 * bitph) + eps_g / 4.0
    c = g * (w2 * phase + w1 * same + w0 * bitph) + eps_g / 4.0
    d = g * (w2 * diag + w1 * cross + w0 * anti) + eps_g / 4.0
    return a, b, c, d
