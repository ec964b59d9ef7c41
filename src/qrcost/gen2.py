"""Multiplexed swap chains, bare or with CSS-encoded logical pairs.

Both variants split the total distance into R = segment_count(L_tot, L0)
segments and swap simultaneously once every segment holds entanglement.
Multiplexing M memory pairs per segment (with n_EG generation attempts
pooled per cycle) raises the per-cycle availability; one cycle lasts
n_EG * (L0/c + t0).

The search computes a cell's throughputs, secure fractions included, in one
array pass over its grid (`throughput`); the evaluators run the same pass,
uncached, over a grid of their one configuration, so a configuration's
numbers do not depend on the grid that holds it. Both turn a throughput
into a cost through `price`.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .binom import tail_at_least, tail_rows
from .core import CostResult, CssCode, HardwareParams, _renormalized, libm, segment_count
from .keyrate import average_qber, parity_flip, secure_fraction_rows
# swap is not called here; the benchmark's tracer hooks this name
from .pairs import elementary_pair, heg_success_prob, swap, swap_weights  # noqa: F401


# Every cell pass of the bare chain at one (eps_g, xi) reads its chain: 90 of
# 100 lookups hit in the default region map (eps_g outermost), and no command
# comes back to an earlier chain of up to 1,024 states
@lru_cache(maxsize=4)
def _chain_states(eps_g: float, xi: float) -> list[tuple[float, float, float, float]]:
    """Bell weights (a, b, c, d) of the end-to-end states of 1, 2, ...
    swapped elementary pairs, extended on demand by _chain_fractions."""
    return [elementary_pair(eps_g).as_tuple()]


def _chain_fractions(eps_g: float, xi: float, segments: list[int]) -> np.ndarray:
    """Secure fraction of the bare chain at each segment count, from one
    secure_fraction_rows call over its states, swapped out to the longest.
    Each swap is pairs.swap on plain floats: the same weights, checked and
    renormalized as a BellDiagonalState would be, without building one."""
    states = _chain_states(eps_g, xi)
    first = states[0]
    while len(states) < max(segments, default=0):
        states.append(_renormalized(*swap_weights(states[-1], first, eps_g, xi)))
    qber = [average_qber(b + d, c + d) for _, b, c, d in (states[n - 1] for n in segments)]
    return secure_fraction_rows(np.array(qber, dtype=float))


def link_availability(p_gen: float, attempts: int) -> float:
    """Probability that at least one of `attempts` independent generation
    attempts on a segment succeeds within one cycle."""
    if not 0.0 <= p_gen <= 1.0:
        raise ValueError(f"p_gen must lie in [0, 1], got {p_gen}")
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    if p_gen == 1.0:
        return 1.0
    return -math.expm1(attempts * math.log1p(-p_gen))


def physical_error_rate(params: HardwareParams) -> float:
    """Effective independent error probability per physical qubit entering the
    CSS correction step: depolarizing storage error, one two-qubit gate, two
    measurements, and the elementary-pair infidelity; above 1 no code works."""
    f0 = elementary_pair(params.eps_g).fidelity
    return params.eps_d + params.eps_g + 2.0 * params.xi + (2.0 / 3.0) * (1.0 - f0)


# a cell pass of the encoded chain looks up each code once; the cells of one
# eps_g share the flips: 270 of 300 hits in the default region map
@lru_cache(maxsize=8)
def logical_flip_prob(code: CssCode, eps: float) -> float:
    """Probability that more than t physical errors land on one code block,
    flipping the decoded logical value."""
    return tail_at_least(code.n_phys, eps, code.t + 1)


def encoded_qber(code: CssCode, eps: float, segments):
    """QBER of the end-to-end logical pair after `segments` encoded links; a
    number, or an array elementwise."""
    p_flip = logical_flip_prob(code, eps)
    return parity_flip(1.0 - 2.0 * p_flip, segments)


def price(
    params: HardwareParams, l_tot_km: float, x: float, qps: int, segments: int,
    spacing_km: float, gen_rounds: int,
) -> CostResult:
    """Rate and cost of a swap chain of throughput x (see throughput) with
    segments of spacing_km, gen_rounds generation rounds per cycle and qps
    qubits per station."""
    cycle = gen_rounds * (spacing_km / params.c_fiber + params.t0)
    return CostResult.from_rate(x / cycle, qps, segments, l_tot_km)


def _evaluate(params: HardwareParams, config, l_tot_km: float) -> CostResult:
    """Rate and cost of the swap chain: CSS-encoded for a Gen2EncConfig, bare
    for a Gen2NoEncConfig; one row of the array pass."""
    code = getattr(config, "code", None)  # only the encoded chain has one
    spacing, memories, gen_rounds = config.spacing_km, config.memories, config.gen_rounds
    x, segments = throughput(params, (code,), (spacing,), (memories,), (gen_rounds,), l_tot_km)
    return price(params, l_tot_km, x.item(0), 2 * memories, segments[0], spacing, gen_rounds)


evaluate_no_encoding = evaluate_encoded = _evaluate


def _availability_table(
    eta_c: float, l_att: float, spacings_km: tuple, memories: tuple, gen_rounds: tuple, codes: tuple
) -> np.ndarray:
    """[c, s, m, g]: the per-cycle availability of code codes[c] (None for
    the bare chain) at spacing spacings_km[s] with memories[m] *
    gen_rounds[g] attempts: for the bare chain the chance of at least one
    success (link_availability), for a code the chance of its n_phys
    physical pairs, from one pmf pass over the distinct (attempts, p_gen)
    rows. Only the coupling and attenuation length are read, so every cell
    that shares them, at any gate error, reuses the table."""
    p_gen = [heg_success_prob(eta_c, spacing, l_att) for spacing in spacings_km]
    attempts, which = np.unique(np.multiply.outer(memories, gen_rounds), return_inverse=True)
    if codes == (None,):
        avail = np.array([[link_availability(p, a) for p in p_gen] for a in attempts.tolist()])
        avail = avail.reshape(1, len(attempts), len(p_gen))
    else:
        thresholds = [code.n_phys for code in codes]
        avail = tail_rows(np.repeat(attempts, len(p_gen)), np.tile(p_gen, len(attempts)), thresholds)
        avail = avail.reshape(len(codes), len(attempts), len(p_gen))
    avail = np.moveaxis(avail[:, which.reshape(len(memories), len(gen_rounds))], 3, 1)
    avail.flags.writeable = False
    return avail


# availability tables of a search's grids, up to a few KB each: the default
# region map cycles through 20 at one worker (10 eta_c x 2 families), 180/200 hits
_availability = lru_cache(maxsize=64)(_availability_table)


def availability(
    params: HardwareParams, codes: tuple, spacings_km: list, memories: tuple, gen_rounds: tuple
) -> np.ndarray:
    """The availability table of a grid (see _availability_table). An
    evaluator's one-configuration grid is not cached, so it never evicts a
    search's table."""
    grid = tuple(spacings_km), tuple(memories), tuple(gen_rounds), codes
    table = _availability_table if all(len(axis) == 1 for axis in grid) else _availability
    return table(params.eta_c, params.l_att, *grid)


def throughput(
    params: HardwareParams,
    codes: tuple,
    spacings_km: list,
    memories: tuple,
    gen_rounds: tuple,
    l_tot_km: float,
) -> tuple[np.ndarray, list[int]]:
    """(x, segments) of every configuration of a grid, from one array pass.
    x[c, s, m, g] = avail**segments * r is the secret bits per cycle of code
    codes[c] (None for the bare chain) at spacing spacings_km[s] with
    memories[m] pairs and gen_rounds[g] rounds, 0 where the chain cannot
    work, as every code past a physical error rate of 1; all segments must
    be ready in the same cycle. segments[s] counts the segments at spacing
    s. t0 is not read: the rate is x / cycle."""
    segments = [segment_count(l_tot_km, spacing) for spacing in spacings_km]
    counts = np.array(segments, dtype=object)  # Python ints: a count may pass int64
    if codes == (None,):
        r = _chain_fractions(params.eps_g, params.xi, segments)
    elif (eps := physical_error_rate(params)) > 1.0:
        r = np.zeros(len(codes) * len(segments))
    else:
        r = secure_fraction_rows(np.concatenate([encoded_qber(c, eps, counts) for c in codes]))
    avail = availability(params, codes, spacings_km, memories, gen_rounds)
    shape = (len(codes), len(segments), 1, 1)
    powered = libm(pow, avail, counts.reshape(shape[1:]))
    return powered * r.reshape(shape), segments
