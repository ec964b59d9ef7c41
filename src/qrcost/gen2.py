"""Multiplexed swap chains, bare or with CSS-encoded logical pairs.

Both variants split the total distance into R = segment_count(L_tot, L0)
segments and swap simultaneously once every segment holds entanglement.
Multiplexing M memory pairs per segment (with n_EG generation attempts
pooled per cycle) raises the per-cycle availability; one cycle lasts
n_EG * (L0/c + t0).

Throughputs, secure fractions included, come from one array pass over a
grid (`throughput`): the search's over its cell's grid, an evaluator's over
a grid of its one configuration. Both read each table through its one
cached accessor, whichever grid asks: a grid's availabilities
(`_availability`) and the bare chain's fractions at the grid's segment
counts (`_chain_fractions`). A configuration's numbers do not depend on the
grid that holds it. Both turn a throughput into a cost through `price`.
"""
from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .binom import tail_at_least, tail_rows
from .core import CostResult, CssCode, HardwareParams, _renormalized, libm, segment_count
from .keyrate import average_qber, parity_flip, secure_fraction_rows
# swap is not called here; the benchmark's tracer hooks this name
from .pairs import elementary_pair, heg_success_prob, swap, swap_weights  # noqa: F401


def _chain_states(eps_g: float, xi: float, segments) -> list[tuple[float, float, float, float]]:
    """Bell weights (a, b, c, d) of the end-to-end state of each count of
    swapped elementary pairs in segments, from one left fold out to the
    longest that keeps only the states asked for. Each swap is pairs.swap on
    plain floats: the same weights, checked and renormalized as a
    BellDiagonalState would be, without building one. The next state depends
    on this one only, so the fold stops at the first swap that returns its
    input bit for bit: every longer chain ends in that state too."""
    first = elementary_pair(eps_g).as_tuple()
    state, count, kept = first, 1, {}
    for n in sorted(set(segments)):
        while count < n:
            swapped = _renormalized(*swap_weights(state, first, eps_g, xi))
            # the weights are sums of non-negative products, never -0.0, so
            # == is equality bit for bit (a NaN state never stops the fold)
            count = n if swapped == state else count + 1
            state = swapped
        kept[n] = state
    return [kept[n] for n in segments]


# Every cell pass of the bare chain at one (eps_g, xi) and distance asks for
# the same counts: 90 of 100 lookups hit in the default region map (eps_g
# outermost)
@lru_cache(maxsize=4)
def _chain_fractions(eps_g: float, xi: float, segments: tuple[int, ...]) -> np.ndarray:
    """Secure fraction of the bare chain at each segment count, from one
    secure_fraction_rows call over its states (see _chain_states)."""
    qber = [average_qber(b + d, c + d) for _, b, c, d in _chain_states(eps_g, xi, segments)]
    r = secure_fraction_rows(np.array(qber, dtype=float))
    r.flags.writeable = False
    return r


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


# availability tables of a grid, up to a few KB each: the default region map
# cycles through 20 at one worker (10 eta_c x 2 families), 180/200 hits
@lru_cache(maxsize=64)
def _availability(
    eta_c: float, l_att: float, spacings_km: tuple, memories: tuple, gen_rounds: tuple,
    codes: tuple,
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


def availability(
    params: HardwareParams, codes: tuple, spacings_km: list, memories: tuple, gen_rounds: tuple
) -> np.ndarray:
    """The availability table of a grid (see _availability)."""
    grid = tuple(spacings_km), tuple(memories), tuple(gen_rounds), codes
    return _availability(params.eta_c, params.l_att, *grid)


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
    work: as every code past a physical error rate of 1, and every spacing
    whose segment count no float holds (past it no cost is a float), which
    is ruled out before the fold and any power. All segments must be ready
    in the same cycle. segments[s] counts the segments at spacing s. t0 is
    not read: the rate is x / cycle."""
    segments = [segment_count(l_tot_km, spacing) for spacing in spacings_km]
    fits = [n <= sys.float_info.max for n in segments]
    # a count past the float range stands in as 1, and its x is 0 below
    held = tuple(n if fit else 1 for n, fit in zip(segments, fits))
    counts = np.array(held, dtype=object)  # Python ints: a count may pass int64
    if codes == (None,):
        r = _chain_fractions(params.eps_g, params.xi, held)
    elif (eps := physical_error_rate(params)) > 1.0:
        r = np.zeros(len(codes) * len(segments))
    else:
        r = secure_fraction_rows(np.concatenate([encoded_qber(c, eps, counts) for c in codes]))
    avail = availability(params, codes, spacings_km, memories, gen_rounds)
    shape = (len(codes), len(segments), 1, 1)
    powered = libm(pow, avail, counts.reshape(shape[1:]))
    x = powered * r.reshape(shape)
    if not all(fits):
        x[:, [not fit for fit in fits]] = 0.0
    return x, segments
