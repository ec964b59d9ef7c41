"""Multiplexed swap chains, bare or with CSS-encoded logical pairs.

Both variants divide the total distance into R = ceil(L_tot / L0) segments
and swap simultaneously once every segment holds entanglement. Multiplexing
M memory pairs per segment (with n_EG generation attempts pooled per cycle)
raises the per-cycle availability; one cycle lasts n_EG * (L0/c + t0).

The search computes a cell's throughputs in one array pass over its grid
(`throughput`), with each entry computed by the float operations of the
one-configuration path (`_throughput`), so the two agree bit for bit; both
the search and the evaluators turn a throughput into a cost through `price`.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .binom import tail_at_least, tail_rows
from .core import (
    BellDiagonalState,
    CostResult,
    CssCode,
    HardwareParams,
    libm,
)
from .keyrate import average_qber, parity_flip, secure_fraction
from .pairs import elementary_pair, heg_success_prob, swap

_CACHE_SIZE = 1 << 16
# availability tables, up to a few KB each; as many as optimize._frontier keeps
_TABLE_CACHE_SIZE = 256


def segment_count(l_tot_km: float, spacing_km: float) -> int:
    if l_tot_km <= 0 or spacing_km <= 0:
        raise ValueError("distances must be > 0")
    return math.ceil(l_tot_km / spacing_km)


class _SwapChainTable:
    """Lazily extended end-to-end states for 1..n swapped identical segments."""

    def __init__(self, base: BellDiagonalState, eps_g: float, xi: float) -> None:
        self.base = base
        self.eps_g = eps_g
        self.xi = xi
        self.states = [base]

    def state(self, segments: int) -> BellDiagonalState:
        while len(self.states) < segments:
            self.states.append(swap(self.states[-1], self.base, self.eps_g, self.xi))
        return self.states[segments - 1]


@lru_cache(maxsize=64)
def _chain_table(eps_g: float, xi: float) -> _SwapChainTable:
    return _SwapChainTable(elementary_pair(eps_g), eps_g, xi)


@lru_cache(maxsize=_CACHE_SIZE)
def _chain_secure_fraction(eps_g: float, xi: float, segments: int) -> float:
    state = _chain_table(eps_g, xi).state(segments)
    return secure_fraction(average_qber(state.qber_x, state.qber_z))


def chain_state(params: HardwareParams, segments: int) -> BellDiagonalState:
    """Bell-diagonal state after swapping `segments` elementary pairs."""
    if segments < 1:
        raise ValueError("segments must be >= 1")
    return _chain_table(params.eps_g, params.xi).state(segments)


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
    measurements, and the elementary-pair infidelity."""
    return _physical_error_rate(params.eps_d, params.eps_g, params.xi)


@lru_cache(maxsize=64)
def _physical_error_rate(eps_d: float, eps_g: float, xi: float) -> float:
    """The encoded search asks once per configuration; the value depends only
    on these three, so it is computed once per cell."""
    f0 = elementary_pair(eps_g).fidelity
    eps = eps_d + eps_g + 2.0 * xi + (2.0 / 3.0) * (1.0 - f0)
    if eps > 1.0:
        raise ValueError(f"physical error rate exceeds 1: {eps}")
    return eps


@lru_cache(maxsize=_CACHE_SIZE)
def logical_flip_prob(code: CssCode, eps: float) -> float:
    """Probability that more than t physical errors land on one code block,
    flipping the decoded logical value."""
    return tail_at_least(code.n_phys, eps, code.t + 1)


def encoded_qber(code: CssCode, eps: float, segments: int) -> float:
    """QBER of the end-to-end logical pair after `segments` encoded links."""
    p_flip = logical_flip_prob(code, eps)
    return parity_flip(1.0 - 2.0 * p_flip, segments)


@lru_cache(maxsize=_CACHE_SIZE)
def _encoded_secure_fraction(code: CssCode, eps: float, segments: int) -> float:
    """Secure fraction of the encoded chain; one per (code, segments) of a cell."""
    return secure_fraction(encoded_qber(code, eps, segments))


@lru_cache(maxsize=_CACHE_SIZE)
def _encoded_availability(attempts: int, p_gen: float, n_phys: int) -> float:
    """Chance that `attempts` generation attempts yield the n_phys physical
    pairs of one logical pair. Independent of t0 and of the error rates, so
    every gate time of a region-map cell reuses it."""
    return tail_at_least(attempts, p_gen, n_phys)


def price(
    params: HardwareParams, l_tot_km: float, x: float, qps: int, segments: int,
    spacing_km: float, gen_rounds: int,
) -> CostResult:
    """Rate and cost of a swap chain of throughput x (see _throughput) with
    segments of spacing_km, gen_rounds generation rounds per cycle and qps
    qubits per station."""
    cycle = gen_rounds * (spacing_km / params.c_fiber + params.t0)
    return CostResult.from_rate(x / cycle, qps, segments, l_tot_km)


def _evaluate(params: HardwareParams, config, l_tot_km: float) -> CostResult:
    """Rate and cost of the swap chain: CSS-encoded for a Gen2EncConfig, bare
    for a Gen2NoEncConfig."""
    inputs = _throughput(params, config, l_tot_km)
    return price(params, l_tot_km, *inputs, config.spacing_km, config.gen_rounds)


evaluate_no_encoding = evaluate_encoded = _evaluate


def _throughput(params: HardwareParams, config, l_tot_km: float) -> tuple[float, int, int]:
    """(x, qubits_per_station, segments) with x = avail**segments * r the
    secret bits per cycle; x = 0 when the chain cannot work. t0 is not read:
    the rate is x / cycle. All segments must be ready in the same cycle."""
    segments = segment_count(l_tot_km, config.spacing_km)
    qps = 2 * config.memories
    code = getattr(config, "code", None)  # only the encoded chain has one
    if code is None:
        r = _chain_secure_fraction(params.eps_g, params.xi, segments)
    else:
        r = _encoded_secure_fraction(code, physical_error_rate(params), segments)
    if r <= 0.0:
        return 0.0, qps, segments
    p_gen = heg_success_prob(params.eta_c, config.spacing_km, params.l_att)
    attempts = config.memories * config.gen_rounds
    # every logical pair needs n_phys physical pairs from the segment's pool
    avail = (link_availability(p_gen, attempts) if code is None
             else _encoded_availability(attempts, p_gen, code.n_phys))
    if avail <= 0.0:
        return 0.0, qps, segments
    return avail**segments * r, qps, segments


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _availability(
    eta_c: float, l_att: float, spacings_km: tuple, memories: tuple, gen_rounds: tuple, codes: tuple
) -> np.ndarray:
    """[c, s, m, g]: the per-cycle availability of code codes[c] (None for
    the bare chain) at spacing spacings_km[s] with memories[m] *
    gen_rounds[g] attempts, as _throughput computes it. The encoded tails
    come from one pmf pass over the distinct (attempts, p_gen) rows. Only
    the coupling and attenuation length are read, so every cell that shares
    them, at any gate error, reuses the table."""
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


def throughput(
    params: HardwareParams,
    codes: tuple,
    spacings_km: list,
    memories: tuple,
    gen_rounds: tuple,
    l_tot_km: float,
) -> tuple[np.ndarray, list[int]]:
    """(x, segments) of every configuration of a grid, from one array pass.
    x[c, s, m, g] > 0 exactly where _throughput's x of code codes[c] (None
    for the bare chain) at spacing spacings_km[s] with memories[m] pairs and
    gen_rounds[g] rounds is, and then equals it; segments[s] counts the
    segments at spacing s. t0 is not read."""
    segments = [segment_count(l_tot_km, spacing) for spacing in spacings_km]
    if codes == (None,):
        r = [[_chain_secure_fraction(params.eps_g, params.xi, n) for n in segments]]
    else:
        r = [
            [_encoded_secure_fraction(code, physical_error_rate(params), n) for n in segments]
            for code in codes
        ]
    avail = _availability(
        params.eta_c, params.l_att, tuple(spacings_km), tuple(memories), tuple(gen_rounds), codes
    )
    shape = (len(codes), len(segments), 1, 1)
    powered = libm(pow, avail, np.array(segments, dtype=object).reshape(shape[1:]))
    return powered * np.array(r, dtype=float).reshape(shape), segments
