"""Unpruned reference search: every configuration of a family's grid priced
one at a time, first strict minimum kept. The production optimizer prunes;
the tests check it against this scan.

Every family is priced by its module's `price` from a scalar fold of one
configuration with the float operations of the family's array pass, which
the program does not run: gen1 from `chain_reference.schedule_summary`,
gen2 from `gen2_throughput` below, gen3 from `station_reference.throughput`.
The evaluators read their configuration's own table of those passes, so the
scan compares the program with folds apart from it.

`terms` and `frontier` are the pruning's reference: the cost terms and the
inputs of each family's `price` built one configuration at a time, and the
undominated rows picked group by group. The optimizer builds the same terms
and inputs in array passes."""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Optional

import station_reference
from chain_reference import schedule_summary, swap_chain

from qrcost import gen1, gen2, gen3
from qrcost.binom import tail_at_least
from qrcost.core import (
    Gen1Config,
    Gen2EncConfig,
    Gen2NoEncConfig,
    Gen3Config,
    HardwareParams,
    segment_count,
)
from qrcost.keyrate import average_qber, secure_fraction
from qrcost.optimize import (
    Candidate,
    SearchSpace,
    _gen1_candidates,
    _undominated,
)
from qrcost.pairs import elementary_pair, heg_success_prob


@lru_cache(maxsize=None)
def _chain_secure_fraction(eps_g: float, xi: float, segments: int) -> float:
    state = swap_chain(elementary_pair(eps_g), segments, eps_g, xi)
    return secure_fraction(average_qber(state.qber_x, state.qber_z))


@lru_cache(maxsize=None)
def _encoded_secure_fraction(code, eps: float, segments: int) -> float:
    return secure_fraction(gen2.encoded_qber(code, eps, segments))


@lru_cache(maxsize=None)
def _availability(attempts: int, p_gen: float, n_phys: Optional[int]) -> float:
    """Chance that `attempts` generation attempts on a segment yield one pair
    (n_phys None, the bare chain) or the n_phys physical pairs of one
    logical pair."""
    if n_phys is None:
        return gen2.link_availability(p_gen, attempts)
    return tail_at_least(attempts, p_gen, n_phys)


def gen2_throughput(params: HardwareParams, config, l_tot_km: float) -> tuple[float, int, int]:
    """(x, qubits_per_station, segments) of one swap-chain configuration,
    with x = avail**segments * r the secret bits per cycle, and x = 0 when
    the chain cannot work. All segments must be ready in the same cycle."""
    segments = segment_count(l_tot_km, config.spacing_km)
    qps = 2 * config.memories
    code = getattr(config, "code", None)  # only the encoded chain has one
    if code is None:
        r = _chain_secure_fraction(params.eps_g, params.xi, segments)
    else:
        r = _encoded_secure_fraction(code, gen2.physical_error_rate(params), segments)
    if r <= 0.0:
        return 0.0, qps, segments
    p_gen = heg_success_prob(params.eta_c, config.spacing_km, params.l_att)
    attempts = config.memories * config.gen_rounds
    avail = _availability(attempts, p_gen, None if code is None else code.n_phys)
    if avail <= 0.0:
        return 0.0, qps, segments
    return avail**segments * r, qps, segments


def gen3_throughput(params: HardwareParams, config, l_tot_km: float) -> tuple[float, int, int]:
    """(x, qubits_per_station, stations) of one gen3 configuration."""
    x = station_reference.throughput(
        params.eta_c, params.l_att, gen3.photon_error_rate(params),
        config.n, config.m, config.spacing_km, l_tot_km,
    )
    return x, 2 * config.n * config.m, segment_count(l_tot_km, config.spacing_km)


def price(params: HardwareParams, config, l_tot_km: float):
    """The CostResult of one configuration, as the reference scan prices it."""
    if isinstance(config, Gen1Config):
        summary = schedule_summary(config.scheme, config.rounds, params.eps_g, params.xi)
        return gen1.price(params, l_tot_km, config.levels, summary)
    if isinstance(config, Gen3Config):
        return gen3.price(params, l_tot_km, *gen3_throughput(params, config, l_tot_km))
    x, qps, segments = gen2_throughput(params, config, l_tot_km)
    return gen2.price(params, l_tot_km, x, qps, segments, config.spacing_km, config.gen_rounds)


def configs(family: str, l_tot_km: float, space: SearchSpace):
    """The family's grid in the optimizer's enumeration order."""
    if family == "gen1":
        s = space.gen1
        for scheme in s.schemes:
            for levels in range(s.min_levels, s.max_levels + 1):
                for rounds in itertools.product(range(s.max_rounds + 1), repeat=levels + 1):
                    yield Gen1Config(scheme, levels, rounds)
        return
    if family == "gen3":
        s = space.gen3
        for spacing in s.spacings_km:
            for n in range(s.min_n, s.max_n + 1):
                for m in range(s.min_m, s.max_m + 1):
                    if n * m <= s.max_photons:
                        yield Gen3Config(n, m, spacing)
        return
    s = space.gen2
    spacings = [l_tot_km / k for k in s.segment_counts if l_tot_km / k >= s.min_spacing_km]
    grid = list(itertools.product(spacings, s.memories, s.gen_rounds))
    if family == "gen2_noenc":
        for spacing, memories, gen_rounds in grid:
            yield Gen2NoEncConfig(memories, spacing, gen_rounds)
        return
    for code in s.codes:
        for spacing, memories, gen_rounds in grid:
            yield Gen2EncConfig(code, memories, spacing, gen_rounds)


def reference_optimum(
    family: str, params: HardwareParams, l_tot_km: float, space: SearchSpace
) -> Optional[Candidate]:
    """First feasible configuration with the strictly smallest non-NaN
    cost_coeff, or None."""
    best = None
    for config in configs(family, l_tot_km, space):
        result = price(params, config, l_tot_km)
        cost = result.cost_coeff
        if not result.feasible or math.isnan(cost):
            continue
        if best is None or cost < best.result.cost_coeff:
            best = Candidate(family, config, result)
    return best


def terms(family: str, space: SearchSpace, cell):
    """((arguments, inputs), group, terms) of every configuration feasible
    somewhere in the cell, in grid order, one configuration at a time; the
    inputs are what the family's price takes after the distance."""
    if family == "gen1":
        for scheme, levels, rounds, summary in _gen1_candidates(space.gen1, *cell):
            alpha, beta, gamma, r, qps = summary
            if r > 0.0:
                key = (scheme, levels, rounds), (levels, summary)
                yield key, levels, (qps * alpha / r, qps * beta / r, qps * gamma / r)
        return
    params, l_tot_km = cell
    for config in configs(family, l_tot_km, space):
        if family == "gen3":
            x, qps, stations = gen3_throughput(params, config, l_tot_km)
            arguments, inputs = (config.n, config.m, config.spacing_km), (x, qps, stations)
            factors = (1.0,)
        else:
            x, qps, stations = gen2_throughput(params, config, l_tot_km)
            arguments = (config.memories, config.spacing_km, config.gen_rounds)
            if family == "gen2_enc":
                arguments = (config.code, *arguments)
            inputs = (x, qps, stations, config.spacing_km, config.gen_rounds)
            factors = (config.gen_rounds * config.spacing_km, config.gen_rounds)
        if x > 0.0:
            yield (arguments, inputs), 0, tuple(stations * qps * f / x for f in factors)


def frontier(family: str, space: SearchSpace, cell) -> tuple:
    """(arguments, inputs), in grid order, of the rows of `terms` that no
    other row of their group beats by the margin in every term."""
    rows = list(terms(family, space, cell))
    groups: dict = {}
    for i, (_, group, _) in enumerate(rows):
        groups.setdefault(group, []).append(i)
    keep = [
        index[j] for index in groups.values() for j in _undominated([rows[i][2] for i in index])
    ]
    return tuple(rows[i][0] for i in sorted(keep))
