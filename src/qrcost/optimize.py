"""Exhaustive architecture search: best configuration per repeater family,
global winner per parameter point, and sweep/region-map datasets.

All searches enumerate their discrete grids in a fixed lexicographic order
and keep the first strict cost minimum, so results are deterministic and
ties break toward the earlier configuration. Grid points are independent;
the region map can fan them out over worker processes and reassembles rows
in grid order, which keeps the output byte-identical for any worker count.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, NamedTuple, Optional

from . import gen1, gen2, gen3
from .core import (
    CSS_CATALOG,
    CostResult,
    CssCode,
    Gen1Config,
    Gen2EncConfig,
    Gen2NoEncConfig,
    Gen3Config,
    HardwareParams,
)

_POW2_SEGMENTS = tuple(2**k for k in range(1, 11))  # 2 .. 1024
_POW2_MEMORIES = tuple(2**k for k in range(8))  # 1 .. 128
_GEN_ROUNDS = (1, 2, 5, 10)
_GEN3_SPACINGS = tuple(k * 0.5 for k in range(1, 21))  # 0.5 .. 10 km


@dataclass(frozen=True)
class Gen1Search:
    schemes: tuple[str, ...] = ("deutsch", "dur")
    min_levels: int = 1
    max_levels: int = 7
    max_rounds: int = 2


@dataclass(frozen=True)
class Gen2Search:
    """Grid for the swap-chain families. Spacings are L_tot/k for the given
    segment counts, dropped below min_spacing_km; memories spans powers of
    two up to 128 pairs per link (see the README for how the default grids
    shape reported optima)."""

    segment_counts: tuple[int, ...] = _POW2_SEGMENTS
    memories: tuple[int, ...] = _POW2_MEMORIES
    gen_rounds: tuple[int, ...] = _GEN_ROUNDS
    min_spacing_km: float = 1.0
    codes: tuple[CssCode, ...] = CSS_CATALOG  # used by the encoded family only


@dataclass(frozen=True)
class Gen3Search:
    spacings_km: tuple[float, ...] = _GEN3_SPACINGS
    min_n: int = 2
    max_n: int = 20
    min_m: int = 2
    max_m: int = 20
    max_photons: int = 200


@dataclass(frozen=True)
class SearchSpace:
    gen1: Gen1Search = field(default_factory=Gen1Search)
    gen2: Gen2Search = field(default_factory=Gen2Search)
    gen3: Gen3Search = field(default_factory=Gen3Search)


@dataclass(frozen=True)
class Candidate:
    family: str
    config: object
    result: CostResult


@dataclass(frozen=True)
class OptimumReport:
    """Best candidate per family plus the global cost-coefficient winner."""

    per_family: dict
    winner: Optional[Candidate]


# Each cached table is a few MB (one entry per schedule), so keep few of them.
@lru_cache(maxsize=32)
def _gen1_candidates(search: Gen1Search, eps_g: float, xi: float):
    """Schedule summaries in enumeration order, shared across grid points
    with the same error parameters."""
    out = []
    for scheme in search.schemes:
        for levels in range(search.min_levels, search.max_levels + 1):
            for rounds in itertools.product(
                range(search.max_rounds + 1), repeat=levels + 1
            ):
                summary = gen1._schedule_summary(scheme, rounds, eps_g, xi)
                out.append((scheme, levels, rounds, summary))
    return out


def _gen1_results(params: HardwareParams, l_tot_km: float, space: SearchSpace):
    # flat entries keep the cached tables small; the key tuple is transient
    for scheme, levels, rounds, summary in _gen1_candidates(space.gen1, params.eps_g, params.xi):
        yield (scheme, levels, rounds), gen1._finish(summary, params, levels, l_tot_km)


def _gen2_grid(search: Gen2Search, l_tot_km: float):
    """(spacing, memories, gen_rounds) in search order."""
    spacings = [
        l_tot_km / k for k in search.segment_counts if l_tot_km / k >= search.min_spacing_km
    ]
    return itertools.product(spacings, search.memories, search.gen_rounds)


def _gen2_noenc_results(params: HardwareParams, l_tot_km: float, space: SearchSpace):
    for spacing, memories, gen_rounds in _gen2_grid(space.gen2, l_tot_km):
        key = (memories, spacing, gen_rounds)
        yield key, gen2.evaluate_no_encoding(params, Gen2NoEncConfig(*key), l_tot_km)


def _gen2_enc_results(params: HardwareParams, l_tot_km: float, space: SearchSpace):
    for code in space.gen2.codes:
        for spacing, memories, gen_rounds in _gen2_grid(space.gen2, l_tot_km):
            key = (code, memories, spacing, gen_rounds)
            yield key, gen2.evaluate_encoded(params, Gen2EncConfig(*key), l_tot_km)


def _gen3_results(params: HardwareParams, l_tot_km: float, space: SearchSpace):
    search = space.gen3
    n_values = range(search.min_n, search.max_n + 1)
    m_values = range(search.min_m, search.max_m + 1)
    for spacing, n, m in itertools.product(search.spacings_km, n_values, m_values):
        if n * m <= search.max_photons:
            key = (n, m, spacing)
            yield key, gen3.evaluate(params, Gen3Config(*key), l_tot_km)


def _describe_gen2(config) -> str:
    return (
        f"spacing_km={config.spacing_km!r} memories={config.memories}"
        f" gen_rounds={config.gen_rounds}"
    )


class Family(NamedTuple):
    """One repeater family.

    evaluate(params, config, l_tot_km) prices one configuration; results(params,
    l_tot_km, space) yields (arguments, CostResult) over the family's search
    grid in a fixed order, and config_type(*arguments) rebuilds the
    configuration; describe(config) is its one-line text. Evaluators are looked
    up on their module at call time, so a replaced module attribute is honored.
    """

    config_type: type
    evaluate: Callable
    results: Callable
    describe: Callable


# The one place to add a family: the optimizer, evaluate_config,
# describe_config and the [evaluate] config section all read this table.
FAMILY_TABLE: dict[str, Family] = {
    "gen1": Family(
        Gen1Config,
        lambda *args: gen1.evaluate(*args),
        _gen1_results,
        lambda c: f"scheme={c.scheme} levels={c.levels} rounds={','.join(map(str, c.rounds))}",
    ),
    "gen2_noenc": Family(
        Gen2NoEncConfig,
        lambda *args: gen2.evaluate_no_encoding(*args),
        _gen2_noenc_results,
        _describe_gen2,
    ),
    "gen2_enc": Family(
        Gen2EncConfig,
        lambda *args: gen2.evaluate_encoded(*args),
        _gen2_enc_results,
        lambda c: f"code=[[{c.code.n_phys},1,{2 * c.code.t + 1}]] " + _describe_gen2(c),
    ),
    "gen3": Family(
        Gen3Config,
        lambda *args: gen3.evaluate(*args),
        _gen3_results,
        lambda c: f"n={c.n} m={c.m} spacing_km={c.spacing_km!r}",
    ),
}
FAMILIES = tuple(FAMILY_TABLE)
_BY_CONFIG_TYPE = {family.config_type: family for family in FAMILY_TABLE.values()}


def _family_of(config) -> Family:
    family = _BY_CONFIG_TYPE.get(type(config))
    if family is None:
        raise TypeError(f"unknown config type {type(config)!r}")
    return family


def describe_config(config) -> str:
    """Compact one-line description of any protocol configuration."""
    return _family_of(config).describe(config)


def evaluate_config(params: HardwareParams, config, l_tot_km: float) -> CostResult:
    """Dispatch a configuration to its family's evaluator."""
    return _family_of(config).evaluate(params, config, l_tot_km)


def _argmin(results: Iterable[tuple[Any, CostResult]]) -> Optional[tuple[Any, CostResult]]:
    """First strict cost_coeff minimum among feasible results, or None. NaN
    compares false against any cost, so keeping it out of the empty slot is
    enough to make it never win."""
    best, best_cost = None, math.inf
    for key, result in results:
        cost = result.cost_coeff
        if result.feasible and (cost < best_cost if best is not None else not math.isnan(cost)):
            best, best_cost = (key, result), cost
    return best


def optimize_family(
    family: str,
    params: HardwareParams,
    l_tot_km: float,
    space: SearchSpace = SearchSpace(),
) -> Optional[Candidate]:
    """Exhaustive search of one family; None when nothing is feasible."""
    spec = FAMILY_TABLE.get(family)
    if spec is None:
        raise ValueError(f"unknown family {family!r}")
    best = _argmin(spec.results(params, l_tot_km, space))
    if best is None:
        return None
    key, result = best
    return Candidate(family, spec.config_type(*key), result)


def optimize_all(
    params: HardwareParams,
    l_tot_km: float,
    space: SearchSpace = SearchSpace(),
) -> OptimumReport:
    """Best candidate of every family and the global winner."""
    per_family = {f: optimize_family(f, params, l_tot_km, space) for f in FAMILIES}
    best = _argmin((c, c.result) for c in per_family.values() if c is not None)
    return OptimumReport(per_family, best[0] if best else None)


_NO_RESULT = CostResult.infeasible()


def report_row(
    params: HardwareParams, l_tot_km: float, report: OptimumReport
) -> dict:
    """Flatten one optimization outcome into an output-table row. A missing
    winner or family optimum reads as infeasible: zero rate, infinite cost."""
    w = report.winner
    best = w.result if w is not None else _NO_RESULT
    row = {
        "eta_c": params.eta_c,
        "eps_g": params.eps_g,
        "t0": params.t0,
        "l_tot_km": l_tot_km,
        "winner": w.family if w is not None else "none",
        "config": describe_config(w.config) if w is not None else "",
        "rate_sbits_per_s": best.rate_sbits_per_s,
        "cost": best.cost,
        "cost_coeff": best.cost_coeff,
        "feasible": best.feasible,
    }
    for family in FAMILIES:
        cand = report.per_family[family]
        row[f"cost_coeff_{family}"] = (cand.result if cand is not None else _NO_RESULT).cost_coeff
    return row


def sweep(
    axis: str,
    values: tuple[float, ...],
    params: HardwareParams,
    l_tot_km: float,
    space: SearchSpace = SearchSpace(),
) -> list[dict]:
    """One optimization per value of a single hardware axis or of the total
    distance."""
    if axis not in ("eta_c", "eps_g", "t0", "l_tot"):
        raise ValueError(f"sweep axis must be eta_c, eps_g, t0 or l_tot, got {axis!r}")
    rows = []
    for value in values:
        if axis == "l_tot":
            point, dist = params, value
        else:
            point, dist = params.with_(**{axis: value}), l_tot_km
        rows.append(report_row(point, dist, optimize_all(point, dist, space)))
    return rows


def _map_task(args) -> list[dict]:
    """All inner-axis rows for one (eta_c, eps_g) cell; must stay importable
    at module top level so worker processes can unpickle it."""
    base, eta_c, eps_g, t0_values, l_tot_km, space = args
    point_base = base.with_(eta_c=eta_c, eps_g=eps_g)
    rows = []
    for t0 in t0_values:
        point = point_base.with_(t0=t0)
        rows.append(report_row(point, l_tot_km, optimize_all(point, l_tot_km, space)))
    return rows


def region_map(
    eta_values: tuple[float, ...],
    eps_values: tuple[float, ...],
    t0_values: tuple[float, ...],
    l_tot_km: float,
    space: SearchSpace = SearchSpace(),
    params: HardwareParams = HardwareParams(),
    threads: int = 1,
) -> list[dict]:
    """Winner label and cost for every (eta_c, eps_g, t0) lattice point.

    Rows come back in lattice order (eta outermost, t0 innermost) regardless
    of the worker count.
    """
    tasks = [
        (params, eta, eps, tuple(t0_values), l_tot_km, space)
        for eta in eta_values
        for eps in eps_values
    ]
    if threads <= 1:
        chunks = map(_map_task, tasks)
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_map_task, tasks, chunksize=1))
    return [row for chunk in chunks for row in chunk]
