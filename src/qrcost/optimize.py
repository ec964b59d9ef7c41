"""Architecture search: best configuration per repeater family, global winner
per parameter point, and sweep/region-map datasets.

Every search returns what an exhaustive scan of its discrete grid returns:
the first configuration, in a fixed lexicographic order, with the strictly
smallest cost, so ties break toward the earlier configuration. The gen1 and
gen3 searches price only the configurations that can still win, and the
pruning is exact for these reasons:

- A cost is a non-negative weighted sum of per-configuration terms whose
  weights the point fixes: for gen1 at one nesting level the terms are
  qps*alpha/r, qps*beta/r and qps*gamma/r; for gen3 in one cell (every
  hardware parameter but t0) the one term is stations*qps/(p_succ*r),
  weighted by t0. A configuration beaten in every term by a relative margin
  of 1e-9 costs more at every point.
- The margin is far above float rounding, so the pruned configuration also
  loses in floating point. The survivors keep their enumeration order and go
  through the same first-strict-minimum rule, so ties resolve as before.
- The rounding bound fails only where the arithmetic over- or underflows: a
  subnormal gate time or signal time, or a winner whose cost is subnormal or
  near overflow. There the family is scanned in full.

Grid points are independent; the region map fans (eta_c, eps_g) cells out over
worker processes, eps_g-outermost so that each worker builds few gen1 tables,
and reassembles rows in grid order, which keeps the output byte-identical for
any worker count.
"""
from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, NamedTuple, Optional

import numpy as np

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


# Relative margin of the prunings. Rounding moves a computed cost by far less,
# so a configuration beaten by this margin in exact arithmetic also loses in
# floating point.
_MARGIN = 1e-9
# The margin argument needs every computed cost within a few ulps of its exact
# value. It holds when the winner's cost_coeff is a normal float and its cost
# stays below what any subnormal rate yields (cost >= 2 / float_info.min, about
# 9e307); otherwise the family is scanned in full.
_COST_CEILING = 2.0**1000


def _undominated(vectors) -> list[int]:
    """Ascending indices of the rows that no other row beats by the margin in
    every column: row j dominates row i when (1 + margin) * v[j] <= v[i]
    elementwise. Columns must be non-negative. Any cost that is a non-negative
    weighted sum of the columns then prices a dominated row strictly above a
    kept one. A row with a non-finite entry dominates nothing."""
    v = np.asarray(vectors, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    alive = np.arange(len(v))
    kept: list[int] = []
    while alive.size:
        rows = v[alive]
        # the lexicographic minimum can only be dominated by an equal row
        best = alive[np.lexsort(rows.T[::-1])[0]]
        if not np.isfinite(v[best]).all():
            kept.extend(alive.tolist())
            break
        kept.append(int(best))
        beaten = (v[best] * (1.0 + _MARGIN) <= rows).all(axis=1)
        alive = alive[~beaten & (alive != best)]
    return sorted(kept)


def _gen1_candidates(search: Gen1Search, eps_g: float, xi: float):
    """Schedule summaries in enumeration order."""
    out = []
    for scheme in search.schemes:
        for levels in range(search.min_levels, search.max_levels + 1):
            for rounds in itertools.product(
                range(search.max_rounds + 1), repeat=levels + 1
            ):
                summary = gen1._schedule_summary(scheme, rounds, eps_g, xi)
                out.append((scheme, levels, rounds, summary))
    return out


@lru_cache(maxsize=32)
def _gen1_frontier(search: Gen1Search, eps_g: float, xi: float):
    """The schedules, in enumeration order, that can win at some point.

    At a fixed nesting level the cost is (2^n / L) * (K1 * qps*alpha/r +
    K2 * qps*beta/r + K3 * qps*gamma/r) with K1 = T_signal/p0, K2 = T_signal and
    K3 = t0, all non-negative and shared by the level's schedules. So only
    schedules undominated in those three products can be cheapest. A schedule
    with r <= 0 is infeasible everywhere.
    """
    entries = [e for e in _gen1_candidates(search, eps_g, xi) if e[3][3] > 0.0]
    keep = []
    for levels in range(search.min_levels, search.max_levels + 1):
        index = [i for i, e in enumerate(entries) if e[1] == levels]
        products = []
        for i in index:
            alpha, beta, gamma, r, qps = entries[i][3]
            products.append((qps * alpha / r, qps * beta / r, qps * gamma / r))
        keep.extend(index[j] for j in _undominated(products))
    return [entries[i] for i in sorted(keep)]


def _gen1_priced(entries, params: HardwareParams, l_tot_km: float, links: dict):
    for scheme, levels, rounds, summary in entries:
        yield (scheme, levels, rounds), gen1._finish(summary, params, levels, l_tot_km, links[levels])


def _gen1_links(params: HardwareParams, l_tot_km: float, search: Gen1Search) -> dict:
    levels = range(search.min_levels, search.max_levels + 1)
    return {n: gen1._link(params, n, l_tot_km) for n in levels}


def _gen1_results(params: HardwareParams, l_tot_km: float, space: SearchSpace):
    entries = _gen1_candidates(space.gen1, params.eps_g, params.xi)
    return _gen1_priced(entries, params, l_tot_km, _gen1_links(params, l_tot_km, space.gen1))


def _gen1_survivors(params: HardwareParams, l_tot_km: float, space: SearchSpace):
    """Frontier schedules priced at this point, or None when a link's signal
    time is subnormal: its rate ceiling 1/T_signal could then overflow."""
    links = _gen1_links(params, l_tot_km, space.gen1)
    if any(t_signal < sys.float_info.min for t_signal, _ in links.values()):
        return None
    frontier = _gen1_frontier(space.gen1, params.eps_g, params.xi)
    return list(_gen1_priced(frontier, params, l_tot_km, links))


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


def _gen3_grid(search: Gen3Search):
    """(n, m, spacing) in search order."""
    n_values = range(search.min_n, search.max_n + 1)
    m_values = range(search.min_m, search.max_m + 1)
    for spacing, n, m in itertools.product(search.spacings_km, n_values, m_values):
        if n * m <= search.max_photons:
            yield n, m, spacing


def _gen3_results(params: HardwareParams, l_tot_km: float, space: SearchSpace):
    for key in _gen3_grid(space.gen3):
        yield key, gen3.evaluate(params, Gen3Config(*key), l_tot_km)


@lru_cache(maxsize=64)
def _gen3_cell(search: Gen3Search, cell: HardwareParams, l_tot_km: float) -> list:
    """Configurations, in search order, that can win at some t0 of the cell
    (every hardware parameter but t0). Cost is t0 * N / x with N = stations *
    qps and x = p_succ * r, so only N/x within the margin of its minimum can
    be cheapest; x = 0 is infeasible at every t0."""
    keys, ratios = [], []
    for key in _gen3_grid(search):
        x, qps, stations = gen3._throughput(cell, Gen3Config(*key), l_tot_km)
        if x > 0.0:
            keys.append(key)
            ratios.append(stations * qps / x)
    return [keys[i] for i in _undominated(ratios)]


def _gen3_survivors(params: HardwareParams, l_tot_km: float, space: SearchSpace):
    """The cell's survivors priced at this t0, or None for a subnormal t0,
    whose rate x / t0 can overflow."""
    if params.t0 < sys.float_info.min:
        return None
    keys = _gen3_cell(space.gen3, params.with_(t0=1.0), l_tot_km)
    return [(key, gen3.evaluate(params, Gen3Config(*key), l_tot_km)) for key in keys]


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
    configuration; describe(config) is its one-line text. survivors(params,
    l_tot_km, space), where present, lists the (arguments, CostResult) of the
    configurations that can still win at the point, in the same order, or
    returns None when the point needs the full scan. Evaluators are looked up
    on their module at call time, so a replaced module attribute is honored.
    """

    config_type: type
    evaluate: Callable
    results: Callable
    describe: Callable
    survivors: Optional[Callable] = None


# The one place to add a family: the optimizer, evaluate_config,
# describe_config and the [evaluate] config section all read this table.
FAMILY_TABLE: dict[str, Family] = {
    "gen1": Family(
        Gen1Config,
        lambda *args: gen1.evaluate(*args),
        _gen1_results,
        lambda c: f"scheme={c.scheme} levels={c.levels} rounds={','.join(map(str, c.rounds))}",
        _gen1_survivors,
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
        _gen3_survivors,
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


def _margin_holds(best: Optional[tuple[Any, CostResult]]) -> bool:
    """True when the pruned winner's float cost is accurate enough for the
    margin argument (see _COST_CEILING)."""
    if best is None:
        return False
    result = best[1]
    return sys.float_info.min <= result.cost_coeff and result.cost <= _COST_CEILING


def optimize_family(
    family: str,
    params: HardwareParams,
    l_tot_km: float,
    space: SearchSpace = SearchSpace(),
) -> Optional[Candidate]:
    """Cheapest configuration of one family, equal to the exhaustive scan's;
    None when nothing is feasible."""
    spec = FAMILY_TABLE.get(family)
    if spec is None:
        raise ValueError(f"unknown family {family!r}")
    survivors = spec.survivors(params, l_tot_km, space) if spec.survivors else None
    best = _argmin(survivors) if survivors is not None else None
    if survivors is None or (survivors and not _margin_holds(best)):
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


def _map_task(args) -> list[list[dict]]:
    """The inner-axis rows of each (eta_c, eps_g) cell in a chunk; must stay
    importable at module top level so worker processes can unpickle it."""
    base, cells, t0_values, l_tot_km, space = args
    out = []
    for eta_c, eps_g in cells:
        point_base = base.with_(eta_c=eta_c, eps_g=eps_g)
        rows = []
        for t0 in t0_values:
            point = point_base.with_(t0=t0)
            rows.append(report_row(point, l_tot_km, optimize_all(point, l_tot_km, space)))
        out.append(rows)
    return out


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

    Cells run eps_g-outermost in one contiguous chunk per worker, so each
    worker builds the gen1 tables of its own eps_g values only. Rows come back
    in lattice order (eta outermost, t0 innermost) regardless of the worker
    count.
    """
    cells = [(i, j) for j in range(len(eps_values)) for i in range(len(eta_values))]
    size = max(1, math.ceil(len(cells) / max(threads, 1)))
    chunks = [cells[k:k + size] for k in range(0, len(cells), size)]
    tasks = [
        (params, [(eta_values[i], eps_values[j]) for i, j in chunk], tuple(t0_values),
         l_tot_km, space)
        for chunk in chunks
    ]
    if len(tasks) <= 1:
        done = list(map(_map_task, tasks))
    else:
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            done = list(pool.map(_map_task, tasks))
    by_cell = dict(zip(cells, itertools.chain.from_iterable(done)))
    return [
        row
        for i in range(len(eta_values))
        for j in range(len(eps_values))
        for row in by_cell[i, j]
    ]
