"""Architecture search: best configuration per repeater family, global winner
per parameter point, and sweep/region-map datasets.

Every search returns what an exhaustive scan of its discrete grid returns:
the first configuration, in a fixed lexicographic order, with the strictly
smallest cost, so ties break toward the earlier configuration. Each search
prices only the configurations that can still win, and the pruning is exact
for these reasons:

- Within a group, a family's cost is a positive multiple of a non-negative
  weighted sum of per-configuration terms: the terms depend only on a cell
  of the point, the weights on the rest. gen1 (per nesting level): terms
  qps*alpha/r, qps*beta/r, qps*gamma/r, weights T_signal/p0, T_signal, t0,
  cell (eps_g, xi). gen2: terms N*g*L0/x and N*g/x, weights 1/c and t0.
  gen3: term N/x, weight t0. For gen2 and gen3, N = stations * qps, g the
  generation rounds, x the t0-free throughput and the cell every hardware
  parameter but t0, plus L. A configuration beaten in every term by a
  relative margin of 1e-9 costs more at every point of the cell.
- The margin is far above float rounding, so the pruned configuration also
  loses in floating point. The survivors keep their enumeration order and go
  through the same first-strict-minimum rule, so ties resolve as before.
- The rounding bound fails only where the arithmetic over- or underflows: a
  weight below the smallest normal float, or a winner whose cost is
  subnormal or near overflow. There the family is scanned in full. A weight
  that overflows to inf needs no full scan: it makes every configuration of
  its group infeasible in either scan.

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
    GEN1_SCHEMES,
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
# Most schedules of one nesting level a gen1 table may hold (the default grid's
# deepest level holds 3^8 = 6,561).
_GEN1_MAX_ROWS = 2**20


@dataclass(frozen=True)
class Gen1Search:
    schemes: tuple[str, ...] = GEN1_SCHEMES
    min_levels: int = 1
    max_levels: int = gen1.SEARCH_LEVELS
    max_rounds: int = gen1.SEARCH_ROUNDS

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError("empty scheme list")
        for scheme in self.schemes:
            if scheme not in GEN1_SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}")
        if not 0 <= self.min_levels <= self.max_levels:
            raise ValueError("need 0 <= min_levels <= max_levels")
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")
        # the deepest level holds (max_rounds + 1)^(max_levels + 1) schedules;
        # the capped exponent keeps the power small and still exceeds the limit
        exponent = min(self.max_levels + 1, _GEN1_MAX_ROWS.bit_length())
        if (self.max_rounds + 1) ** exponent > _GEN1_MAX_ROWS:
            raise ValueError(
                f"(max_rounds + 1)^(max_levels + 1) = {self.max_rounds + 1}^{self.max_levels + 1}"
                f" schedules per level exceed the table limit {_GEN1_MAX_ROWS}"
            )


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

    def __post_init__(self) -> None:
        for name in ("segment_counts", "memories", "gen_rounds"):
            values = getattr(self, name)
            if not values or any(value < 1 for value in values):
                raise ValueError(f"{name} must be a non-empty list of values >= 1, got {values}")
        if not self.min_spacing_km >= 0.0:
            raise ValueError(f"min_spacing_km must be >= 0, got {self.min_spacing_km}")
        if not self.codes:
            raise ValueError("empty code list")


@dataclass(frozen=True)
class Gen3Search:
    spacings_km: tuple[float, ...] = _GEN3_SPACINGS
    min_n: int = 2
    max_n: int = gen3.SEARCH_N
    min_m: int = 2
    max_m: int = gen3.SEARCH_M
    max_photons: int = 200

    def __post_init__(self) -> None:
        spacings = self.spacings_km
        if not spacings or not all(0.0 < s < math.inf for s in spacings):
            raise ValueError(f"spacings_km must be non-empty, finite and > 0, got {spacings}")
        if not (1 <= self.min_n <= self.max_n and 1 <= self.min_m <= self.max_m):
            raise ValueError("need 1 <= min_n <= max_n and 1 <= min_m <= max_m")
        if self.max_photons < self.min_n * self.min_m:
            raise ValueError(
                f"max_photons {self.max_photons} leaves no code: the smallest has"
                f" min_n * min_m = {self.min_n * self.min_m}"
            )


@dataclass(frozen=True)
class SearchSpace:
    gen1: Gen1Search = field(default_factory=Gen1Search)
    gen2: Gen2Search = field(default_factory=Gen2Search)
    gen3: Gen3Search = field(default_factory=Gen3Search)


_DEFAULT_SPACE = SearchSpace()


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
_NO_RESULT = CostResult.infeasible()


def _undominated(vectors) -> list[int]:
    """Ascending indices of the rows that no other row beats by the margin in
    every column: row j dominates row i when (1 + margin) * v[j] <= v[i]
    elementwise. Columns must be non-negative. Any cost that is a non-negative
    weighted sum of the columns then prices a dominated row strictly above a
    kept one. A row with a non-finite entry dominates nothing."""
    v = np.asarray(vectors, dtype=float)
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


def _gen1_grid(search: Gen1Search):
    """(scheme, levels, rounds) in search order."""
    for scheme in search.schemes:
        for levels in range(search.min_levels, search.max_levels + 1):
            for rounds in itertools.product(range(search.max_rounds + 1), repeat=levels + 1):
                yield scheme, levels, rounds


def _gen1_candidates(search: Gen1Search, eps_g: float, xi: float):
    """Schedule summaries in enumeration order, read off one table per scheme
    whose rows run in the same order."""
    bounds = (search.max_levels, search.max_rounds)
    summaries = itertools.chain.from_iterable(
        gen1._schedule_summary(scheme, eps_g, xi, *bounds).summaries[levels]
        for scheme in search.schemes
        for levels in range(search.min_levels, search.max_levels + 1)
    )
    return [(*key, summary) for key, summary in zip(_gen1_grid(search), summaries)]


def _gen1_terms(space: SearchSpace, cell):
    """At nesting level n the cost is (2^n / L) * (K1 * qps*alpha/r + K2 *
    qps*beta/r + K3 * qps*gamma/r) with K1 = T_signal/p0, K2 = T_signal and
    K3 = t0. The three products are the terms, grouped by level; a schedule
    with r <= 0 is infeasible everywhere."""
    for scheme, levels, rounds, summary in _gen1_candidates(space.gen1, *cell):
        alpha, beta, gamma, r, qps = summary
        if r > 0.0:
            terms = (qps * alpha / r, qps * beta / r, qps * gamma / r)
            yield (scheme, levels, rounds), levels, terms


def _gen1_weights(params: HardwareParams, l_tot_km: float, space: SearchSpace) -> list:
    """A level whose link never succeeds (p0 = 0) is infeasible in every scan
    and adds no weights."""
    weights = [params.t0]
    for levels in range(space.gen1.min_levels, space.gen1.max_levels + 1):
        t_signal, p0 = gen1._link(params, levels, l_tot_km)
        if p0 > 0.0:
            weights += [t_signal, t_signal / p0]
    return weights


def _gen2_grid(s: Gen2Search, l_tot_km: float):
    """(memories, spacing, gen_rounds) in search order."""
    spacings = [l_tot_km / k for k in s.segment_counts if l_tot_km / k >= s.min_spacing_km]
    for spacing, memories, gen_rounds in itertools.product(spacings, s.memories, s.gen_rounds):
        yield memories, spacing, gen_rounds


def _gen3_code_grid(search: Gen3Search) -> tuple:
    """The search's code grid, as gen3.codes takes it."""
    return search.min_n, search.max_n, search.min_m, search.max_m, search.max_photons


def _gen3_grid(search: Gen3Search):
    """(n, m, spacing) in search order: every code at each spacing."""
    n_values, m_values, _ = gen3.codes(*_gen3_code_grid(search))
    for spacing in search.spacings_km:
        for n, m in zip(n_values, m_values):
            yield n, m, spacing


def _gen3_terms(space: SearchSpace, cell):
    """The one term N/x of every configuration with x > 0, in grid order,
    from one array pass over the cell (gen3.throughput)."""
    params, l_tot_km = cell
    grid = _gen3_code_grid(space.gen3)
    n_values, m_values, _ = gen3.codes(*grid)
    spacings = space.gen3.spacings_km
    live, x, qps, stations = gen3.throughput(params, grid, spacings, l_tot_km)
    for k, j in zip(*np.nonzero(x > 0.0)):
        i = live[k]
        term = stations[i] * qps[j] * 1.0 / x[k, j].item()
        yield (n_values[j], m_values[j], spacings[i]), 0, (term,)


def _without_t0(params: HardwareParams, l_tot_km: float):
    return params.with_(t0=1.0), l_tot_km


def _gen2_terms(family: str) -> Callable:
    """Terms N*g*L0/x and N*g/x of a swap-chain family, whose cost in a cell
    is stations * qps * gen_rounds * (spacing / c + t0) / x with
    gen2._throughput = (x, qps, stations) t0-free; x = 0 is infeasible at
    every t0."""

    def terms(space: SearchSpace, cell):
        params, l_tot_km = cell
        spec = FAMILY_TABLE[family]
        for key in spec.grid(space, l_tot_km):
            config = spec.config_type(*key)
            x, qps, stations = gen2._throughput(params, config, l_tot_km)
            if x > 0.0:
                factors = (config.gen_rounds * config.spacing_km, config.gen_rounds)
                yield key, 0, tuple(stations * qps * f / x for f in factors)

    return terms


def _describe_gen2(config) -> str:
    return (
        f"spacing_km={config.spacing_km!r} memories={config.memories}"
        f" gen_rounds={config.gen_rounds}"
    )


class Family(NamedTuple):
    """One repeater family.

    config_type(*arguments) builds a configuration, evaluate(params, config,
    l_tot_km, space) prices it (reading the tables of that search space) and
    describe(config) is its one-line text; grid(space, l_tot_km) yields the
    arguments of the search grid in a fixed order. Within a group, the cost at
    a point is a positive multiple of sum(weight * term): cell(params,
    l_tot_km) is the hashable part of the point the terms depend on,
    terms(space, cell) yields (arguments, group, terms) of every configuration
    feasible somewhere in the cell, in grid order, and weights(params,
    l_tot_km, space) lists the point's weights. Evaluators are looked up on
    their module at call time, so a replaced module attribute is honored.
    """

    config_type: type
    evaluate: Callable
    grid: Callable
    cell: Callable
    terms: Callable
    weights: Callable
    describe: Callable


_gen2_weights = lambda params, l_tot_km, space: (1.0 / params.c_fiber, params.t0)  # noqa: E731

# The one place to add a family: the optimizer, evaluate_config,
# describe_config and the [evaluate] config section all read this table.
FAMILY_TABLE: dict[str, Family] = {
    "gen1": Family(
        Gen1Config,
        lambda params, config, l_tot_km, space: gen1.evaluate(
            params, config, l_tot_km, space.gen1.max_levels, space.gen1.max_rounds
        ),
        lambda space, l_tot_km: _gen1_grid(space.gen1),
        lambda params, l_tot_km: (params.eps_g, params.xi),
        _gen1_terms,
        _gen1_weights,
        lambda c: f"scheme={c.scheme} levels={c.levels} rounds={','.join(map(str, c.rounds))}",
    ),
    "gen2_noenc": Family(
        Gen2NoEncConfig,
        lambda params, config, l_tot_km, space: gen2.evaluate_no_encoding(params, config, l_tot_km),
        lambda space, l_tot_km: _gen2_grid(space.gen2, l_tot_km),
        _without_t0,
        _gen2_terms("gen2_noenc"),
        _gen2_weights,
        _describe_gen2,
    ),
    "gen2_enc": Family(
        Gen2EncConfig,
        lambda params, config, l_tot_km, space: gen2.evaluate_encoded(params, config, l_tot_km),
        lambda space, l_tot_km: (
            (code, *key) for code in space.gen2.codes for key in _gen2_grid(space.gen2, l_tot_km)
        ),
        _without_t0,
        _gen2_terms("gen2_enc"),
        _gen2_weights,
        lambda c: f"code=[[{c.code.n_phys},1,{2 * c.code.t + 1}]] " + _describe_gen2(c),
    ),
    "gen3": Family(
        Gen3Config,
        lambda params, config, l_tot_km, space: gen3.evaluate(params, config, l_tot_km),
        lambda space, l_tot_km: _gen3_grid(space.gen3),
        _without_t0,
        _gen3_terms,
        lambda params, l_tot_km, space: (params.t0,),
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
    """Dispatch a configuration to its family's evaluator, reading the
    default search's tables."""
    return _family_of(config).evaluate(params, config, l_tot_km, _DEFAULT_SPACE)


@lru_cache(maxsize=256)
def _frontier(family: str, space: SearchSpace, cell) -> tuple:
    """Arguments, in grid order, of the configurations that can win at some
    point of the cell: per group, those no other beats by the margin in
    every term."""
    rows = list(FAMILY_TABLE[family].terms(space, cell))
    groups: dict = {}
    for i, (_, group, _) in enumerate(rows):
        groups.setdefault(group, []).append(i)
    keep = [
        index[j] for index in groups.values() for j in _undominated([rows[i][2] for i in index])
    ]
    return tuple(rows[i][0] for i in sorted(keep))


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


def _weights_hold(weights: Iterable[float]) -> bool:
    """True when no weight of the point is subnormal, zero or NaN: then each
    evaluator computes a cost within a few ulps of the weighted sum of its
    terms, unless the rate itself over- or underflows (see _margin_holds). An
    infinite weight makes its whole group infeasible in either scan."""
    return all(w >= sys.float_info.min for w in weights)


def _margin_holds(best: Optional[tuple[Any, CostResult]]) -> bool:
    """True when the pruned winner's float cost is accurate enough for the
    margin argument (see _COST_CEILING)."""
    result = best[1] if best is not None else _NO_RESULT
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

    def priced(keys):
        return (
            (key, spec.evaluate(params, spec.config_type(*key), l_tot_km, space)) for key in keys
        )

    keys = None
    if _weights_hold(spec.weights(params, l_tot_km, space)):
        keys = _frontier(family, space, spec.cell(params, l_tot_km))
        best = _argmin(priced(keys))
    if keys is None or (keys and not _margin_holds(best)):
        best = _argmin(priced(spec.grid(space, l_tot_km)))
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


SWEEP_AXES = ("eta_c", "eps_g", "t0", "l_tot")


def sweep(
    axis: str,
    values: tuple[float, ...],
    params: HardwareParams,
    l_tot_km: float,
    space: SearchSpace = SearchSpace(),
) -> list[dict]:
    """One optimization per value of a single hardware axis or of the total
    distance."""
    if axis not in SWEEP_AXES:
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
