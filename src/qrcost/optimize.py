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
  subnormal or near overflow. There every configuration of the cell pass is
  priced, unpruned. A weight that overflows to inf needs no full scan: it
  makes every configuration of its group infeasible in either scan.
- A cell pass prices only the rows that can survive (_bounded). Each family
  bounds its terms from below over the whole grid without pricing a row:
  gen1 by qps*alpha, qps*beta and qps*gamma (r <= 1), gen3 by N over a
  power bound on x (gen3.bound), gen2 by its terms themselves. A row whose
  bound a priced, finite incumbent of its group beats by the margin would
  lose to it in _undominated, so it is never priced.

Grid points are independent; the region map fans (eta_c, eps_g) cells out over
worker processes, eps_g-outermost so that each worker builds few gen1 tables,
forked from a parent that has built the tables every cell of a coupling
shares, and reassembles rows in grid order, which keeps the output
byte-identical for any worker count.
"""
from __future__ import annotations

import itertools
import math
import os
import pickle
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Any, NamedTuple, Optional

import numpy as np

from . import gen1, gen2, gen3, keyrate
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
    _check_distance,
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
    max_levels: int = 7
    max_rounds: int = 2

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
        # a chain splits into 2^levels links, and a Deutsch schedule holds
        # qps = 2 * 2^sum(rounds) qubits per station; both enter the cost as floats
        if self.max_levels >= sys.float_info.max_exp:
            raise ValueError(f"max_levels {self.max_levels}: 2^max_levels links overflow a float")
        deepest = (self.max_levels + 1) * self.max_rounds + 1
        if "deutsch" in self.schemes and deepest >= sys.float_info.max_exp:
            raise ValueError(
                f"the deepest deutsch schedule holds 2^{deepest} qubits per station,"
                " which overflows a float"
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
        # each spacing L_tot/k is a float
        if any(k > sys.float_info.max for k in self.segment_counts):
            raise ValueError(
                f"segment_counts above {sys.float_info.max:.4g} overflow a float spacing"
            )
        if not self.min_spacing_km >= 0.0:
            raise ValueError(f"min_spacing_km must be >= 0, got {self.min_spacing_km}")
        if not self.codes:
            raise ValueError("empty code list")


@dataclass(frozen=True)
class Gen3Search:
    spacings_km: tuple[float, ...] = _GEN3_SPACINGS
    min_n: int = 2
    max_n: int = 20
    min_m: int = 2
    max_m: int = 20
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


def _lexmin(rows: np.ndarray) -> int:
    """Index of the lexicographically smallest row, np.lexsort(rows.T[::-1])[0]
    in one pass per column: NaN sorts after every number and ties go to the
    lowest index."""
    candidates = np.arange(len(rows))
    for column in rows.T:
        values = column[candidates]
        numbers = values[~np.isnan(values)]
        if numbers.size:  # else every candidate holds NaN, and they tie
            candidates = candidates[values == numbers.min()]
        if len(candidates) == 1:
            break
    return int(candidates[0])


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
        best = alive[_lexmin(rows)]
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


def _gen1_columns(search: Gen1Search, eps_g: float, xi: float):
    """((scheme, levels), summary columns) of every nesting level of the
    grid in enumeration order, read off one table per scheme whose rows run
    in the same order."""
    grid = gen1._search_grid(search.max_levels, search.max_rounds)
    for scheme in search.schemes:
        table = gen1._schedule_summary(scheme, eps_g, xi, grid)
        for levels in range(search.min_levels, search.max_levels + 1):
            yield (scheme, levels), table.columns[levels]


def _gen1_candidates(search: Gen1Search, eps_g: float, xi: float):
    """(scheme, levels, rounds, summary) of every schedule, in enumeration
    order; the summary holds the secure fraction r in place of the table's
    Q."""

    def summaries(alpha, beta, gamma, qber, qps):
        columns = (alpha, beta, gamma, keyrate.secure_fraction_rows(qber), qps)
        return zip(*(column.tolist() for column in columns))

    rows = itertools.chain.from_iterable(
        summaries(*columns) for _, columns in _gen1_columns(search, eps_g, xi)
    )
    return [(*key, summary) for key, summary in zip(_gen1_grid(search), rows)]


def _gen1_bound(space: SearchSpace, cell):
    """At nesting level n the cost is (2^n / L) * (K1 * qps*alpha/r + K2 *
    qps*beta/r + K3 * qps*gamma/r) with K1 = T_signal/p0, K2 = T_signal and
    K3 = t0. The three products are the terms, grouped by level, each
    computed as (qps * alpha) / r with qps cast exactly to float, as Python
    multiplies an int by a float; a schedule with r <= 0 is infeasible
    everywhere. A feasible row has 0 < r <= 1, so the same float products
    qps * alpha, qps * beta and qps * gamma bound its terms from below with
    no slack, and r is priced (two log2 per row) only for the rows the pass
    keeps. Rows whose Q lies in keyrate.QBER_DEAD (r = 0) are left out. A
    row's inputs to gen1.price are its level and summary."""
    search = space.gen1
    low, high = keyrate.QBER_DEAD
    blocks = [(*key, columns) for key, columns in _gen1_columns(search, *cell)]

    def live(qber):
        return ~((low < qber) & (qber < high))

    # every kept row is written once, in place, into arrays sized for the cell
    size = sum(np.count_nonzero(live(columns[3])) for _, _, columns in blocks)
    bounds, qber = np.empty((size, 3)), np.empty(size)
    block, table_row, groups = (np.empty(size, dtype=int) for _ in range(3))
    end = 0
    for b, (_, levels, (alpha, beta, gamma, q, qps)) in enumerate(blocks):
        rows = np.flatnonzero(live(q))
        at = slice(end, end + len(rows))
        end = at.stop
        n = qps[rows].astype(float)
        for j, c in enumerate((alpha, beta, gamma)):
            np.multiply(n, c[rows], out=bounds[at, j])
        qber[at], block[at], table_row[at], groups[at] = q[rows], b, rows, levels

    def price(index):
        r = keyrate.secure_fraction_rows(qber[index])
        feasible = r > 0.0
        index, r = index[feasible], r[feasible]

        def key(i):
            scheme, levels, columns = blocks[block[index[i]]]
            row = table_row[index[i]]
            digits = np.unravel_index(row, (search.max_rounds + 1,) * (levels + 1))
            alpha, beta, gamma, _, qps = (column.item(row) for column in columns)
            return (scheme, levels, tuple(map(int, digits))), (levels, (alpha, beta, gamma, r.item(i), qps))

        return bounds[index] / r[:, None], index, key

    return bounds, groups, price


def _gen1_warm(params: HardwareParams, l_tot_km: float, space: SearchSpace) -> None:
    """The qps columns that every table of the search grid shares."""
    s = space.gen1
    for scheme in s.schemes:
        gen1._qps_columns(scheme, gen1._search_grid(s.max_levels, s.max_rounds))


def _gen1_weights(params: HardwareParams, l_tot_km: float, space: SearchSpace) -> list:
    """A level whose link never succeeds (p0 = 0) is infeasible in every scan
    and adds no weights."""
    weights = [params.t0]
    for levels in range(space.gen1.min_levels, space.gen1.max_levels + 1):
        t_signal, p0 = gen1._link(params, levels, l_tot_km)
        if p0 > 0.0:
            weights += [t_signal, t_signal / p0]
    return weights


def _gen2_spacings(s: Gen2Search, l_tot_km: float) -> list[float]:
    return [l_tot_km / k for k in s.segment_counts if l_tot_km / k >= s.min_spacing_km]


def _gen2_codes(family: str, s: Gen2Search) -> tuple:
    return s.codes if family == "gen2_enc" else (None,)


def _gen2_warm(family: str) -> Callable:
    """The availability table of a swap-chain family's grid."""

    def warm(params: HardwareParams, l_tot_km: float, space: SearchSpace) -> None:
        s = space.gen2
        codes, spacings = _gen2_codes(family, s), _gen2_spacings(s, l_tot_km)
        gen2.availability(params, codes, spacings, s.memories, s.gen_rounds)

    return warm


def _gen3_grid(s: Gen3Search) -> tuple:
    return s.min_n, s.max_n, s.min_m, s.max_m, s.max_photons  # as gen3.codes takes it


def _without_t0(params: HardwareParams, l_tot_km: float):
    return params.with_(t0=1.0), l_tot_km


def _gen2_bound(family: str) -> Callable:
    """Terms N*g*L0/x and N*g/x of a swap-chain family, whose cost in a cell
    is stations * qps * gen_rounds * (spacing / c + t0) / x with x the
    t0-free throughput of one array pass (gen2.throughput); x = 0 is
    infeasible at every t0. N = stations * qps and N*g are exact integers,
    cast to float once, as Python multiplies an int by a float; where x > 0
    a float holds N (gen2.throughput), and an N*g past the float range
    reads inf. The pass prices every row at once, so the terms are their
    own bound. A row's inputs are those of gen2.price."""

    def bound(space: SearchSpace, cell):
        params, l_tot_km = cell
        s = space.gen2
        codes = _gen2_codes(family, s)
        spacings = _gen2_spacings(s, l_tot_km)
        x, segments = gen2.throughput(params, codes, spacings, s.memories, s.gen_rounds, l_tot_km)
        n = np.array([[k * 2 * m for m in s.memories] for k in segments], dtype=object)
        n = n.reshape(len(segments), len(s.memories), 1)
        per_cycle, n = (
            np.where((a > sys.float_info.max).astype(bool), math.inf, a).astype(float)
            for a in (n * np.array(s.gen_rounds, dtype=object), n)
        )
        per_km = n * np.multiply.outer(spacings, s.gen_rounds)[:, None, :]
        feasible = x > 0.0
        rows, x = np.argwhere(feasible), x[feasible]
        _, i, m, g = rows.T

        def price(index):
            def key(row):
                c, i, m, g = rows[index[row]]
                head = (codes[c],) if family == "gen2_enc" else ()
                memories, spacing, gen_rounds = s.memories[m], spacings[i], s.gen_rounds[g]
                inputs = (x[index[row]].item(), 2 * memories, segments[i], spacing, gen_rounds)
                return (*head, memories, spacing, gen_rounds), inputs

            return terms[index], index, key

        terms = np.column_stack((per_km[i, m, g] / x, per_cycle[i, m, g] / x))
        return terms, np.zeros(len(x), dtype=int), price

    return bound


def _describe_gen2(config) -> str:
    return (
        f"spacing_km={config.spacing_km!r} memories={config.memories}"
        f" gen_rounds={config.gen_rounds}"
    )


class Family(NamedTuple):
    """One repeater family.

    config_type(*arguments) builds a configuration, evaluate(params, config,
    l_tot_km) prices it and describe(config) is its one-line text. Within a
    group, the cost at a point is a positive multiple of sum(weight * term):
    cell(params, l_tot_km) is the hashable part of the point the terms depend
    on. bound(space, cell) returns (bounds, groups, price) over the rows of
    the grid that may be feasible in the cell, in grid order: a float matrix
    with one row per configuration that is at most its terms, elementwise,
    computed without pricing it; the group of each row, a small
    non-negative int; and price(index), which prices the rows at the
    ascending indices index exactly and returns (terms, kept, key): the
    terms of those that are feasible somewhere in the cell, their indices,
    and key(i), the (grid arguments, inputs) of the i-th. The inputs are
    the t0-free numbers the cost needs, and
    price(params, l_tot_km, *inputs) prices them, as evaluate does after
    computing them for its one configuration. weights(params, l_tot_km,
    space) lists the point's weights. warm(params, l_tot_km, space) fills
    the cached tables that the cell pass reads at every cell of params'
    coupling and attenuation length, whatever its gate error, through the
    accessors the cell pass calls.
    """

    config_type: type
    evaluate: Callable
    price: Callable
    cell: Callable
    bound: Callable
    weights: Callable
    describe: Callable
    warm: Callable

    def terms(self, space: SearchSpace, cell) -> tuple:
        """(terms, groups, key) of every configuration feasible somewhere in
        the cell, in grid order, all of them priced."""
        bounds, groups, price = self.bound(space, cell)
        terms, kept, key = price(np.arange(len(bounds)))
        return terms, groups[kept], key


_gen2_weights = lambda params, l_tot_km, space: (1.0 / params.c_fiber, params.t0)  # noqa: E731

# The one place to add a family: the optimizer, evaluate_config,
# describe_config and the [evaluate] config section all read this table.
FAMILY_TABLE: dict[str, Family] = {
    "gen1": Family(
        Gen1Config,
        gen1.evaluate,
        gen1.price,
        lambda params, l_tot_km: (params.eps_g, params.xi),
        _gen1_bound,
        _gen1_weights,
        lambda c: f"scheme={c.scheme} levels={c.levels} rounds={','.join(map(str, c.rounds))}",
        _gen1_warm,
    ),
    "gen2_noenc": Family(
        Gen2NoEncConfig,
        gen2.evaluate_no_encoding,
        gen2.price,
        _without_t0,
        _gen2_bound("gen2_noenc"),
        _gen2_weights,
        _describe_gen2,
        _gen2_warm("gen2_noenc"),
    ),
    "gen2_enc": Family(
        Gen2EncConfig,
        gen2.evaluate_encoded,
        gen2.price,
        _without_t0,
        _gen2_bound("gen2_enc"),
        _gen2_weights,
        lambda c: f"code=[[{c.code.n_phys},1,{2 * c.code.t + 1}]] " + _describe_gen2(c),
        _gen2_warm("gen2_enc"),
    ),
    "gen3": Family(
        Gen3Config,
        gen3.evaluate,
        gen3.price,
        _without_t0,
        lambda space, cell: gen3.bound(*cell, _gen3_grid(space.gen3), space.gen3.spacings_km),
        lambda params, l_tot_km, space: (params.t0,),
        lambda c: f"n={c.n} m={c.m} spacing_km={c.spacing_km!r}",
        lambda params, l_tot_km, space: gen3.warm(
            params, _gen3_grid(space.gen3), space.gen3.spacings_km, l_tot_km
        ),
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


# Rows per group priced before the bound is applied. The gen3 entry with the
# smallest bound is often its cell's best, and gen1's deepest level holds
# 2 * 3^8 schedules.
_PROBE = 32


def _by_group(groups: np.ndarray) -> list:
    """The ascending indices of each group's rows, one array per group that
    has some."""
    order = np.argsort(groups, kind="stable")
    return [rows for rows in np.split(order, np.cumsum(np.bincount(groups))[:-1]) if len(rows)]


def _probe(bounds: np.ndarray, by_group: list) -> np.ndarray:
    """Ascending indices of the _PROBE rows of each group (_by_group) with
    the smallest first bound."""
    probe = [np.zeros(0, dtype=int)]
    for rows in by_group:
        if len(rows) > _PROBE:
            rows = rows[np.argpartition(bounds[rows, 0], _PROBE)[:_PROBE]]
        probe.append(rows)
    return np.sort(np.concatenate(probe))


def _sorts_before(terms: np.ndarray, incumbents: list) -> bool:
    """True when a row of terms with a non-finite entry sorts strictly
    before one of the incumbents, in _lexmin's order."""
    rows = terms[~np.isfinite(terms).all(axis=1)]
    return len(rows) > 0 and any(_lexmin(np.vstack((j, rows))) != 0 for j in incumbents)


def _bounded(bounds: np.ndarray, groups: np.ndarray, price: Callable) -> tuple:
    """price() of the rows that no incumbent of their group beats by the
    margin in every bound, (1 + margin) * incumbent <= bound, the test
    _undominated applies to terms. The incumbents are the undominated rows
    of a priced probe (_probe) whose terms are finite and whose first term
    is a normal float; such a row sorts strictly before every row it beats.

    _undominated returns the same rows without the others. A row i left out
    is beaten in its terms by a priced incumbent j. Until j is dropped, j
    sorts before i, so i is not the lexicographic minimum; the row that
    drops j beats i too (its terms are non-negative), so i goes with j or
    before it. Only one branch could still see i: a minimum with a
    non-finite term keeps every live row. A row left out is never the
    minimum, so such a minimum is priced and sorts before j; when a priced
    row sorts so, every row of the cell is priced instead."""
    by_group = _by_group(groups)
    probe = _probe(bounds, by_group)
    terms, kept, _ = priced = price(probe)
    if len(probe) == len(bounds):
        return priced
    usable = np.isfinite(terms).all(axis=1) & (terms[:, 0] >= sys.float_info.min)
    beaten, incumbents = np.zeros(len(bounds), dtype=bool), []
    for live in by_group:
        rows = terms[usable & (groups[kept] == groups[live[0]])]
        rows = rows[_undominated(rows)]
        for j in rows[np.argsort(rows[:, 0])]:  # the smallest first: it beats the most
            out = ((1.0 + _MARGIN) * j <= bounds[live]).all(axis=1)
            beaten[live[out]] = True
            live = live[~out]
        incumbents.extend(rows)
    priced = price(np.flatnonzero(~beaten))
    if beaten.any() and _sorts_before(priced[0], incumbents):
        return price(np.arange(len(bounds)))
    return priced


def _cell_pass(family: str, space: SearchSpace, cell, prune: bool = True) -> tuple:
    """(arguments, inputs), in grid order, of the configurations feasible
    somewhere in the cell; pruned, of those that can win at some point of
    the cell: per group, those no other beats by the margin in every term,
    priced only where their bound leaves them a chance (see _bounded)."""
    spec = FAMILY_TABLE[family]
    with np.errstate(over="ignore"):  # a term overflows to inf, as scalar floats do
        if not prune:
            terms, _, key = spec.terms(space, cell)
            return tuple(key(row) for row in range(len(terms)))
        bounds, groups, price = spec.bound(space, cell)
        terms, rows, key = _bounded(bounds, groups, price)
    kept = []
    for at in _by_group(groups[rows]):
        kept += at[_undominated(terms[at])].tolist()
    return tuple(key(row) for row in sorted(kept))


# the pruned pass, once per family, space and cell; the unpruned one is rare
_frontier = lru_cache(maxsize=256)(_cell_pass)


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
    _check_distance("l_tot_km", l_tot_km)

    def priced(rows):
        return ((key, spec.price(params, l_tot_km, *inputs)) for key, inputs in rows)

    cell = spec.cell(params, l_tot_km)
    rows = None
    if _weights_hold(spec.weights(params, l_tot_km, space)):
        rows = _frontier(family, space, cell)
        best = _argmin(priced(rows))
    if rows is None or (rows and not _margin_holds(best)):
        best = _argmin(priced(_cell_pass(family, space, cell, prune=False)))
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


def _map_task(
    params: HardwareParams, t0_values: tuple, l_tot_km: float, space: SearchSpace, cells: list
) -> list[list[dict]]:
    """The inner-axis rows of each (eta_c, eps_g) cell of a chunk."""
    out = []
    for eta_c, eps_g in cells:
        point_base = params.with_(eta_c=eta_c, eps_g=eps_g)
        rows = []
        for t0 in t0_values:
            point = point_base.with_(t0=t0)
            rows.append(report_row(point, l_tot_km, optimize_all(point, l_tot_km, space)))
        out.append(rows)
    return out


# The caches that Family.warm fills. The eps_g-outermost order visits every
# coupling once per gate error, so _warm lets each keep one entry per family
# and coupling of the lattice, lest a cell evict a table a later one reads.
WARMED = ((gen1, "_qps_columns"), (gen2, "_availability"), (gen3, "_layout"))


def _warm(params: HardwareParams, eta_values, l_tot_km: float, space: SearchSpace) -> None:
    """Every family's shared tables (Family.warm) at each coupling, in caches
    that hold them all (maxsize is only a cap; a resized cache starts empty)."""
    count = len(FAMILY_TABLE) * len(eta_values)
    for module, name in WARMED:
        cache = getattr(module, name)
        if cache.cache_info().maxsize < count:
            setattr(module, name, lru_cache(maxsize=count)(cache.__wrapped__))
    for eta_c in eta_values:
        point = params.with_(eta_c=eta_c)
        for family in FAMILY_TABLE.values():
            family.warm(point, l_tot_km, space)


def _error_payload(exc: BaseException) -> bytes:
    """A child's error as it goes up its pipe: the exception itself, or its
    formatted traceback where the exception does not survive pickling."""
    try:
        payload = pickle.dumps((False, exc))
        pickle.loads(payload)
        return payload
    except Exception:
        import traceback  # only a failed map gets here

        return pickle.dumps((False, "".join(traceback.format_exception(exc))))


class _Child:
    """A forked child process that runs task over one chunk of cells and
    sends back its rows, or its error, pickled through a pipe."""

    def __init__(self, task: Callable, chunk: list):
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(read)
                try:
                    payload, status = pickle.dumps((True, task(chunk))), 0
                except BaseException as exc:  # interrupts too: the parent raises it
                    payload = _error_payload(exc)
                with open(write, "wb") as pipe:
                    pipe.write(payload)
            finally:
                # no exit handlers and no flush of the buffers the parent owns
                os._exit(status)
        os.close(write)
        self.pipe = open(read, "rb")

    def rows(self) -> list[list[dict]]:
        """The child's rows, once it has exited; its error is raised here."""
        payload = self.pipe.read()
        self.pipe.close()
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = 0
        try:
            ok, result = pickle.loads(payload)
        except (EOFError, pickle.UnpicklingError):  # nothing, or a part, was sent
            raise RuntimeError(f"a region-map worker ended without a result (exit code {status})") from None
        if ok:
            return result
        if isinstance(result, str):
            raise RuntimeError(f"a region-map worker failed:\n{result}")
        raise result

    def kill(self) -> None:
        """Stop the child, unless already reaped, and reap it."""
        self.pipe.close()
        if self.pid:
            import signal  # only a failed map gets here

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0


# Workers fork on Linux only: a child forked on macOS may crash in system
# libraries, and a spawned child would import qrcost afresh and rebuild every
# table the parent warmed
_FORKS = sys.platform.startswith("linux")


def _forked(task: Callable, chunks: list) -> list[list[list[dict]]]:
    """task of every chunk, in chunk order: a forked child runs each chunk
    but the last, which this process runs meanwhile. Every child is reaped
    before this returns or raises."""
    children = []
    try:
        for chunk in chunks[:-1]:
            children.append(_Child(task, chunk))
        last = task(chunks[-1])
        return [child.rows() for child in children] + [last]
    finally:
        for child in children:
            child.kill()


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
    worker builds the gen1 schedule tables of its own eps_g values only;
    eta_c-outermost chunks would instead double each worker's gen1 tables
    and put every live eta_c's gen3 work in one worker. What a coupling's
    cells share whatever their gate error (Family.warm: the gen3 vote
    layouts, the gen2 availability tables, the gen1 qps columns) is built
    first, here, at any worker count, in caches that keep every coupling's
    tables (WARMED). This process then forks one child per chunk but the
    last, runs the last chunk itself, and collects each child's rows
    through a pipe; the children inherit the warmed tables. A chunk that
    raises, in a child or here, makes this raise, after every child has
    been stopped and reaped. Workers fork on Linux only; elsewhere the
    lattice is one chunk, as with one worker. Rows come back in lattice
    order (eta outermost, t0 innermost) regardless of the worker count.
    """
    cells = [(i, j) for j in range(len(eps_values)) for i in range(len(eta_values))]
    workers = max(threads, 1) if _FORKS else 1
    size = max(1, math.ceil(len(cells) / workers))
    chunks = [
        [(eta_values[i], eps_values[j]) for i, j in cells[k:k + size]]
        for k in range(0, len(cells), size)
    ] or [[]]  # an empty lattice is one empty chunk
    _warm(params, eta_values, l_tot_km, space)
    task = partial(_map_task, params, tuple(t0_values), l_tot_km, space)
    by_cell = dict(zip(cells, itertools.chain.from_iterable(_forked(task, chunks))))
    return [
        row
        for i in range(len(eta_values))
        for j in range(len(eps_values))
        for row in by_cell[i, j]
    ]
