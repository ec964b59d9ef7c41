"""Architecture search: best configuration per repeater family, global winner
per parameter point, and sweep/region-map datasets.

Every search returns what an exhaustive scan of its discrete grid returns:
the first configuration, in a fixed lexicographic order, with the strictly
smallest cost, so ties break toward the earlier configuration. The search
here works for any family of FAMILY_TABLE; each family's cell pass, which
prices its grid and names what makes a configuration infeasible, lives in
its own module (gen1.bound, gen2.bound, gen3.bound). Each search prices
only the configurations that can still win, and the pruning is exact for
these reasons:

- Within a group, a family's cost is a positive multiple of a non-negative
  weighted sum of per-configuration terms: the terms depend only on a cell
  of the point, the weights on the rest (each family's bound names its
  terms). A configuration beaten in every term by a relative margin of
  1e-9 costs more at every point of the cell.
- The margin is far above float rounding, so the pruned configuration also
  loses in floating point. The survivors keep their enumeration order and go
  through the same first-strict-minimum rule, so ties resolve as before.
- The rounding bound fails only where the arithmetic over- or underflows: a
  weight below the smallest normal float, or a winner whose cost is
  subnormal or near overflow. There every configuration of the cell pass is
  priced, unpruned. A weight that overflows to inf needs no full scan: it
  makes every configuration of its group infeasible in either scan.
- A cell pass prices only the rows that can survive (_cell_pass). Each
  family bounds its terms from below over the whole grid without pricing a
  row. A row whose bound a priced, finite incumbent of its group beats by
  the margin would lose to it in _undominated, so it is never priced.

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
    """Ascending indices of the rows that no finite other row beats by the
    margin in every column: row j beats row i when (1 + margin) * v[j] <=
    v[i] elementwise. Of two finite rows that beat each other (equal rows of
    zeros and tiny subnormals, which the margin leaves as they are), the
    first is kept. Columns must be non-negative. Any cost that is a
    non-negative weighted sum of the columns then prices a dropped row
    strictly above a kept one."""
    v = np.asarray(vectors, dtype=float)
    alive = np.arange(len(v))
    kept: list[int] = []
    while alive.size:
        rows = v[alive]
        # the lexicographic minimum can only be beaten by an equal row, which
        # comes after it; a non-finite one is kept and beats nothing
        best = alive[_lexmin(rows)]
        kept.append(int(best))
        beaten = (v[best] * (1.0 + _MARGIN) <= rows).all(axis=1) & np.isfinite(v[best]).all()
        alive = alive[~beaten & (alive != best)]
    return sorted(kept)


def _gen1_search(s: Gen1Search) -> tuple:
    return s.schemes, s.min_levels, s.max_levels, s.max_rounds  # as gen1.bound takes it


def _gen1_candidates(search: Gen1Search, eps_g: float, xi: float):
    """(scheme, levels, rounds, summary) of every schedule, in enumeration
    order; the summary holds the secure fraction r in place of the table's
    Q."""
    return gen1.schedules(eps_g, xi, _gen1_search(search))


def _gen3_grid(s: Gen3Search) -> tuple:
    return s.min_n, s.max_n, s.min_m, s.max_m, s.max_photons  # as gen3.codes takes it


def _without_t0(params: HardwareParams, l_tot_km: float):
    return params.with_(t0=1.0), l_tot_km


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
    accessors the cell pass calls. bound, weights and warm are the family
    module's functions behind adapters that read its grid off the space.
    """

    config_type: type
    evaluate: Callable
    price: Callable
    cell: Callable
    bound: Callable
    weights: Callable
    describe: Callable
    warm: Callable


def _swap_chain(config_type: type, evaluate: Callable, describe: Callable, encoded: bool) -> Family:
    """A swap-chain family. Its grid at a distance is (codes, spacings_km,
    memories, gen_rounds), as gen2.bound takes it, with the spacings L_tot/k
    that the minimum spacing leaves; its cell is the point without t0."""

    def grid(space: SearchSpace, l_tot_km: float) -> tuple:
        s = space.gen2
        spacings = [l_tot_km / k for k in s.segment_counts if l_tot_km / k >= s.min_spacing_km]
        return s.codes if encoded else (None,), spacings, s.memories, s.gen_rounds

    return Family(
        config_type,
        evaluate,
        gen2.price,
        _without_t0,
        lambda space, cell: gen2.bound(*cell, *grid(space, cell[1])),
        lambda params, l_tot_km, space: gen2.weights(params),
        describe,
        lambda params, l_tot_km, space: gen2.availability(params, *grid(space, l_tot_km)),
    )


# The one place to add a family: the optimizer, evaluate_config,
# describe_config and the [evaluate] config section all read this table.
FAMILY_TABLE: dict[str, Family] = {
    "gen1": Family(
        Gen1Config,
        gen1.evaluate,
        gen1.price,
        lambda params, l_tot_km: (params.eps_g, params.xi),
        lambda space, cell: gen1.bound(*cell, _gen1_search(space.gen1)),
        lambda params, l_tot_km, space: gen1.weights(params, l_tot_km, _gen1_search(space.gen1)),
        lambda c: f"scheme={c.scheme} levels={c.levels} rounds={','.join(map(str, c.rounds))}",
        lambda params, l_tot_km, space: gen1.warm(_gen1_search(space.gen1)),
    ),
    "gen2_noenc": _swap_chain(Gen2NoEncConfig, gen2.evaluate_no_encoding, _describe_gen2, False),
    "gen2_enc": _swap_chain(
        Gen2EncConfig,
        gen2.evaluate_encoded,
        lambda c: f"code=[[{c.code.n_phys},1,{2 * c.code.t + 1}]] " + _describe_gen2(c),
        True,
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


def _cell_pass(family: str, space: SearchSpace, cell, prune: bool = True) -> tuple:
    """(arguments, inputs), in grid order, of the configurations feasible
    somewhere in the cell; pruned, of those that can win at some point of
    the cell: per group, those _undominated keeps of the terms of every row.

    The pruned pass prices a probe (_probe) first, unless it covers the
    cell. The incumbents of a group are the undominated rows of its probe
    whose terms are finite and whose first term is a normal float. A row
    that an incumbent beats by the margin in every bound, (1 + margin) *
    incumbent <= bound, is dropped unpriced; the rest are priced. This
    keeps what pricing every row keeps. A dropped row is beaten, in its
    terms, by a finite incumbent, and a row it beats is beaten by that
    incumbent too: the margin composes, (1 + margin) * incumbent <= dropped
    <= (1 + margin) * dropped <= row, as terms are non-negative. No two
    incumbents beat each other, nor does one beat its own bound, since a
    normal first term grows under the margin; so every incumbent is priced.
    The priced rows' frontier is therefore that of every row."""
    with np.errstate(over="ignore"):  # a term overflows to inf, as scalar floats do
        bounds, groups, price = FAMILY_TABLE[family].bound(space, cell)
        if not prune:
            _, kept, key = price(np.arange(len(bounds)))
            return tuple(key(row) for row in range(len(kept)))
        by_group = _by_group(groups)
        probe = _probe(bounds, by_group)
        terms, rows, key = price(probe)
        if len(probe) < len(bounds):
            usable = np.isfinite(terms).all(axis=1) & (terms[:, 0] >= sys.float_info.min)
            beaten = np.zeros(len(bounds), dtype=bool)
            for live in by_group:
                incumbents = terms[usable & (groups[rows] == groups[live[0]])]
                incumbents = incumbents[_undominated(incumbents)]
                for j in incumbents[np.argsort(incumbents[:, 0])]:  # the smallest first: it beats the most
                    out = ((1.0 + _MARGIN) * j <= bounds[live]).all(axis=1)
                    beaten[live[out]] = True
                    live = live[~out]
            terms, rows, key = price(np.flatnonzero(~beaten))
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


def _margin_holds(weights: Iterable[float], best: Optional[tuple[Any, CostResult]]) -> bool:
    """True when the pruned winner's float cost is accurate enough for the
    margin argument: no weight of the point is subnormal, zero or NaN, so
    each evaluator computes a cost within a few ulps of the weighted sum of
    its terms, and the winner's rate neither over- nor underflows (see
    _COST_CEILING). An infinite weight makes its whole group infeasible in
    either scan."""
    result = best[1] if best is not None else _NO_RESULT
    return (
        all(w >= sys.float_info.min for w in weights)
        and sys.float_info.min <= result.cost_coeff
        and result.cost <= _COST_CEILING
    )


def optimize_family(
    family: str,
    params: HardwareParams,
    l_tot_km: float,
    space: SearchSpace = SearchSpace(),
) -> Optional[Candidate]:
    """Cheapest configuration of one family, equal to the exhaustive scan's;
    None when nothing is feasible. The pruned frontier does not depend on
    the weights, so it is read first; every row of the cell pass is priced
    where the margin argument fails."""
    spec = FAMILY_TABLE.get(family)
    if spec is None:
        raise ValueError(f"unknown family {family!r}")
    _check_distance("l_tot_km", l_tot_km)

    def priced(rows):
        return ((key, spec.price(params, l_tot_km, *inputs)) for key, inputs in rows)

    cell = spec.cell(params, l_tot_km)
    rows = _frontier(family, space, cell)
    best = _argmin(priced(rows))
    if rows and not _margin_holds(spec.weights(params, l_tot_km, space), best):
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
