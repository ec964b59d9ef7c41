import ast
import functools
import itertools
import math
import os
import random
import re
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import caches
import search_reference
import station_reference
from search_reference import reference_optimum

from qrcost import config, core, gen1, gen2, gen3, optimize
from qrcost.cli import main
from qrcost.core import (
    ATTENUATION_KM,
    CSS_CATALOG,
    FIBER_SPEED_KM_S,
    GOLAY,
    MAX_GATE_ERROR,
    CostResult,
    Gen1Config,
    Gen2EncConfig,
    Gen2NoEncConfig,
    Gen3Config,
    HardwareParams,
)
from qrcost.optimize import (
    FAMILIES,
    FAMILY_TABLE,
    Candidate,
    Gen1Search,
    Gen2Search,
    Gen3Search,
    OptimumReport,
    SearchSpace,
    describe_config,
    evaluate_config,
    optimize_all,
    optimize_family,
    region_map,
    report_row,
    sweep,
)
from qrcost.oracles import mc_gen1_waiting_time

# small space keeping grid-shaped tests fast
_SMALL = SearchSpace(
    gen1=Gen1Search(max_levels=3, max_rounds=1),
    gen2=Gen2Search(segment_counts=(4, 16, 64), memories=(4, 16), gen_rounds=(1, 2)),
    gen3=Gen3Search(spacings_km=(1.0, 2.0), max_n=8, max_m=8),
)


def test_winner_low_loss_low_error_is_one_way_code():
    params = HardwareParams(eta_c=1.0, eps_g=1e-3, t0=1e-6)
    report = optimize_all(params, 1000.0)
    assert report.winner.family == "gen3"
    assert math.isclose(report.winner.result.cost_coeff, 6.342536e-05, rel_tol=1e-4)


def test_winner_high_loss_high_error_is_purify_and_swap():
    params = HardwareParams(eta_c=0.3, eps_g=2e-2, t0=1e-6)
    report = optimize_all(params, 1000.0)
    assert report.winner.family == "gen1"
    assert math.isclose(report.winner.result.cost_coeff, 26.48613, rel_tol=1e-4)


def test_winner_mid_loss_tiny_error_is_bare_chain():
    params = HardwareParams(eta_c=0.5, eps_g=1e-4, t0=1e-5)
    report = optimize_all(params, 1000.0)
    assert report.winner.family == "gen2_noenc"
    assert math.isclose(report.winner.result.cost_coeff, 1.5572655e-3, rel_tol=1e-4)


def test_winner_matches_per_family_minimum():
    params = HardwareParams(eta_c=0.8, eps_g=3e-3, t0=1e-6)
    report = optimize_all(params, 1000.0, _SMALL)
    best = min(
        (c for c in report.per_family.values() if c is not None),
        key=lambda c: c.result.cost_coeff,
    )
    assert report.winner.result.cost_coeff == best.result.cost_coeff
    assert set(report.per_family) == set(FAMILIES)


def test_winner_round_trips_through_evaluate():
    params = HardwareParams(eta_c=0.8, eps_g=3e-3, t0=1e-6)
    report = optimize_all(params, 1000.0, _SMALL)
    for cand in report.per_family.values():
        if cand is None:
            continue
        res = evaluate_config(params, cand.config, 1000.0)
        assert math.isclose(res.cost_coeff, cand.result.cost_coeff, rel_tol=1e-12)


def test_one_way_family_infeasible_at_half_coupling():
    # transmission can never exceed eta_c, so mu > 1/2 is unreachable
    params = HardwareParams(eta_c=0.5, eps_g=1e-4, t0=1e-6)
    assert optimize_family("gen3", params, 1000.0) is None
    with pytest.raises(ValueError):
        optimize_family("gen5", params, 1000.0)


def test_singleton_grids_reduce_to_plain_evaluation():
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    space = SearchSpace(gen3=Gen3Search(spacings_km=(1.0,), min_n=4, max_n=4, min_m=6, max_m=6))
    cand = optimize_family("gen3", params, 100.0, space)
    assert cand.config == Gen3Config(4, 6, 1.0)
    direct = evaluate_config(params, cand.config, 100.0)
    assert math.isclose(cand.result.cost_coeff, direct.cost_coeff, rel_tol=1e-12)


def test_larger_grid_never_loses_to_smaller():
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    small = optimize_family(
        "gen3", params, 500.0, SearchSpace(gen3=Gen3Search(spacings_km=(1.0,)))
    )
    large = optimize_family(
        "gen3", params, 500.0, SearchSpace(gen3=Gen3Search(spacings_km=(0.5, 1.0, 1.5)))
    )
    assert large.result.cost_coeff <= small.result.cost_coeff


def test_describe_config_strings():
    assert describe_config(Gen1Config("deutsch", 2, (1, 0, 1))) == "scheme=deutsch levels=2 rounds=1,0,1"
    assert describe_config(Gen2NoEncConfig(16, 12.5, 2)) == "spacing_km=12.5 memories=16 gen_rounds=2"
    assert describe_config(Gen2EncConfig(GOLAY, 8, 10.0, 1)) == "code=[[23,1,7]] spacing_km=10.0 memories=8 gen_rounds=1"
    assert describe_config(Gen3Config(5, 5, 1.0)) == "n=5 m=5 spacing_km=1.0"
    with pytest.raises(TypeError):
        describe_config("junk")
    with pytest.raises(TypeError):
        evaluate_config(HardwareParams(), "junk", 100.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_one_configuration_readers_emit_no_numpy_warnings(family, monkeypatch):
    # evaluate's configuration of each family, at the couplings the config
    # tests read at 1,000 km and at a 1e-300 km spacing near both ends of
    # the float range: any overflow goes to inf quietly, as in the search
    monkeypatch.delenv("QRCOST_CONFIG", raising=False)
    points = [(f"hardware.eta_c={eta_c}", "evaluate.spacing_km=1", "hardware.l_tot=1000")
              for eta_c in (0.6, 0.7)]
    points += [("evaluate.spacing_km=1e-300", f"hardware.l_tot={l_tot}") for l_tot in (1, 1e10)]
    for point in points:
        cfg = config.load_config(None, (f"evaluate.family={family}", *point))
        params, (_, shape) = config.hardware(cfg), config.protocol(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate_config(params, shape, config.total_distance(cfg))


def test_report_row_shapes():
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    report = optimize_all(params, 1000.0, _SMALL)
    row = report_row(params, 1000.0, report)
    assert row["eta_c"] == 0.9 and row["l_tot_km"] == 1000.0
    assert row["winner"] in FAMILIES and row["feasible"]
    assert row["cost_coeff"] == min(row[f"cost_coeff_{f}"] for f in FAMILIES)
    empty = OptimumReport({f: None for f in FAMILIES}, None)
    row = report_row(params, 1000.0, empty)
    assert row["winner"] == "none" and not row["feasible"]
    assert row["cost_coeff"] == math.inf and row["config"] == ""


def test_nan_cost_never_wins():
    # a NaN gate time, which once priced every configuration as a feasible
    # NaN cost, no longer builds; a feasible NaN cost still never wins,
    # wherever it stands among the results
    with pytest.raises(ValueError, match="t0 must be finite and > 0, got nan"):
        HardwareParams(eta_c=0.9, eps_g=1e-3, t0=float("nan"))
    nan, cheap = CostResult(1.0, 2, 3, math.nan, math.nan), CostResult(1.0, 2, 3, 6.0, 6e-3)
    assert optimize._argmin([("a", nan)]) is None
    assert optimize._argmin([("a", nan), ("b", cheap)]) == ("b", cheap)
    assert optimize._argmin([("b", cheap), ("a", nan), ("c", nan)]) == ("b", cheap)
    with pytest.raises(ValueError):
        optimize_family("gen5", HardwareParams(), 1000.0, _SMALL)


def test_nan_gate_time_or_fiber_speed_is_infeasible():
    # a NaN gate time or fiber speed is rejected when the point is built; a
    # NaN rate still fails rate > 0 and reads as infeasible, not as a
    # feasible NaN cost
    base = HardwareParams(eta_c=0.95, eps_g=1e-4)
    for name in ("t0", "c_fiber"):
        want = re.escape(f"{name} must be finite and > 0, got nan")
        with pytest.raises(ValueError, match=want):
            base.with_(**{name: math.nan})
        with pytest.raises(ValueError, match=want):
            HardwareParams(eta_c=0.95, eps_g=1e-4, **{name: math.nan})
    result = CostResult.from_rate(math.nan, 4, 10, 1000.0)
    assert result == CostResult.infeasible(4, 10) and result.cost_coeff == math.inf


def test_sweep_axes():
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    rows = sweep("eps_g", (1e-4, 1e-3, 1e-2), params, 200.0, _SMALL)
    assert [r["eps_g"] for r in rows] == [1e-4, 1e-3, 1e-2]
    assert all(r["eta_c"] == 0.9 and r["l_tot_km"] == 200.0 for r in rows)
    rows = sweep("l_tot", (200.0, 400.0), params, 0.0, _SMALL)
    assert [r["l_tot_km"] for r in rows] == [200.0, 400.0]
    with pytest.raises(ValueError):
        sweep("spacing", (1.0,), params, 200.0, _SMALL)


def test_explicit_xi_survives_with_():
    explicit = HardwareParams(eps_g=1e-3, xi=2.5e-4)
    assert explicit.with_(eps_g=2e-3).xi == 2.5e-4
    assert explicit.with_(t0=1e-5).with_(eps_g=2e-3).xi == 2.5e-4
    coupled = HardwareParams(eps_g=1e-3)
    assert coupled.with_(t0=1e-5).with_(eps_g=2e-3).xi == 5e-4
    assert coupled.with_(xi=1e-4).with_(eps_g=2e-3).xi == 1e-4
    # the coupling is no field: equal parameters compare, hash and print alike
    assert coupled == explicit and hash(coupled) == hash(explicit)
    assert asdict(coupled) == asdict(explicit) and repr(coupled) == repr(explicit)


def test_region_map_lattice_order_and_threads():
    etas = (0.6, 0.9)
    epss = (1e-3, 5e-3)
    t0s = (1e-6, 1e-5)
    rows = region_map(etas, epss, t0s, 200.0, _SMALL)
    assert len(rows) == 8
    want = [(e, g, t) for e in etas for g in epss for t in t0s]
    assert [(r["eta_c"], r["eps_g"], r["t0"]) for r in rows] == want
    threaded = region_map(etas, epss, t0s, 200.0, _SMALL, threads=2)
    assert threaded == rows


def test_bare_chain_region_shrinks_with_distance():
    # multiplexing without correction tolerates fewer swaps over longer spans
    etas = (0.5, 0.7, 0.9, 1.0)
    epss = (1e-4, 6.694e-4, 2.378e-3, 8.446e-3)
    t0s = (1e-6, 1e-5)
    counts = {}
    for l_tot in (1e3, 1e4):
        rows = region_map(etas, epss, t0s, l_tot)
        counts[l_tot] = sum(r["winner"] == "gen2_noenc" for r in rows)
    assert counts[1e4] < counts[1e3]


def test_gate_error_never_flips_purify_chain_to_one_way():
    # Raising only eps_g moves winners toward purify-and-swap, never back to
    # the loss-tolerant one-way code. Checked away from perfect coupling; at
    # eta_c = 1.0 the one-way family stays optimal deep into the high-error
    # corner (see README, known limitations).
    eps_grid = tuple(float(e) for e in np.geomspace(1e-4, 3e-2, 10))
    for eta in (0.5, 0.8, 0.9):
        for t0 in (1e-7, 1e-6, 1e-5, 1e-4):
            params = HardwareParams(eta_c=eta, eps_g=1e-3, t0=t0)
            rows = sweep("eps_g", eps_grid, params, 1000.0)
            seen_gen1 = False
            for row in rows:
                seen_gen1 = seen_gen1 or row["winner"] == "gen1"
                assert not (seen_gen1 and row["winner"] == "gen3"), (eta, t0, row)


_ETAS = (0.1, 0.5, 0.7, 1.0)
_EPSS = (0.0, 1e-4, 1e-3, 1e-2, 0.04)
_T0S = (5e-324, 1e-310, 1e-9, 1e-6, 1e-3, 1.0)
_LENGTHS = (10.0, 1000.0, 10000.0, 28000.0)
# explicit measurement and storage errors, off the eps_g / 4 coupling
_EXPLICIT = HardwareParams(eta_c=0.8, eps_g=2e-3, xi=1e-4, eps_d=1e-3, t0=1e-6)


def _assert_matches_reference(params, l_tot_km, space):
    for family in FAMILIES:
        got = optimize_family(family, params, l_tot_km, space)
        assert got == reference_optimum(family, params, l_tot_km, space), (family, params, l_tot_km)


def test_pruned_search_equals_full_scan_small_space():
    # at t0 >= 1e300 the rates of some survivors underflow while pruned
    # configurations with a larger x stay finite: the full scan must take over
    for eta, eps, t0, l_tot in itertools.product(_ETAS, _EPSS, _T0S + (1e300, 1e303), _LENGTHS):
        _assert_matches_reference(HardwareParams(eta_c=eta, eps_g=eps, t0=t0), l_tot, _SMALL)
    for l_tot in _LENGTHS:
        _assert_matches_reference(_EXPLICIT, l_tot, _SMALL)
    # c = 1.7e308 km/s makes 1/c and short-link signal times subnormal,
    # l_att = 1e-3 km leaves no link that ever succeeds, l_att = 1e18 km no loss
    fibers = list(itertools.product((FIBER_SPEED_KM_S, 1.0, 1.7e308), (ATTENUATION_KM, 1e-3, 1e18)))
    for (c, l_att), eta, eps, t0, l_tot in itertools.product(
        fibers[1:], (0.5, 1.0), (0.0, 1e-3, 0.04), _T0S + (1e300, 1e303), _LENGTHS
    ):
        params = HardwareParams(eta_c=eta, eps_g=eps, t0=t0, l_att=l_att, c_fiber=c)
        _assert_matches_reference(params, l_tot, _SMALL)


def test_pruned_search_equals_full_scan_default_space():
    # at a subnormal gate time x / t0 overflows for some or all gen3
    # configurations; the optimizer must then scan in full, as the reference does
    pairs = ((5e-324, 1000.0), (1e-6, 28000.0), (1e-310, 10000.0), (1.0, 10.0))
    for k, (eta, eps) in enumerate(itertools.product(_ETAS, _EPSS)):
        for t0, l_tot in (pairs[k % 4], pairs[(k + 1) % 4]):
            _assert_matches_reference(HardwareParams(eta_c=eta, eps_g=eps, t0=t0), l_tot, SearchSpace())
    for t0 in (1e-310, 1e-6):
        _assert_matches_reference(_EXPLICIT.with_(t0=t0), 1000.0, SearchSpace())


# (l_att, l_tot) where a gen1 level's T_signal/p0 overflows to inf, at any
# eta_c and eps_g here: that level is infeasible in either scan, so the pruned
# scan goes on
_OVERFLOWED_WEIGHT = [(10.0, 14500.0)] + [
    (l_att, l_tot) for l_att in (10.0, 20.0) for l_tot in (28500.0, 29000.0, 29500.0)
]
# (l_att, l_tot) where, at eps_g = 0.04, every deep schedule has a zero key
# rate and the level-1 winner costs more than 2^1000: _margin_holds fails and
# gen1 is scanned in full
_MARGIN_FAILS = [(10.0, 1000.0 * k) for k in (27.5, 28, 28.5, 29, 29.5, 30)]


@pytest.mark.parametrize("eta, eps", [(0.05, 1e-3), (0.05, 0.04), (1.0, 1e-3), (1.0, 0.04)])
def test_gen1_float_edges_equal_full_scan(eta, eps):
    space = SearchSpace()
    points = set(_OVERFLOWED_WEIGHT) | (set(_MARGIN_FAILS) if eps == 0.04 else set())
    for l_att, l_tot in sorted(points):
        params = HardwareParams(eta_c=eta, eps_g=eps, l_att=l_att)
        if (l_att, l_tot) in _OVERFLOWED_WEIGHT:
            assert math.inf in FAMILY_TABLE["gen1"].weights(params, l_tot, space)
        got = optimize_family("gen1", params, l_tot, space)
        assert got == reference_optimum("gen1", params, l_tot, space), (params, l_tot)


def _all_terms(family, space, cell):
    """(terms, groups, key) of every configuration feasible somewhere in the
    cell, in grid order, all of them priced by the family's cell pass."""
    with np.errstate(over="ignore"):
        bounds, groups, price = FAMILY_TABLE[family].bound(space, cell)
        terms, kept, key = price(np.arange(len(bounds)))
    return terms, groups[kept], key


def _unbounded_pass(family, space, cell):
    """The pruned cell pass with every row priced: _undominated per group
    over the terms of every configuration feasible in the cell."""
    terms, groups, key = _all_terms(family, space, cell)
    kept = []
    for group in set(groups.tolist()):
        rows = np.flatnonzero(groups == group)
        kept += rows[optimize._undominated(terms[rows])].tolist()
    return tuple(key(row) for row in sorted(kept))


def _assert_bound_is_exact(family, space, cell):
    # every bound is at most its row's terms, and the bounded pass keeps the
    # rows the unbounded one keeps
    with np.errstate(over="ignore"):
        bounds, _, price = FAMILY_TABLE[family].bound(space, cell)
        terms, rows, _ = price(np.arange(len(bounds)))
    assert (bounds[rows] <= terms).all(), (family, cell)
    assert repr(optimize._cell_pass(family, space, cell)) == repr(_unbounded_pass(family, space, cell)), (
        family, cell)


# hardware points of the full-scan equivalence tests: lossless fiber, a link
# that never succeeds, the fastest fiber, and no gate error at all
_BOUND_POINTS = [
    HardwareParams(eta_c=eta, eps_g=eps, l_att=l_att, c_fiber=c)
    for (c, l_att) in ((FIBER_SPEED_KM_S, ATTENUATION_KM), (1.0, 1e-3), (1.7e308, 1e18))
    for eta in (0.5, 1.0)
    for eps in _EPSS
] + [_EXPLICIT]


@pytest.mark.parametrize("family", FAMILIES)
def test_bounded_pass_equals_the_unbounded_one(family):
    spec = FAMILY_TABLE[family]
    for params, l_tot in itertools.product(_BOUND_POINTS, _LENGTHS):
        _assert_bound_is_exact(family, _SMALL, spec.cell(params, l_tot))
    # the default grids, where each group holds far more rows than the probe
    for eta, eps, l_tot in itertools.product((0.7, 1.0), (0.0, 1e-3, 1e-2), (1000.0, 10000.0)):
        _assert_bound_is_exact(family, SearchSpace(), spec.cell(HardwareParams(eta_c=eta, eps_g=eps), l_tot))
    # gen3 station counts up to 1.8e308, on a lossless fiber, where x = 1
    # at no gate error; N = stations * qps must stay a float there
    for eta, eps, l_tot in ((1.0, 0.0, 1e300), (1.0, 1e-3, 1e300), (1.0, 1e-3, sys.float_info.max),
                            (0.9, 0.0, sys.float_info.max)):
        params = HardwareParams(eta_c=eta, eps_g=eps, l_att=1e18)
        _assert_bound_is_exact(family, _SMALL, spec.cell(params, l_tot))


def _undominated_by_pairs(rows):
    """_undominated's rule, pair by pair: row i goes when a finite row j != i
    beats it by the margin in every column, unless i is finite, beats j too,
    and comes first."""
    v = np.array(rows, dtype=float)
    finite = np.isfinite(v).all(axis=1)

    def beats(j, i):
        return finite[j] and ((1.0 + optimize._MARGIN) * v[j] <= v[i]).all()

    return [i for i in range(len(v))
            if not any(j != i and beats(j, i) and not (beats(i, j) and i < j) for j in range(len(v)))]


@settings(max_examples=300, deadline=None)
@example([[1.0, math.inf], [2.0, 2.0], [3.0, 3.0]])  # an infinite minimum beats nothing
@example([[0.0, 5e-324], [0.0, 5e-324], [1.0, 1.0]])  # equal rows beat each other: the first stays
@given(st.integers(1, 3).flatmap(lambda width: st.lists(
    st.lists(st.sampled_from((0.0, 5e-324, 1.0, 1.0 + 2e-9, 2.0, 1e300, 1.7e308, math.inf, math.nan)),
             min_size=width, max_size=width),
    min_size=1, max_size=40,
)))
def test_undominated_keeps_the_rows_no_finite_row_beats(rows):
    assert optimize._undominated(rows) == _undominated_by_pairs(rows)


def _crafted(monkeypatch, terms, bounds, groups):
    """gen1's family with its bound replaced by fixed rows: row i has terms
    terms[i], bound bounds[i] and group groups[i], and prices to itself."""
    terms, bounds, groups = (np.array(a) for a in (terms, bounds, groups))

    def bound(space, cell):
        return bounds, groups, lambda index: (terms[index], index, lambda i: int(index[i]))

    monkeypatch.setitem(FAMILY_TABLE, "gen1", FAMILY_TABLE["gen1"]._replace(bound=bound))


_PROBED = optimize._PROBE + 8  # rows in a group of the crafted examples


@settings(max_examples=200, deadline=None)
@example([[2.0]] * _PROBED + [[1.0]], [1.0] * (_PROBED + 1), [0] * (_PROBED + 1))  # rows to drop
@example([[math.inf]] * _PROBED, [1.0] * _PROBED, [0] * _PROBED)  # no finite incumbent
@example([[5e-324]] * _PROBED, [1.0] * _PROBED, [0] * _PROBED)  # nor a subnormal one
# a priced row with an infinite term sorts first, and beats nothing
@example([[1.0, math.inf], [2.0, 2.0]] + [[3.0, 3.0]] * _PROBED,
         [1.0] * (_PROBED + 2), [0] * (_PROBED + 2))
@given(
    st.integers(1, 3).flatmap(lambda width: st.lists(
        st.lists(st.sampled_from((0.0, 5e-324, 1.0, 1.0 + 2e-9, 2.0, 1e300, 1.7e308, math.inf)),
                 min_size=width, max_size=width),
        min_size=1, max_size=90,
    )),
    st.lists(st.sampled_from((1.0, 1.0, 0.5, 0.0)), min_size=90, max_size=90),
    st.lists(st.integers(0, 1), min_size=90, max_size=90),
)
def test_bounded_rule_equals_the_unbounded_one_on_crafted_rows(rows, scale, groups):
    # any non-negative terms, with bounds at most them; the fallbacks and
    # guards keep the result of pricing every row
    terms = np.array(rows)
    factor = np.array(scale[:len(rows)])[:, None]
    with np.errstate(invalid="ignore"):  # inf * 0.0, not taken
        bounds = np.where(factor == 0.0, 0.0, terms * factor)
    with pytest.MonkeyPatch.context() as patch:
        _crafted(patch, terms, bounds, groups[:len(rows)])
        cell = (0.0, 0.0)
        space = SearchSpace()
        assert optimize._cell_pass("gen1", space, cell) == _unbounded_pass("gen1", space, cell)
        # the unpruned pass prices and returns every row
        assert optimize._cell_pass("gen1", space, cell, prune=False) == tuple(range(len(rows)))


def _libm_elements(monkeypatch, capsys, argv) -> int:
    """The elements that core.libm computes in one cold in-process job."""
    monkeypatch.delenv("QRCOST_CONFIG", raising=False)
    libm, count = core.libm, [0]

    def counted(fn, *args):
        out = libm(fn, *args)
        count[0] += np.size(out)
        return out

    for name, module in list(sys.modules.items()):
        if name.startswith("qrcost.") and getattr(module, "libm", None) is libm:
            monkeypatch.setattr(module, "libm", counted)
    caches.clear_all()
    assert main(argv) == 0
    capsys.readouterr()
    return count[0]


def test_cold_sweep_computes_few_libm_elements(monkeypatch, capsys):
    # a work guard that needs no timing: the ten cold eps_g cells of a
    # default sweep, with every secure fraction and station tail that the
    # bounds rule out left uncomputed and one lgamma per distinct count of
    # a pmf call: 91,927 elements (881,188 before the bounds, 117,936 with
    # three lgamma per pmf row); a gen3 price that decodes every entry, or
    # reads the whole cached station batch, each time passes the limit
    argv = ["sweep", "--set", "sweep.axis=eps_g", "--set", "sweep.values=log:1e-4:3e-2:10"]
    count = _libm_elements(monkeypatch, capsys, argv)
    assert 0 < count < 150_000, count


def test_region_map_computes_few_libm_elements(monkeypatch, capsys):
    # the same guard on a 4 x 4 region map at one worker: 102,940 elements
    # (534,687 before the bounds, 141,634 with three lgamma per pmf row); a
    # gen3 pass that prunes nothing, or whose price decodes every entry or
    # reads the whole cached station batch each time, passes the limit
    argv = ["region-map", "--threads", "1", "--set", "region.eta_c=linear:0.1:1.0:4",
            "--set", "region.eps_g=log:1e-4:3e-2:4"]
    count = _libm_elements(monkeypatch, capsys, argv)
    assert 0 < count < 140_000, count


def test_the_search_reads_no_family_internals():
    # each family's cell pass and infeasibility rules live in its own module:
    # optimize imports no keyrate and reads no private name of gen1, gen2 or
    # gen3 (the WARMED cache names are strings, and stay allowed)
    tree = ast.parse(Path(optimize.__file__).read_text())
    families, found = {"gen1", "gen2", "gen3"}, []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            module = (getattr(node, "module", None) or "").split(".")
            if "keyrate" in module or any("keyrate" in name.split(".") for name in names):
                found.append(ast.unparse(node))
            if families & set(module):
                found += [ast.unparse(node) for name in names if name.startswith("_")]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in families and node.attr.startswith("_"):
                found.append(ast.unparse(node))
    assert found == []


# every grid a single configuration, so the last row of a cell pass can win
_ONE = SearchSpace(
    gen1=Gen1Search(schemes=("deutsch",), min_levels=2, max_levels=2, max_rounds=0),
    gen2=Gen2Search(segment_counts=(32,), memories=(32,), gen_rounds=(2,), codes=CSS_CATALOG[:1]),
    gen3=Gen3Search(spacings_km=(1.5,), min_n=20, max_n=20, min_m=6, max_m=6),
)


# no gate error and perfect coupling, so x > 0 at the short spacings with 64
# memories, where N fits a float: at 1e8 km and 10^306 segments, N = 1.28e308 qubits fit a
# float and N*g does not at two rounds; at 1e10 km and a spacing of 1e-300
# km, 10^310 segments pass the float range (10^300 do not)
_LOSSLESS = HardwareParams(eta_c=1.0, eps_g=0.0)
_GEN2_FLOAT_EDGES = [(_LOSSLESS, 1e8, (1e8 / 10**306, 10.0)), (_LOSSLESS, 1e10, (1e-300, 1e-290))]


def _gen2_evaluators_read_the_cell_pass(params, l_tot, spacings):
    """Check that both swap chains' evaluate, at every configuration of a
    small grid, equals gen2.price of the inputs of its row of the cell pass
    the search reads (x = 0 for a row the pass leaves out), bit for bit.
    Returns each priced row's terms by its arguments."""
    memories, gen_rounds, terms = (1, 64), (1, 2), {}
    for family, codes in (("gen2_noenc", (None,)), ("gen2_enc", (CSS_CATALOG[0], GOLAY))):
        spec = FAMILY_TABLE[family]
        bounds, _, price = gen2.bound(params, l_tot, codes, spacings, memories, gen_rounds)
        rows, kept, key = price(np.arange(len(bounds)))
        inputs = dict(key(i) for i in range(len(kept)))
        terms.update((key(i)[0], tuple(rows[i].tolist())) for i in range(len(kept)))
        for code, spacing, m, g in itertools.product(codes, spacings, memories, gen_rounds):
            arguments = (m, spacing, g) if code is None else (code, m, spacing, g)
            row = inputs.get(arguments, (0.0, 2 * m, core.segment_count(l_tot, spacing), spacing, g))
            got = spec.evaluate(params, spec.config_type(*arguments), l_tot)
            assert repr(got) == repr(gen2.price(params, l_tot, *row)), (family, arguments)
    return terms


@pytest.mark.parametrize("params, l_tot", [
    (HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6), 1000.0),  # pruned
    (HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-310), 1000.0),  # _margin_holds fails: a weight
    (HardwareParams(eta_c=1.0, eps_g=0.04, l_att=10.0), 28000.0),  # _margin_holds fails: the cost
])
def test_search_prices_only_from_the_cell_pass(monkeypatch, params, l_tot):
    def refuse(*args):
        raise AssertionError("the search called a per-configuration evaluator")

    for space in (SearchSpace(), _ONE):
        want = repr(optimize_all(params, l_tot, space))
        reference = {f: reference_optimum(f, params, l_tot, space) for f in FAMILIES}
        with monkeypatch.context() as patch:
            for family, spec in FAMILY_TABLE.items():
                patch.setitem(FAMILY_TABLE, family, spec._replace(evaluate=refuse))
            optimize._frontier.cache_clear()
            report = optimize_all(params, l_tot, space)
        assert repr(report) == want
        assert report.per_family == reference
    # and the gen2 evaluators price from the cell pass: at this point, and
    # where N*g or the segment count passes the float range
    _gen2_evaluators_read_the_cell_pass(params, l_tot, (l_tot / 32, l_tot / 7, 3.0))
    past_n_g, past_segments = (_gen2_evaluators_read_the_cell_pass(*edge) for edge in _GEN2_FLOAT_EDGES)
    assert past_n_g[64, 1e8 / 10**306, 2][1] == math.inf > past_n_g[64, 1e8 / 10**306, 1][1]
    assert (64, 1e-300, 1) not in past_segments and (64, 1e-290, 1) in past_segments


# per family, a configuration that is _ONE's whole grid at 1,000 km, so its
# reader and _ONE's search look up the same cache entries, and one off every grid
_SHARED_READS = {
    "gen1": (Gen1Config("deutsch", 2, (0, 0, 0)), Gen1Config("dur", 2, (5, 0, 1))),
    "gen2_noenc": (Gen2NoEncConfig(32, 31.25, 2), Gen2NoEncConfig(37, 7.3, 3)),
    "gen2_enc": (Gen2EncConfig(CSS_CATALOG[0], 32, 31.25, 2), Gen2EncConfig(GOLAY, 37, 7.3, 3)),
    "gen3": (Gen3Config(20, 6, 1.5), Gen3Config(30, 30, 0.7)),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_cache_entries_do_not_depend_on_the_path_that_filled_them(family):
    # the search and the readers of one configuration read each table through
    # one cached accessor: at one cell, interleaved in any order, every result
    # equals its value from cold caches
    params = HardwareParams(eps_g=1.5e-3)
    searches = [("search", space, t0) for space in (SearchSpace(), _ONE) for t0 in (1e-6, 1e-4)]

    def run(call):
        kind, item, t0 = call
        point = params.with_(t0=t0)
        if kind == "read":
            return repr(optimize.evaluate_config(point, item, 1000.0))
        optimize._frontier.cache_clear()  # the cell pass reads the tables again
        return repr(optimize_family(family, point, 1000.0, item))

    caches.clear_all()
    best = optimize_family(family, params, 1000.0).config
    reads = [("read", config, t0) for config in (best, *_SHARED_READS[family]) for t0 in (1e-6, 1e-4)]
    calls = searches + reads
    cold = {}
    for call in calls:
        caches.clear_all()
        cold[call] = run(call)
    caches.clear_all()
    for call in calls + calls[::-1] + random.Random(7).sample(calls, len(calls)):
        assert run(call) == cold[call], call


def test_gen1_survives_link_probability_underflow():
    # one 30,000 km link has p0 = exp(-1500) = 0.0: that depth is infeasible
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    shallow = Gen1Config("deutsch", 1, (0, 0))
    assert gen1.waiting_time(params, shallow, 60000.0) == math.inf
    assert not gen1.evaluate(params, shallow, 60000.0).feasible
    best = optimize_family("gen1", params, 60000.0)
    assert best == reference_optimum("gen1", params, 60000.0, SearchSpace())
    assert best is not None and best.config.levels > 1


@pytest.mark.parametrize(
    "etas, epss",
    # 15 cells split unevenly over 2 and 3 workers; 2 cells under 3 workers
    [((0.6, 0.8, 0.95), (1e-4, 1e-3, 3e-3, 1e-2, 3e-2)), ((0.7, 0.9), (2e-3,))],
)
def test_region_map_rows_identical_for_any_worker_count(etas, epss):
    t0s = (1e-7, 1e-5)
    rows = region_map(etas, epss, t0s, 300.0, _SMALL)
    want = [(e, g, t) for e in etas for g in epss for t in t0s]
    assert [(r["eta_c"], r["eps_g"], r["t0"]) for r in rows] == want
    for threads in (2, 3):
        assert region_map(etas, epss, t0s, 300.0, _SMALL, threads=threads) == rows


def test_region_map_rows_identical_for_any_worker_count_from_a_warm_parent():
    # the workers fork from a parent that has built each coupling's shared
    # tables: at eta_c 0.4 gen3 has no live spacing, at 1.0 all 20 are live
    space = SearchSpace(gen1=_SMALL.gen1, gen2=_SMALL.gen2)
    etas, epss, t0s, l_tot = (0.4, 0.7, 1.0), (1e-3, 1e-2), (1e-7, 1e-5), 1000.0
    live = [gen3._live(HardwareParams(eta_c=eta), space.gen3.spacings_km, l_tot)[1] for eta in etas]
    assert (len(live[0]), len(live[-1])) == (0, len(space.gen3.spacings_km)) == (0, 20)
    runs = []
    for threads in (1, 2, 3):
        caches.clear_all()
        runs.append(region_map(etas, epss, t0s, l_tot, space, threads=threads))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert len(runs[0]) == len(etas) * len(epss) * len(t0s)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _chunks_calling(monkeypatch, child=None, parent=None) -> None:
    """Make each region_map chunk call child() in a forked child, or
    parent() in this process, before it runs as usual."""
    pid, map_task = os.getpid(), optimize._map_task

    def chunk(*args):
        call = parent if os.getpid() == pid else child
        if call is not None:
            call()
        return map_task(*args)

    monkeypatch.setattr(optimize, "_map_task", chunk)


class _Unpicklable(Exception):
    def __init__(self, what, code):
        super().__init__(f"{what} (code {code})")


def _raise(exc):
    def fail():
        raise exc

    return fail


_TWO_CELLS = (0.7, 0.9), (2e-3,), (1e-6,), 300.0, _SMALL


@pytest.mark.skipif(not optimize._FORKS, reason="region-map workers fork on Linux only")
@pytest.mark.parametrize(
    "where, fail, raised, match",
    [
        ("child", _raise(ValueError("chunk failed")), ValueError, "^chunk failed$"),
        ("parent", _raise(ValueError("chunk failed")), ValueError, "^chunk failed$"),
        # an exception that does not unpickle comes up as its traceback
        ("child", _raise(_Unpicklable("chunk failed", 7)), RuntimeError, r"_Unpicklable: chunk failed \(code 7\)"),
        ("child", lambda: os._exit(3), RuntimeError, "ended without a result .exit code 3."),
    ],
)
def test_a_failed_chunk_raises_and_leaves_no_child(monkeypatch, where, fail, raised, match):
    _chunks_calling(monkeypatch, **{where: fail})
    with pytest.raises(raised, match=match):
        region_map(*_TWO_CELLS, threads=2)
    _no_child_left()


@pytest.mark.skipif(not optimize._FORKS, reason="region-map workers fork on Linux only")
def test_a_parent_chunk_that_raises_stops_a_running_child(monkeypatch):
    # the parent raises at once and kills the child, which would run a minute
    fail = _raise(ValueError("parent chunk failed"))
    _chunks_calling(monkeypatch, child=lambda: time.sleep(60), parent=fail)
    start = time.monotonic()
    with pytest.raises(ValueError, match="parent chunk failed"):
        region_map(*_TWO_CELLS, threads=2)
    assert time.monotonic() - start < 30
    _no_child_left()


def _cost(candidate):
    return math.inf if candidate is None else candidate.result.cost_coeff


def _subset(pool):
    """A non-empty subset of `pool` and a superset of it drawn from `pool`."""
    return st.lists(st.sampled_from(pool), min_size=1, unique=True).flatmap(
        lambda small: st.lists(st.sampled_from(pool), unique=True).map(
            lambda extra: (tuple(sorted(small)), tuple(sorted(set(small) | set(extra))))
        )
    )


_POINTS = st.builds(
    HardwareParams,
    eta_c=st.floats(0.3, 1.0),
    eps_g=st.sampled_from((1e-4, 1e-3, 5e-3, 2e-2)),
    t0=st.sampled_from((1e-8, 1e-6, 1e-4)),
)
_DISTANCES = st.sampled_from((100.0, 1000.0, 4000.0))


def _check_superset(family, params, l_tot, small, large):
    assert _cost(optimize_family(family, params, l_tot, large)) <= _cost(
        optimize_family(family, params, l_tot, small)
    )


@settings(max_examples=25, deadline=None)
@given(_POINTS, _DISTANCES, st.integers(1, 3), st.integers(0, 1), st.integers(0, 2), st.integers(0, 1))
def test_larger_gen1_grid_never_raises_optimum(params, l_tot, levels, more_levels, rounds, more_rounds):
    small = SearchSpace(gen1=Gen1Search(max_levels=levels, max_rounds=rounds))
    large = SearchSpace(
        gen1=Gen1Search(max_levels=levels + more_levels, max_rounds=rounds + more_rounds)
    )
    _check_superset("gen1", params, l_tot, small, large)


@settings(max_examples=25, deadline=None)
@given(_POINTS, _DISTANCES, _subset((2, 4, 8, 16, 64, 256)), _subset((1, 4, 16, 64)))
def test_larger_gen2_grid_never_raises_optimum(params, l_tot, segments, memories):
    small = SearchSpace(gen2=Gen2Search(segment_counts=segments[0], memories=memories[0]))
    large = SearchSpace(gen2=Gen2Search(segment_counts=segments[1], memories=memories[1]))
    for family in ("gen2_noenc", "gen2_enc"):
        _check_superset(family, params, l_tot, small, large)


@settings(max_examples=25, deadline=None)
@given(
    _POINTS, _DISTANCES, _subset((0.5, 1.0, 1.5, 2.5, 4.0)),
    st.integers(2, 6), st.integers(0, 3), st.integers(2, 6), st.integers(0, 3),
)
def test_larger_gen3_grid_never_raises_optimum(params, l_tot, spacings, n, more_n, m, more_m):
    small = SearchSpace(gen3=Gen3Search(spacings_km=spacings[0], max_n=n, max_m=m))
    large = SearchSpace(
        gen3=Gen3Search(spacings_km=spacings[1], max_n=n + more_n, max_m=m + more_m)
    )
    _check_superset("gen3", params, l_tot, small, large)


# cells of the gen3 cell-pass pin: a coupling and gate-error grid, one point
# with storage error, one with a short attenuation length
_GEN3_CELL_POINTS = [
    HardwareParams(eta_c=eta, eps_g=eps)
    for eta in (0.1, 0.7, 0.9, 1.0)
    for eps in (1e-4, 3e-3, 3e-2)
] + [
    HardwareParams(eta_c=0.8, eps_g=2e-3, xi=1e-4, eps_d=1e-3),
    HardwareParams(eta_c=0.95, l_att=10.0),
]


def _term_rows(family, space, cell):
    """The array terms of a family as (arguments, group, terms) rows."""
    terms, groups, key = _all_terms(family, space, cell)
    return [(key(i), groups[i].item(), tuple(terms[i].tolist())) for i in range(len(terms))]


def test_gen3_cell_pass_equals_per_configuration_pricing():
    # the frontier's terms, from one array pass per cell, against each
    # configuration's scalar fold (station_reference.throughput): the same
    # rows in the same order, zero-x rows left out
    space = SearchSpace()
    spec = FAMILY_TABLE["gen3"]
    for params, l_tot in itertools.product(_GEN3_CELL_POINTS, (100.0, 1000.0, 10000.0)):
        cell = spec.cell(params, l_tot)
        want = list(search_reference.terms("gen3", space, cell))
        assert repr(_term_rows("gen3", space, cell)) == repr(want), (params, l_tot)


def _grid(pool):
    return st.lists(st.sampled_from(pool), min_size=1, unique=True).map(tuple)


@st.composite
def _search_spaces(draw):
    levels = draw(st.integers(0, 3))
    return SearchSpace(
        gen1=Gen1Search(
            schemes=draw(_grid(("deutsch", "dur"))),
            min_levels=draw(st.integers(0, levels)),
            max_levels=levels,
            max_rounds=draw(st.integers(0, 3)),
        ),
        # a minimum spacing of 1e5 km leaves no spacing at these distances
        gen2=Gen2Search(
            segment_counts=draw(_grid((1, 2, 3, 7, 16, 100, 1024))),
            memories=draw(_grid((1, 2, 5, 64))),
            gen_rounds=draw(_grid((1, 2, 10))),
            min_spacing_km=draw(st.sampled_from((0.0, 1.0, 1e5))),
            codes=draw(_grid(CSS_CATALOG)),
        ),
        gen3=Gen3Search(
            spacings_km=draw(_grid((0.5, 1.0, 2.5, 10.0))),
            max_n=draw(st.integers(2, 6)),
            max_m=draw(st.integers(2, 6)),
        ),
    )


@settings(max_examples=60, deadline=None)
@example("gen1", SearchSpace(), 0.5, 1e-3, 1000.0)
@example("gen2_noenc", SearchSpace(), 0.9, 1e-4, 1000.0)
@example("gen2_enc", SearchSpace(), 0.9, 3e-3, 1000.0)
@example("gen3", SearchSpace(), 0.95, 1e-4, 1000.0)
@given(
    st.sampled_from(FAMILIES),
    _search_spaces(),
    st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
    st.sampled_from((0.0, 1e-4, 3e-3, 0.04)),
    st.sampled_from((10.0, 1000.0, 10000.0)),
)
def test_frontier_equals_per_configuration_reference(family, space, eta, eps, l_tot):
    # the array terms equal the terms built one configuration at a time, bit
    # for bit and in the same order, and keep the same configurations
    cell = FAMILY_TABLE[family].cell(HardwareParams(eta_c=eta, eps_g=eps), l_tot)
    rows, want = _term_rows(family, space, cell), list(search_reference.terms(family, space, cell))
    assert len(rows) == len(want)
    for row, reference in zip(rows, want):
        assert repr(row) == repr(reference)
    want = search_reference.frontier(family, space, cell)
    assert repr(optimize._frontier(family, space, cell)) == repr(want)


def test_gen3_throughput_equals_scalar_reference():
    # every default-grid configuration at five points, read off the cell
    # pass of the search with every entry priced; x is 0 at the entries it
    # rules out, and at the spacings that no code survives
    s = SearchSpace().gen3
    grid = s.min_n, s.max_n, s.min_m, s.max_m, s.max_photons
    n_values, m_values, _ = gen3.codes(*grid)
    for params in _GEN3_CELL_POINTS[1::3]:
        eps_q = gen3.photon_error_rate(params)
        bounds, _, price = gen3.bound(params, 1000.0, grid, s.spacings_km)
        _, kept, key = price(np.arange(len(bounds)))
        rows = dict(key(row) for row in range(len(kept)))
        for spacing in s.spacings_km:
            for n, m in zip(n_values, m_values):
                want = station_reference.throughput(
                    params.eta_c, params.l_att, eps_q, n, m, spacing, 1000.0
                )
                got = rows[n, m, spacing][0] if (n, m, spacing) in rows else 0.0
                assert repr(got) == repr(want), (params, n, m, spacing)
    # gen3.evaluate, which computes each code alone, at every configuration
    # of the point where every spacing is live
    params = HardwareParams(eta_c=1.0, eps_g=3e-3)
    for config in search_reference.configs("gen3", 1000.0, SearchSpace()):
        want = search_reference.price(params, config, 1000.0)
        assert repr(gen3.evaluate(params, config, 1000.0)) == repr(want), config


_FIXED_CONFIGS = {
    "gen1": [Gen1Config("deutsch", 2, (1, 0, 1)), Gen1Config("dur", 3, (2, 1, 0, 1))],
    "gen2_noenc": [Gen2NoEncConfig(16, 10.0, 2), Gen2NoEncConfig(128, 50.0, 10)],
    "gen2_enc": [Gen2EncConfig(GOLAY, 64, 5.0, 5), Gen2EncConfig(GOLAY, 128, 20.0, 10)],
    "gen3": [Gen3Config(4, 3, 1.5), Gen3Config(10, 6, 4.0), Gen3Config(2, 2, 0.5)],
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_every_entry_point_rejects_a_bad_distance(bad):
    # one check with one message (core._check_distance), whatever the family
    params = HardwareParams()
    configs = [group[0] for group in _FIXED_CONFIGS.values()]
    schedule = Gen1Config("deutsch", 1, (0, 0))
    calls = [
        *(functools.partial(optimize_family, family, params, bad) for family in FAMILIES),
        *(functools.partial(evaluate_config, params, config, bad) for config in configs),
        functools.partial(gen1.waiting_time, params, schedule, bad),
        functools.partial(mc_gen1_waiting_time, "deutsch", 1, (0, 0), params, bad, trials=10),
        functools.partial(gen2.segment_count, bad, 10.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"l_tot_km must be finite and > 0, got {bad}")):
            call()
    with pytest.raises(ValueError, match=re.escape(f"spacing_km must be finite and > 0, got {bad}")):
        gen2.segment_count(1000.0, bad)


def _range(low, high, *edges):
    """A float in [low, high], its ends and `edges` drawn often."""
    return st.one_of(st.sampled_from((low, high, *edges)), st.floats(low, high))


# every hardware point that builds: each field over its whole range
_ANY_HARDWARE = st.builds(
    HardwareParams,
    eta_c=_range(0.0, 1.0),
    eps_g=_range(0.0, MAX_GATE_ERROR),
    xi=st.one_of(st.none(), _range(0.0, 0.5)),
    eps_d=_range(0.0, 1.0),
    t0=_range(5e-324, sys.float_info.max),
    l_att=_range(5e-324, sys.float_info.max, 1e18),
    c_fiber=_range(5e-324, sys.float_info.max, 1.7e308),
)


@settings(max_examples=60, deadline=None)
@example(HardwareParams(xi=0.5), 1000.0)  # gen2's physical error rate above 1
@example(HardwareParams(eta_c=1.0, eps_d=1.0, xi=0.25), 1000.0)  # gen3's photon error rate above 1
@given(_ANY_HARDWARE, st.floats(0.0, 1e5, exclude_min=True))
def test_every_hardware_point_that_builds_is_priced(params, l_tot):
    report = optimize_all(params, l_tot, _SMALL)
    for candidate in report.per_family.values():
        assert candidate is None or candidate.result.feasible, (params, l_tot)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FAMILIES), st.data(), st.floats(0.05, 1.0), st.floats(0.05, 1.0),
    st.sampled_from((1e-4, 1e-3, 1e-2)), st.sampled_from((100.0, 1000.0, 4000.0)),
)
def test_better_coupling_never_raises_a_configurations_cost(family, data, eta_a, eta_b, eps, l_tot):
    config = data.draw(st.sampled_from(_FIXED_CONFIGS[family]))
    low, high = sorted((eta_a, eta_b))
    cost = [
        evaluate_config(HardwareParams(eta_c=eta, eps_g=eps), config, l_tot).cost_coeff
        for eta in (low, high)
    ]
    assert cost[1] <= cost[0], (config, low, high, cost)


_LEX_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e-300, 1e300, math.inf, -math.inf, math.nan])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda width: st.lists(st.lists(_LEX_VALUES | st.floats(), min_size=width, max_size=width),
                           min_size=1, max_size=12)
))
def test_lexmin_equals_lexsort(rows):
    # a small value pool makes ties, NaN and +-inf common
    rows = np.array(rows, dtype=float)
    assert optimize._lexmin(rows) == np.lexsort(rows.T[::-1])[0]
