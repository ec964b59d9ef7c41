import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import station_reference
from search_reference import reference_optimum

from qrcost import gen1, gen3
from qrcost.core import (
    ATTENUATION_KM,
    FIBER_SPEED_KM_S,
    GOLAY,
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
    # every evaluator prices a NaN gate time as a feasible NaN cost
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=float("nan"))
    report = optimize_all(params, 1000.0, _SMALL)
    assert report.winner is None
    assert report.per_family == {f: None for f in FAMILIES}
    with pytest.raises(ValueError):
        optimize_family("gen5", params, 1000.0, _SMALL)


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


def test_gen3_cell_pass_equals_per_configuration_pricing():
    # the frontier's terms, from one array pass per cell, against each
    # configuration priced alone through gen3._throughput (the path of
    # gen3.evaluate): the same rows in the same order, zero-x rows left out
    space = SearchSpace()
    spec = FAMILY_TABLE["gen3"]
    for params, l_tot in itertools.product(_GEN3_CELL_POINTS, (100.0, 1000.0, 10000.0)):
        cell = spec.cell(params, l_tot)
        want = []
        for key in spec.grid(space, l_tot):
            x, qps, stations = gen3._throughput(cell[0], Gen3Config(*key), l_tot)
            if x > 0.0:
                want.append((key, 0, (stations * qps * 1.0 / x,)))
        assert repr(list(spec.terms(space, cell))) == repr(want), (params, l_tot)


def test_gen3_throughput_equals_scalar_reference():
    space = SearchSpace()
    for params in _GEN3_CELL_POINTS[1::3]:
        eps_q = gen3.photon_error_rate(params)
        for n, m, spacing in FAMILY_TABLE["gen3"].grid(space, 1000.0):
            want = station_reference.throughput(
                params.eta_c, params.l_att, eps_q, n, m, spacing, 1000.0
            )
            got, _, _ = gen3._throughput(params, Gen3Config(n, m, spacing), 1000.0)
            assert repr(got) == repr(want), (params, n, m, spacing)


_FIXED_CONFIGS = {
    "gen1": [Gen1Config("deutsch", 2, (1, 0, 1)), Gen1Config("dur", 3, (2, 1, 0, 1))],
    "gen2_noenc": [Gen2NoEncConfig(16, 10.0, 2), Gen2NoEncConfig(128, 50.0, 10)],
    "gen2_enc": [Gen2EncConfig(GOLAY, 64, 5.0, 5), Gen2EncConfig(GOLAY, 128, 20.0, 10)],
    "gen3": [Gen3Config(4, 3, 1.5), Gen3Config(10, 6, 4.0), Gen3Config(2, 2, 0.5)],
}


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
