import math

import numpy as np
import pytest

from qrcost.core import (
    GOLAY,
    Gen1Config,
    Gen2EncConfig,
    Gen2NoEncConfig,
    Gen3Config,
    HardwareParams,
)
from qrcost.optimize import (
    FAMILIES,
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
