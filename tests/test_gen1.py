import itertools
import math
import random

import caches
import numpy as np
import pytest
import search_reference
from chain_reference import ladder, pump_schedule, schedule_summary
from hypothesis import given, settings
from hypothesis import strategies as st

from qrcost import gen1, optimize
from qrcost.core import Gen1Config, HardwareParams
from qrcost.pairs import elementary_pair, heg_success_prob, swap


def _table_state(params, config):
    """The end-state weights of a schedule, read off the one-path table that
    its readers (evaluate, time_constants, ladder_success_probs) read."""
    table = gen1._path(params, config)
    return tuple(w.item(0) for w in table.states[config.levels].as_tuple())


def _grid_row(rounds, max_rounds):
    """The row of a schedule prefix at its level of a grid table with rounds
    0..max_rounds at every level: the rows run in lexicographic order."""
    row = 0
    for m in rounds:
        row = row * (max_rounds + 1) + m
    return row


def _grid_table(scheme, eps_g, xi, max_levels, max_rounds):
    """The table of a search grid, as the search reads it."""
    return gen1._schedule_summary(scheme, eps_g, xi, gen1._search_grid(max_levels, max_rounds))


def _level_time(scheme, entry, comm, probs):
    """Expected completion time of one level's pumping, written as the plain
    per-round retry recursion: a failed round retries geometrically, Deutsch
    rebuilds both inputs from the round below (3/2 of one mean apiece), the
    fresh-copy scheme keeps its storage pair and fetches one new entry pair."""
    t = entry
    for p in probs:
        if scheme == "deutsch":
            t = (1.5 * t + comm) / p
        else:
            t = (t + entry + comm) / p
    return t


def _waiting_reference(params, config, l_tot_km):
    """Waiting time rebuilt from the per-level recursion, one level at a time."""
    l0 = l_tot_km / 2**config.levels
    t_signal = l0 / params.c_fiber
    probs = gen1.ladder_success_probs(params, config)
    p0 = heg_success_prob(params.eta_c, l0, params.l_att)
    wait = _level_time(config.scheme, t_signal / p0, params.t0 + t_signal, probs[0])
    for level in range(1, config.levels + 1):
        entry = 1.5 * wait + params.t0
        comm = params.t0 + 2**level * t_signal
        wait = _level_time(config.scheme, entry, comm, probs[level])
    return wait


def _seeded_configs(count, max_levels=4):
    rng = random.Random(9)
    out = []
    for _ in range(count):
        scheme = rng.choice(["deutsch", "dur"])
        levels = rng.randint(0, max_levels)
        rounds = tuple(rng.randint(0, 2) for _ in range(levels + 1))
        out.append(Gen1Config(scheme, levels, rounds))
    return out


def test_waiting_time_matches_plain_recursion():
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    for config in _seeded_configs(60):
        got = gen1.waiting_time(params, config, 800.0)
        want = _waiting_reference(params, config, 800.0)
        assert math.isclose(got, want, rel_tol=1e-9), config


def test_waiting_time_elementary_link():
    # no swaps, no purification: plain geometric retries of one attempt
    params = HardwareParams(eta_c=0.8, eps_g=1e-3, t0=1e-6)
    config = Gen1Config("deutsch", 0, (0,))
    t_signal = 50.0 / params.c_fiber
    p0 = heg_success_prob(0.8, 50.0, 20.0)
    assert math.isclose(gen1.waiting_time(params, config, 50.0), t_signal / p0, rel_tol=1e-12)


def test_waiting_time_grows_with_purification():
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    bare = gen1.waiting_time(params, Gen1Config("deutsch", 2, (0, 0, 0)), 400.0)
    pumped = gen1.waiting_time(params, Gen1Config("deutsch", 2, (1, 1, 1)), 400.0)
    assert pumped > bare


def test_final_state_tracks_pair_algebra():
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    config = Gen1Config("deutsch", 2, (1, 0, 1))
    state = elementary_pair(params.eps_g)
    state, _ = pump_schedule(state, 1, params.eps_g, params.xi, "deutsch")
    state = swap(state, state, params.eps_g, params.xi)
    state = swap(state, state, params.eps_g, params.xi)
    state, _ = pump_schedule(state, 1, params.eps_g, params.xi, "deutsch")
    assert _table_state(params, config) == pytest.approx(state.as_tuple(), rel=1e-12)


def test_ladder_success_probs_shape():
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    config = Gen1Config("dur", 2, (2, 0, 1))
    probs = gen1.ladder_success_probs(params, config)
    assert tuple(len(level) for level in probs) == (2, 0, 1)
    assert all(0.0 < p <= 1.0 for level in probs for p in level)


def test_qubits_per_station():
    # Deutsch holds the full binary round tree, doubling per round anywhere
    assert gen1.qubits_per_station(Gen1Config("deutsch", 1, (0, 0))) == 2
    assert gen1.qubits_per_station(Gen1Config("deutsch", 1, (1, 1))) == 8
    # pumping holds one extra pair per level that purifies at all
    assert gen1.qubits_per_station(Gen1Config("dur", 1, (0, 0))) == 2
    assert gen1.qubits_per_station(Gen1Config("dur", 1, (2, 1))) == 6


def test_evaluate_cost_identities():
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    config = Gen1Config("deutsch", 3, (1, 1, 0, 0))
    res = gen1.evaluate(params, config, 1000.0)
    assert res.feasible
    assert res.stations == 2**3
    assert math.isclose(res.cost, res.stations * res.qubits_per_station / res.rate_sbits_per_s, rel_tol=1e-12)
    assert math.isclose(res.cost_coeff, res.cost / 1000.0, rel_tol=1e-12)


def test_evaluate_infeasible_when_chain_too_noisy():
    # fidelity decays over many unpurified swaps until no key survives
    params = HardwareParams(eta_c=0.9, eps_g=0.04, t0=1e-6)
    res = gen1.evaluate(params, Gen1Config("deutsch", 5, (0,) * 6), 1000.0)
    assert not res.feasible
    assert res.rate_sbits_per_s == 0.0 and res.cost_coeff == math.inf


def test_config_validation():
    with pytest.raises(ValueError):
        Gen1Config("unknown", 1, (0, 0))
    with pytest.raises(ValueError):
        Gen1Config("deutsch", 2, (0, 0))  # needs levels+1 entries
    with pytest.raises(ValueError):
        Gen1Config("deutsch", 1, (0, -1))


@pytest.mark.parametrize(
    "eps_g, xi",
    [(0.0, 0.0), (1e-4, 2.5e-5), (1e-3, 2.5e-4), (1e-2, 2.5e-3), (3e-2, 7.5e-3), (1e-3, 0.02)],
)
def test_schedule_table_equals_scalar_fold(eps_g, xi):
    # every default-grid summary, bit for bit (repr tells -0.0 and int/float apart)
    candidates = optimize._gen1_candidates(optimize.Gen1Search(), eps_g, xi)
    assert len(candidates) == 19_674
    for scheme, levels, rounds, summary in candidates:
        assert len(rounds) == levels + 1
        assert repr(summary) == repr(schedule_summary(scheme, rounds, eps_g, xi)), (scheme, rounds)
    # the grid tables' states and success probabilities, and the readers'
    # one-path tables, at seeded schedules of the grid
    params = HardwareParams(eps_g=eps_g, xi=xi)
    tables = {scheme: _grid_table(scheme, eps_g, xi, 7, 2) for scheme in ("deutsch", "dur")}
    for config in _seeded_configs(40, max_levels=7):
        state, probs = ladder(config.scheme, config.rounds, eps_g, xi)
        table = tables[config.scheme]
        row = _grid_row(config.rounds, 2)
        grid_state = tuple(w.item(row) for w in table.states[config.levels].as_tuple())
        assert repr(grid_state) == repr(state.as_tuple())
        grid_probs = tuple(
            tuple(table.probs[k][_grid_row(config.rounds[:k], 2), :m].tolist())
            for k, m in enumerate(config.rounds)
        )
        assert grid_probs == probs
        assert repr(_table_state(params, config)) == repr(state.as_tuple())
        assert gen1.ladder_success_probs(params, config) == probs
        want = schedule_summary(config.scheme, config.rounds, eps_g, xi)
        assert gen1.time_constants(params, config) == want[:3]
        want = search_reference.price(params, config, 1000.0)
        assert repr(gen1.evaluate(params, config, 1000.0)) == repr(want)
    ladder.cache_clear()


@pytest.mark.parametrize("scheme", ["deutsch", "dur"])
def test_off_grid_schedules_read_a_one_path_table(scheme):
    params = HardwareParams(eps_g=2e-3)
    for rounds in [(5, 0, 1, 2, 3, 4, 5, 0, 1, 2), (1,) * 10, (2, 0, 2, 1, 0, 2, 1, 2, 0),
                   (3, 1), (0, 4)]:
        config = Gen1Config(scheme, len(rounds) - 1, rounds)
        state, probs = ladder(scheme, rounds, params.eps_g, params.xi)
        assert repr(_table_state(params, config)) == repr(state.as_tuple())
        assert gen1.ladder_success_probs(params, config) == probs
        want = schedule_summary(scheme, rounds, params.eps_g, params.xi)
        assert gen1.time_constants(params, config) == want[:3]
        want = search_reference.price(params, config, 1000.0)
        assert repr(gen1.evaluate(params, config, 1000.0)) == repr(want)
        assert gen1._path(params, config).grid == tuple((m,) for m in rounds)
    ladder.cache_clear()


def test_qps_stays_exact_past_int64():
    # 2 * 2**62 does not fit an int64; qps must still be the exact integer
    params = HardwareParams(eps_g=1e-3)
    for rounds in [(31, 31), (32, 31), (40, 40)]:
        config = Gen1Config("deutsch", 1, rounds)
        assert gen1.evaluate(params, config, 100.0).qubits_per_station == gen1.qubits_per_station(config)
    search = optimize.Gen1Search(schemes=("deutsch", "dur"), max_levels=1, max_rounds=31)
    for scheme, levels, rounds, summary in optimize._gen1_candidates(search, 1e-3, 2.5e-4):
        assert summary[4] == gen1.qubits_per_station(Gen1Config(scheme, levels, rounds)), rounds
        assert summary[4] > 0
    # the grid's qps columns keep Python ints there; one round less, the
    # deepest count 2 * 2**61 fits an int64
    past = gen1._qps_columns("deutsch", ((0, 31), (0, 31)))
    assert [c.dtype for c in past] == [np.dtype(object)] * 2
    assert past[1].tolist() == [2, 2 * 2**31, 2 * 2**31, 2 * 2**62]
    fits = gen1._qps_columns("deutsch", ((0, 31), (0, 30)))
    assert [c.dtype for c in fits] == [np.dtype(np.int64)] * 2
    assert fits[1].tolist() == [2, 2 * 2**30, 2 * 2**31, 2 * 2**61]


def test_default_qps_columns_are_exact_int64():
    # the default grid's deepest Deutsch count, 2 * 2**16, fits an int64:
    # every row holds _qubits_per_station of its rounds as Python ints
    search = optimize.Gen1Search()
    grid = gen1._search_grid(search.max_levels, search.max_rounds)
    for scheme in search.schemes:
        columns = gen1._qps_columns(scheme, grid)
        assert len(columns) == len(grid)
        for levels, qps in enumerate(columns):
            assert qps.dtype == np.int64 and not qps.flags.writeable
            rounds = itertools.product(range(search.max_rounds + 1), repeat=levels + 1)
            want = [gen1._qubits_per_station(scheme, r) for r in rounds]
            assert qps.tolist() == want, (scheme, levels)
    assert gen1._qps_columns("deutsch", grid)[-1].max() == 2 * 2**16


def _time_coefficients_repeated(a_list, s_list):
    """gen1._time_coefficients as it was computed from arrays repeated to the
    deepest level's rows up front."""
    n = len(a_list) - 1
    suf = [1.0] * (n + 2)
    for y in range(n, -1, -1):
        suf[y] = a_list[y] * suf[y + 1]
    top = 1.5**n * suf[1]
    alpha = top * a_list[0]
    beta = top * s_list[0]
    gamma = top * s_list[0]
    for y in range(1, n + 1):
        w = 1.5 ** (n - y)
        beta += w * 2.0**y * s_list[y] * suf[y + 1]
        gamma += w * (s_list[y] * suf[y + 1] + suf[y])
    return alpha, beta, gamma


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=9),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 30.0),
)
def test_time_coefficients_repeat_each_level_where_it_is_multiplied(branches, seed, spread):
    # depths 0-8, A >= 1 and S >= 0 (some exactly 1 and 0, as a level without
    # rounds gives), each level's coefficients at its own length: the same
    # bits as the call on arrays repeated to the deepest level up front
    rng = np.random.default_rng(seed)
    a_list, s_list = [], []
    for rows in np.cumprod(branches):
        bare = rng.random(rows) < 0.2
        a_list.append(np.where(bare, 1.0, 1.0 + rng.random(rows) * 2.0 ** rng.uniform(0.0, spread, rows)))
        s_list.append(np.where(bare, 0.0, rng.random(rows) * 2.0 ** rng.uniform(0.0, spread, rows)))
    size = len(a_list[-1])
    want = _time_coefficients_repeated(
        [np.repeat(a, size // len(a)) for a in a_list], [np.repeat(s, size // len(s)) for s in s_list]
    )
    got = gen1._time_coefficients(a_list, s_list)
    assert [c.tobytes() for c in got] == [c.tobytes() for c in want]


def test_readers_use_the_searched_grid_table():
    # the search and the readers of one schedule read through one accessor:
    # the search's table keeps its states and success probabilities, equals
    # its cold value, and holds each schedule's numbers as its one-path table
    params = HardwareParams(eps_g=1.5e-3)
    # a narrow search never builds the default grid's table
    narrow = optimize.SearchSpace(gen1=optimize.Gen1Search(max_levels=2, max_rounds=1))
    caches.clear_all()
    assert optimize.optimize_family("gen1", params, 300.0, narrow) is not None
    assert gen1._schedule_summary.cache_info().currsize == 2  # one table per scheme
    hits = gen1._schedule_summary.cache_info().hits
    table = _grid_table("dur", params.eps_g, params.xi, 2, 1)
    assert gen1._schedule_summary.cache_info().hits == hits + 1  # the search's table
    assert table.grid == ((0, 1),) * 3
    assert len(table.states) == len(table.probs) == 3
    caches.clear_all()
    assert _table_text(table) == _table_text(_grid_table("dur", params.eps_g, params.xi, 2, 1))
    for levels in range(3):
        for rounds in itertools.product((0, 1), repeat=levels + 1):
            path = gen1._path(params, Gen1Config("dur", levels, rounds))
            row = _grid_row(rounds, 1)
            got = [c.item(row) for c in (*table.columns[levels], *table.states[levels].as_tuple())]
            want = [c.item(0) for c in (*path.columns[levels], *path.states[levels].as_tuple())]
            assert repr(got) == repr(want), rounds


def _table_text(table):
    """Every number of a schedule table as exact text (repr tells -0.0 and
    int/float apart)."""
    states = [[w.tolist() for w in state.as_tuple()] for state in table.states]
    columns = [[c.tolist() for c in level] for level in table.columns]
    return repr((table.grid, states, [p.tolist() for p in table.probs], columns))


def test_shared_qps_columns_do_not_depend_on_the_table_order():
    # both schemes on two grids and off-grid one-path tables, at several gate
    # errors in interleaved order, each equal to itself computed cold
    tables = [
        (kind, scheme, eps_g, shape)
        for eps_g in (1e-3, 3e-3, 2e-4)
        for scheme in ("deutsch", "dur")
        for kind, shape in (("grid", (3, 2)), ("grid", (4, 1)), ("path", (3, 0, 1)), ("path", (0, 4)))
    ]

    def build(kind, scheme, eps_g, shape):
        if kind == "grid":
            return _table_text(_grid_table(scheme, eps_g, 2.5e-4, *shape))
        return _table_text(gen1._schedule_summary(scheme, eps_g, 2.5e-4, tuple((m,) for m in shape)))

    cold = {}
    for table in tables:
        caches.clear_all()
        cold[table] = build(*table)
    caches.clear_all()
    for table in tables + tables[::-1] + random.Random(2).sample(tables, len(tables)):
        assert build(*table) == cold[table], table
    # one qps computation per scheme and grid, search and one-path grids alike
    assert gen1._qps_columns.cache_info().misses == 8
