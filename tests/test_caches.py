import tracemalloc

import caches
import numpy as np

from qrcost import cli, gen1, gen3, optimize
from qrcost.core import HardwareParams
from qrcost.optimize import Gen1Search, Gen2Search, Gen3Search, SearchSpace

# Small CLI jobs and the caches that each must hit at least once: the
# traffic the comments of caches.py claim, on smaller inputs
_JOBS = (
    (
        ["region-map", "--set", "region.eta_c=0.8,0.9", "--set", "region.eps_g=1e-3,2e-3",
         "--set", "region.t0=1e-6,1e-5"],
        ("gen1._qps_columns", "gen2._availability", "gen3._layout", "optimize._frontier",
         "gen2._chain_fractions", "gen2.logical_flip_prob", "gen3.codes"),
    ),
    # at this gate error no code decodes, so each search prices the whole batch
    (["sweep", "--set", "sweep.axis=l_tot", "--set", "sweep.values=500,1000,2000",
      "--set", "hardware.eps_g=1e-2"],
     ("gen3.station_outcome",)),
    (["validate", "gen1-time", "--trials", "1000"], ("gen1._schedule_summary",)),
)


def test_every_cache_is_named_in_one_list():
    # a new lru_cache must be added to the list, and a deleted one taken out
    assert len(set(caches.CACHES)) == len(caches.CACHES), "a cache is named twice"
    assert sorted(caches.found()) == sorted(caches.CACHES)


def test_every_cache_hits_in_its_job(capsys, monkeypatch):
    monkeypatch.delenv("QRCOST_CONFIG", raising=False)
    named = [name for _, names in _JOBS for name in names]
    assert sorted(named) == sorted(caches.CACHES)
    for argv, names in _JOBS:
        caches.clear_all()
        assert cli.main(argv) == 0, argv
        hits = {name: cache.cache_info().hits for name, cache in caches.found().items()}
        assert {name: hits[name] for name in names if hits[name] == 0} == {}, argv
    capsys.readouterr()


def test_memory_stays_flat_across_cold_cells():
    # every eps_g of a sweep is a new cell of every family; once a few cells
    # have been searched, further cells keep their frontiers and small
    # per-value entries only, not their tables
    values = np.geomspace(1e-4, 3e-2, 16).tolist()
    first, rest = values[::4], [v for k, v in enumerate(values) if k % 4]
    caches.clear_all()
    tracemalloc.start()
    try:
        optimize.sweep("eps_g", tuple(first), HardwareParams(), 1000.0)
        held = tracemalloc.get_traced_memory()[0]
        optimize.sweep("eps_g", tuple(rest), HardwareParams(), 1000.0)
        grown = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert grown < 2 * 2**20, f"{grown / 2**20:.1f} MB more held after {len(rest)} more cells"


def test_a_cold_gen1_cell_peaks_little_above_its_tables():
    # a new eps_g at a warmed coupling: both default gen1 tables (1.35 MB
    # held) and the cell pass over them peaked at 3.35 MB above the warm
    # state with the retry coefficients repeated to every row up front and
    # the bounds built in per-level parts and concatenated; 2.98 MB without
    params, space = HardwareParams(), SearchSpace()
    grid = gen1._search_grid(space.gen1.max_levels, space.gen1.max_rounds)
    caches.clear_all()
    optimize._warm(params, (params.eta_c,), 1000.0, space)
    eps_g = 1.234e-3
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for scheme in space.gen1.schemes:
            gen1._schedule_summary(scheme, eps_g, params.xi, grid)
        optimize._frontier("gen1", space, (eps_g, params.xi))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 3.15 * 2**20, f"{peak / 2**20:.2f} MB"


def _misses(names) -> dict:
    caches_ = caches.found()
    return {name: caches_[name].cache_info().misses for name in names}


def test_warmed_caches_are_grid_caches():
    # the warm step fills the accessors of the search grids' shared tables
    assert set(caches.WARMED) <= set(caches.CACHES)


def test_warm_builds_layouts_at_live_couplings_only():
    # the default lattice's couplings 0.1-0.5 leave no gen3 spacing live, so
    # no cell there reads a layout, and the warm builds one at each other
    etas = tuple(float(v) for v in np.linspace(0.1, 1.0, 10))
    caches.clear_all()
    try:
        optimize._warm(HardwareParams(), etas, 1000.0, SearchSpace())
        assert gen3._layout.cache_info().misses == 5
    finally:
        caches.clear_all()


def _in_process_children(monkeypatch, child_first: bool, firsts: list) -> None:
    """Make region_map fork on any platform, with each forked child
    (optimize._Child) replaced by a stand-in that runs its chunk in this
    process: at the fork, so before the parent's own chunk, or when its rows
    are read, after it. The chunk that runs first appends to firsts the
    misses it adds to the warmed caches, counted from the caches at the
    fork, from which a forked child starts."""

    class Child:
        def __init__(self, task, chunk):
            self.task, self.chunk, self.at_fork = task, chunk, _misses(caches.WARMED)
            if child_first:
                self.done = task(chunk)
                firsts.append(self.added())

        def added(self) -> dict:
            now = _misses(caches.WARMED)
            return {name: now[name] - self.at_fork[name] for name in now}

        def rows(self):
            if not child_first:
                firsts.append(self.added())  # the parent's chunk has run since the fork
                self.done = self.task(self.chunk)
            return self.done

        def kill(self):
            pass

    monkeypatch.setattr(optimize, "_FORKS", True)
    monkeypatch.setattr(optimize, "_Child", Child)


def test_workers_fork_with_every_shared_table_built(monkeypatch):
    # region_t2's lattice at seed 0 over two workers: whichever chunk runs
    # first, the forked child's or the parent's own, it builds none of the
    # tables the parent warms
    etas = tuple(float(v) for v in np.linspace(0.1, 1.0, 4))
    epss = tuple(float(v) for v in np.geomspace(1e-4, 3e-2, 4))
    t0s = tuple(float(v) for v in np.geomspace(1e-7, 1e-4, 10))
    for child_first in (True, False):
        firsts = []
        _in_process_children(monkeypatch, child_first, firsts)
        caches.clear_all()
        optimize.region_map(etas, epss, t0s, 1000.0, threads=2)
        assert firsts == [dict.fromkeys(caches.WARMED, 0)]


def test_every_warmed_cache_holds_the_whole_lattice(monkeypatch):
    # 40 live couplings x 3 gate errors, more couplings than any warmed
    # cache keeps by default: in the eps_g-outermost order every cell at a
    # coupling reads the tables the warm built for it, so each cache misses
    # only inside the warm, at one worker and at two, and every cell after
    # it hits
    space = SearchSpace(
        gen1=Gen1Search(max_levels=2, max_rounds=0),
        gen2=Gen2Search(segment_counts=(4, 16), memories=(4,), gen_rounds=(1,)),
        gen3=Gen3Search(spacings_km=(1.0, 2.0), max_n=4, max_m=4),
    )
    etas = tuple(float(v) for v in np.linspace(0.8, 1.0, 40))
    epss = (1e-3, 2e-3, 3e-3)
    assert all(gen3._live(HardwareParams(eta_c=eta), space.gen3.spacings_km, 1000.0)[1] for eta in etas)
    warm, at_warm = optimize._warm, {}

    def warmed(*args):
        warm(*args)
        at_warm.update((name, caches.found()[name].cache_info()) for name in caches.WARMED)

    monkeypatch.setattr(optimize, "_warm", warmed)
    _in_process_children(monkeypatch, True, [])
    for threads in (1, 2):
        caches.clear_all()
        optimize.region_map(etas, epss, (1e-6,), 1000.0, space, threads=threads)
        after = {name: caches.found()[name].cache_info() for name in caches.WARMED}
        assert {name: info.misses for name, info in after.items()} == {
            name: at_warm[name].currsize for name in caches.WARMED
        } == {"gen1._qps_columns": 2, "gen2._availability": 80, "gen3._layout": 40}, threads
        # per cell, both gen2 families and gen3; per eps_g, both gen1 schemes
        assert {name: info.hits - at_warm[name].hits for name, info in after.items()} == {
            "gen1._qps_columns": 6, "gen2._availability": 240, "gen3._layout": 120
        }, threads
        # the qps columns' key holds no coupling, so only the size shows their hold
        assert all(info.maxsize >= len(optimize.FAMILY_TABLE) * len(etas) for info in after.values())
