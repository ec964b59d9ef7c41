import tracemalloc

import caches
import numpy as np

from qrcost import cli, gen3, optimize
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
    (["sweep", "--set", "sweep.axis=l_tot", "--set", "sweep.values=500,1000,2000"],
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


def _misses(names) -> dict:
    caches_ = caches.found()
    return {name: caches_[name].cache_info().misses for name in names}


def test_warmed_caches_are_grid_caches():
    # the warm step fills the accessors of the search grids' shared tables
    assert set(caches.WARMED) <= set(caches.CACHES)


def test_workers_fork_with_every_shared_table_built(monkeypatch):
    # region_t2's lattice at seed 0 over two workers: whichever chunk runs
    # first, the forked child's or the parent's own, it builds none of the
    # tables the parent warms
    etas = tuple(float(v) for v in np.linspace(0.1, 1.0, 4))
    epss = tuple(float(v) for v in np.geomspace(1e-4, 3e-2, 4))
    t0s = tuple(float(v) for v in np.geomspace(1e-7, 1e-4, 10))
    monkeypatch.setattr(optimize, "_FORKS", True)
    for child_first in (True, False):
        firsts = []

        class Child:
            """Stands in for a forked child (optimize._Child): runs its chunk
            in this process, at the fork, so before the parent's own chunk,
            or when its rows are read, after it. The chunk that runs first
            records the misses it adds to the warmed caches, counted from
            the caches at the fork, from which a forked child starts."""

            def __init__(self, task):
                self.task, self.at_fork = task, _misses(caches.WARMED)
                if child_first:
                    self.done = optimize._map_task(task)
                    firsts.append(self.added())

            def added(self) -> dict:
                now = _misses(caches.WARMED)
                return {name: now[name] - self.at_fork[name] for name in now}

            def rows(self):
                if not child_first:
                    firsts.append(self.added())  # the parent's chunk has run since the fork
                    self.done = optimize._map_task(self.task)
                return self.done

            def kill(self):
                pass

        monkeypatch.setattr(optimize, "_Child", Child)
        caches.clear_all()
        optimize.region_map(etas, epss, t0s, 1000.0, threads=2)
        assert firsts == [dict.fromkeys(caches.WARMED, 0)]


def test_every_coupling_keeps_its_layout_across_gate_errors():
    # 20 live couplings, more than the layout cache holds by default: in
    # the eps_g-outermost order each coupling's layout is built once and
    # read again at the second eps_g, in one process or by the parent that
    # warms it and then runs the last chunk
    space = SearchSpace(
        gen1=Gen1Search(max_levels=2, max_rounds=0),
        gen2=Gen2Search(segment_counts=(4, 16), memories=(4,), gen_rounds=(1,)),
        gen3=Gen3Search(spacings_km=(1.0, 2.0), max_n=4, max_m=4),
    )
    etas = tuple(float(v) for v in np.linspace(0.8, 1.0, 20))
    assert all(gen3._live(HardwareParams(eta_c=eta), space.gen3.spacings_km, 1000.0)[1] for eta in etas)
    for threads in (1, 2):
        caches.clear_all()
        optimize.region_map(etas, (1e-3, 2e-3), (1e-6,), 1000.0, space, threads=threads)
        info = caches.found()["gen3._layout"].cache_info()
        assert (info.misses, info.hits) == (20, 20), threads
