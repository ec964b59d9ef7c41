import concurrent.futures
import tracemalloc

import caches
import numpy as np

from qrcost import cli, optimize
from qrcost.core import HardwareParams

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


class _ForkedPool:
    """Stands in for the process pool: runs the tasks in this process, in
    the given order, and records the misses the first task adds to the
    warmed caches. The first task starts from the caches the parent holds
    when the pool starts, as a forked worker does."""

    def __init__(self, order, max_workers, mp_context=None):
        self.order, self.first_task_misses = order, None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks, done = list(tasks), {}
        for k in self.order(range(len(tasks))):
            before = _misses(caches.WARMED)
            done[k] = fn(tasks[k])
            if self.first_task_misses is None:
                after = _misses(caches.WARMED)
                self.first_task_misses = {name: after[name] - before[name] for name in after}
        return [done[k] for k in range(len(tasks))]


def test_warmed_caches_are_grid_caches():
    # the warm step fills the accessors of the search grids' shared tables
    assert set(caches.WARMED) <= set(caches.CACHES)


def test_workers_fork_with_every_shared_table_built(monkeypatch):
    # region_t2's lattice at seed 0 over two workers: whichever chunk a
    # worker runs, it builds none of the tables the parent warms
    etas = tuple(float(v) for v in np.linspace(0.1, 1.0, 4))
    epss = tuple(float(v) for v in np.geomspace(1e-4, 3e-2, 4))
    t0s = tuple(float(v) for v in np.geomspace(1e-7, 1e-4, 10))
    for order in (list, lambda ks: list(reversed(ks))):
        pools = []

        def pool(max_workers, mp_context=None):
            pools.append(_ForkedPool(order, max_workers, mp_context))
            return pools[-1]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        caches.clear_all()
        optimize.region_map(etas, epss, t0s, 1000.0, threads=2)
        assert len(pools) == 1
        assert pools[0].first_task_misses == dict.fromkeys(caches.WARMED, 0)
