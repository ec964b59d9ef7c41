import tracemalloc

import caches
import numpy as np

from qrcost import optimize
from qrcost.core import HardwareParams


def test_every_cache_is_named_in_one_list():
    # a new lru_cache must be sorted into one list, and a deleted one taken out
    listed = caches.GRID + caches.READER + caches.SHARED
    assert len(set(listed)) == len(listed), "a cache is named twice"
    assert sorted(caches.found()) == sorted(listed)


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
