"""Every per-process cache of qrcost, each named once in CACHES, for tests
that compare a result computed with warm caches against the same result
computed from cold ones, and for tests that check which command fills
which cache.

Each table has one cached accessor, which the search's cell pass, the
region map's warm step and the readers of one configuration (`evaluate`
and its kin) all read through, so an entry does not depend on which path
filled it.
"""
from __future__ import annotations

import importlib
import pkgutil
from functools import lru_cache

import qrcost
from qrcost import optimize

# Each cache's comment names a command whose hits keep it, measured as
# hits/lookups with the command run in-process after clear_all().
CACHES = (
    "gen1._schedule_summary",  # validate gen1-time: 5/8
    "gen1._qps_columns",  # default region map: 38/40; eps_g sweep: 18/20
    "gen2._availability",  # default region map: 200/220
    "gen2._chain_fractions",  # default region map: 90/100
    "gen2.logical_flip_prob",  # default region map: 270/300
    "gen3._layout",  # default region map: 54/60
    "gen3.station_outcome",  # l_tot sweep of 8 values: 7/8
    "gen3.codes",  # default region map: 209/210
    "optimize._frontier",  # default region map: 3,690/4,000
)
# The caches that a region map fills before its cells run, and lets keep its
# whole lattice (optimize.WARMED), by the names of CACHES
WARMED = tuple(f"{module.__name__.rpartition('.')[2]}.{name}" for module, name in optimize.WARMED)


def found() -> dict:
    """Every lru_cache that a module of the package defines, by
    "module.attribute"; one imported from another module counts only there."""
    out = {}
    for info in pkgutil.iter_modules(qrcost.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"qrcost.{info.name}")
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)) and value.__module__ == module.__name__:
                out[f"{info.name}.{attr}"] = value
    return out


def sizes(names) -> dict:
    """The number of entries of each named cache."""
    caches = found()
    return {name: caches[name].cache_info().currsize for name in names}


# Each cache's size at import, which a region map may have raised since
_SIZES = {name: cache.cache_info().maxsize for name, cache in found().items()}


def clear_all() -> None:
    """Empty every lru_cache of the package's modules, each back at its size
    at import, so that no test reads a size an earlier region map left."""
    for name, cache in found().items():
        if cache.cache_info().maxsize == _SIZES[name]:
            cache.cache_clear()
        else:
            module, attr = name.split(".")
            resized = lru_cache(maxsize=_SIZES[name])(cache.__wrapped__)
            setattr(importlib.import_module(f"qrcost.{module}"), attr, resized)
