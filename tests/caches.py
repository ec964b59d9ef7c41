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

import qrcost

# Each cache's comment names a command whose hits keep it, measured as
# hits/lookups with the command run in-process after clear_all().
CACHES = (
    "gen1._schedule_summary",  # validate gen1-time: 5/8
    "gen1._qps_columns",  # default region map and eps_g sweep: 18/20
    "gen2._availability",  # default region map: 180/200
    "gen2._chain_fractions",  # default region map: 90/100
    "gen2.logical_flip_prob",  # default region map: 270/300
    "gen3._layout",  # default region map: 45/50
    "gen3.station_outcome",  # l_tot sweep of 8 values: 7/8
    "gen3.codes",  # default region map: 199/200
    "optimize._frontier",  # default region map: 3,690/4,000
)
# The caches whose tables every cell at one coupling reads, whatever its gate
# error: a region map over several workers fills them in the parent
# (optimize.Family.warm) before the workers fork from it.
WARMED = ("gen1._qps_columns", "gen2._availability", "gen3._layout")


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


def clear_all() -> None:
    """Empty every lru_cache of the package's modules."""
    for cache in found().values():
        cache.cache_clear()
