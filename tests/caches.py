"""Every per-process cache of qrcost, each named once in one of three lists,
for tests that compare a result computed with warm caches against the same
result computed from cold ones, and for tests that check which path fills
which cache.

- GRID caches hold the tables of a search's grids; only the search fills
  them.
- READER caches hold the tables of one configuration, which the readers of
  one configuration (`evaluate` and its kin) compute.
- SHARED caches hold entries that both paths compute alike.
"""
from __future__ import annotations

import importlib
import pkgutil

import qrcost

GRID = (
    "gen1._schedule_summary",
    "gen1._grid_qps_columns",
    "gen2._availability",
    "gen3._grid_layout",
    "optimize._frontier",
)
READER = ("gen1._one_path", "gen2._one_availability", "gen3._one_mu_layout")
SHARED = (
    "gen2._chain_states",
    "gen2._chain_secure_fraction",
    "gen2.logical_flip_prob",
    "gen2._encoded_secure_fraction",
    "gen3.codes",
    "gen3.station_outcome",
    "gen3._throughput_table",
)


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
