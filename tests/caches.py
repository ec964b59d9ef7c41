"""Every per-process cache of qrcost, for tests that compare a result computed
with warm caches against the same result computed from cold ones."""
from __future__ import annotations

from qrcost import binom, core, gen1, gen2, gen3, keyrate, optimize, pairs


def clear_all() -> None:
    """Empty every lru_cache of the package's modules."""
    for module in (binom, core, gen1, gen2, gen3, keyrate, optimize, pairs):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
