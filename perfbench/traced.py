"""Traced child process: runs one qrcost CLI job in-process with hooks around
the calls into each layer, then writes spans, counters and cache read-outs
as JSON.

    python3 perfbench/traced.py --record PATH -- <qrcost arguments>
    python3 perfbench/traced.py --microbench

Hooks replace module attributes under the name the caller looks up (for
example `gen1.purify`, not only `pairs.purify`), so nothing under src/ changes.
Span hooks wrap the coarse layer boundaries and keep one record per call;
counter hooks wrap the hot leaf functions and keep call counts and time
totals. Both compute self time: a call's duration minus the time of the
hooked calls it made.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (module, attribute, span name, attributes read from the call's arguments)
SPAN_HOOKS = (
    ("config", "load_config", "config.load_config", None),
    ("cli", "_dataset", "cli.dataset", None),
    ("optimize", "region_map", "optimize.region_map", None),
    ("optimize", "sweep", "optimize.sweep", None),
    ("optimize", "optimize_all", "optimize.optimize_all", None),
    ("optimize", "optimize_family", "optimize.optimize_family", lambda a, k: {"family": a[0]}),
    ("oracles", "mc_qpc_decode", "oracles.mc_qpc_decode", lambda a, k: {"trials": k["trials"]}),
    ("oracles", "mc_gen1_waiting_time", "oracles.mc_gen1_waiting_time",
     lambda a, k: {"trials": k["trials"]}),
)

# (module, attribute, counter name); a counter may be reached by several names
COUNTER_HOOKS = (
    ("pairs", "purify", "pairs.purify"),
    ("pairs", "swap", "pairs.swap"),
    ("gen1", "purify", "pairs.purify"),
    ("gen1", "swap", "pairs.swap"),
    ("gen2", "swap", "pairs.swap"),
    ("binom", "tail_at_least", "binom.tail_at_least"),
    ("gen2", "tail_at_least", "binom.tail_at_least"),
    ("binom", "binomial_pmf", "binom.binomial_pmf"),
    ("gen3", "binomial_pmf", "binom.binomial_pmf"),
    ("gen2", "evaluate_no_encoding", "gen2.evaluate_no_encoding"),
    ("gen2", "evaluate_encoded", "gen2.evaluate_encoded"),
    ("gen3", "evaluate", "gen3.evaluate"),
    ("gen3", "station_outcome", "gen3.station_outcome"),
    ("optimize", "_gen1_candidates", "optimize.gen1_candidates"),
)

# counters that also add up the length of each result
SIZED_COUNTERS = {"optimize.gen1_candidates"}

# cache name -> (module, lru_cache-wrapped function)
CACHES = {
    "gen1_schedule": ("gen1", "_schedule_summary"),
    "gen2_flip": ("gen2", "logical_flip_prob"),
    "gen3_station": ("gen3", "station_outcome"),
}


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, list] = {}  # name -> [calls, total_s, self_s, items]
        self.caches: dict = {}  # name -> lru_cache-wrapped function
        self._child_time = [0.0]  # one accumulator per open hooked call
        self._open_spans: list[int] = []

    def _snapshot(self) -> dict:
        counts = {}
        for name, (calls, _, _, items) in self.counters.items():
            counts[name] = calls
            counts[f"{name}.items"] = items
        for name, fn in self.caches.items():
            counts[f"cache.{name}.misses"] = fn.cache_info().misses
        return counts

    def span(self, name: str, fn, attrs=None):
        clock = time.perf_counter
        child_time = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {"name": name, "parent": self._open_spans[-1] if self._open_spans else None}
            if attrs is not None:
                record.update(attrs(args, kwargs))
            before = self._snapshot()
            self._open_spans.append(len(self.spans))
            self.spans.append(record)
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                inner = child_time.pop()
                child_time[-1] += end - start
                self._open_spans.pop()
                after = self._snapshot()
                record.update(
                    start=start, end=end, self_s=end - start - inner,
                    counts={k: after[k] - before[k] for k in after if after[k] != before[k]},
                )

        return wrapper

    def counter(self, name: str, fn):
        clock = time.perf_counter
        child_time = self._child_time
        stats = self.counters.setdefault(name, [0, 0.0, 0.0, 0])
        sized = name in SIZED_COUNTERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_time.pop()
                child_time[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
            if sized:
                stats[3] += len(result)
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Clear every lru_cache of the package, then patch the hooks."""
        for module in modules.values():
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
        for name, (module, attr) in CACHES.items():
            self.caches[name] = getattr(modules[module], attr)
        for module, attr, counter in COUNTER_HOOKS:
            setattr(modules[module], attr, self.counter(counter, getattr(modules[module], attr)))
        for module, attr, name, attrs in SPAN_HOOKS:
            setattr(modules[module], attr, self.span(name, getattr(modules[module], attr), attrs))

    def record(self) -> dict:
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "lookups": info.hits + info.misses}
        counters = {
            name: {"calls": calls, "total_s": total, "self_s": self_s, "items": items}
            for name, (calls, total, self_s, items) in self.counters.items()
        }
        return {"spans": self.spans, "counters": counters, "caches": caches}


def _import_package() -> tuple[dict, float]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    from qrcost import binom, cli, config, gen1, gen2, gen3, optimize, oracles, pairs

    import_s = time.perf_counter() - start
    modules = {
        "binom": binom, "cli": cli, "config": config, "gen1": gen1, "gen2": gen2,
        "gen3": gen3, "optimize": optimize, "oracles": oracles, "pairs": pairs,
    }
    return modules, import_s


def _per_call_us(fn, calls: int, repeats: int = 5) -> float:
    """Median over `repeats` of the mean microseconds per call."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def microbench() -> dict:
    """Fixed-input per-call times of the pair algebra and the binomial tail,
    untraced."""
    modules, _ = _import_package()
    pairs, binom, core = modules["pairs"], modules["binom"], sys.modules["qrcost.core"]
    eps_g, xi = 1e-3, 2.5e-4
    state = pairs.elementary_pair(eps_g)
    # one point's gen2_enc availability tails: every (memories x rounds, code)
    tails = [
        (memories * rounds, code.n_phys)
        for code in core.CSS_CATALOG
        for memories in (1, 2, 4, 8, 16, 32, 64, 128)
        for rounds in (1, 2, 5, 10)
    ]

    def tail_pass():
        for trials, threshold in tails:
            binom.tail_at_least(trials, 0.3, threshold)

    return {
        "pairs.purify.us_per_call": _per_call_us(lambda: pairs.purify(state, state, eps_g, xi), 20000),
        "pairs.swap.us_per_call": _per_call_us(lambda: pairs.swap(state, state, eps_g, xi), 20000),
        "binom.tail_at_least.us_per_call": _per_call_us(tail_pass, 20) / len(tails),
    }


def traced_job(argv: list[str]) -> dict:
    modules, import_s = _import_package()
    tracer = Tracer()
    tracer.install(modules)
    start = time.perf_counter()
    code = modules["cli"].main(argv)
    main_s = time.perf_counter() - start
    return {"exit": code, "import_s": import_s, "main_s": main_s, **tracer.record()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="PATH", help="write the trace JSON here")
    parser.add_argument("--microbench", action="store_true", help="print per-call times as JSON")
    parser.add_argument("qrcost_args", nargs="*")
    args = parser.parse_args()
    if args.microbench:
        print(json.dumps(microbench()))
        return 0
    result = traced_job(args.qrcost_args)
    with open(args.record, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main())
