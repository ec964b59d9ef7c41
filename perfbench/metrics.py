"""Every metric the benchmark reports: unit, meaning, and for each per-layer
metric the end-to-end metric and workload it is expected to move.

BENCHMARK.json lists the same names and units; test_perfbench.py checks that
the two agree.
"""
from __future__ import annotations

# name -> (unit, meaning)
END_TO_END = {
    "wall_s": ("s", "median wall time of one CLI job, cold per-process caches included"),
    "points_per_s": ("1/s", "output records per second at the median wall time: lattice or "
                            "sweep points, or validate checks"),
    "cpu_s": ("s", "median user+sys time of the job's whole process tree"),
    "peak_rss_mb": ("MB", "largest RSS of any process in any job's tree during the run"),
    "setup_s": ("s", "median time for a fresh interpreter to import qrcost and load the "
                     "workload's config"),
}

# name -> (unit, expected to move: end-to-end metric on workload)
PER_LAYER = {
    "pairs.purify.calls": ("count", "wall_s on sweep_eps_cold (cold gen1 ladders)"),
    "pairs.swap.calls": ("count", "wall_s on sweep_eps_cold (cold gen1 ladders)"),
    "pairs.purify.us_per_call": ("us", "wall_s on sweep_eps_cold"),
    "pairs.swap.us_per_call": ("us", "wall_s on sweep_eps_cold"),
    "binom.tail_at_least.calls": ("count", "wall_s on region_t2 and sweep_eps_cold"),
    "binom.tail_at_least.us_per_call": ("us", "wall_s on region_t2 and sweep_eps_cold"),
    "binom.binomial_pmf.calls": ("count", "wall_s on region_t2 and sweep_eps_cold"),
    "search.gen1.cold_s": ("s", "wall_s and peak_rss_mb on sweep_eps_cold"),
    "search.gen1.warm_ms": ("ms", "points_per_s on region_t2"),
    "search.gen1.configs_per_point": ("count", "points_per_s on region_t2"),
    "cache.gen1_schedule.hits": ("count", "wall_s on sweep_eps_cold"),
    "cache.gen1_schedule.lookups": ("count", "wall_s on sweep_eps_cold"),
    "cache.gen1_schedule.hit_ratio": ("ratio", "wall_s on sweep_eps_cold"),
    "search.gen2_noenc.ms": ("ms", "wall_s on region_t2 and sweep_eps_cold"),
    "search.gen2_enc.ms": ("ms", "wall_s on region_t2 and sweep_eps_cold"),
    "search.gen2_enc.configs_per_point": ("count", "wall_s on region_t2 and sweep_eps_cold"),
    "cache.gen2_flip.hits": ("count", "wall_s on region_t2 and sweep_eps_cold"),
    "cache.gen2_flip.lookups": ("count", "wall_s on region_t2 and sweep_eps_cold"),
    "cache.gen2_flip.hit_ratio": ("ratio", "wall_s on region_t2 and sweep_eps_cold"),
    "search.gen3.cold_ms": ("ms", "wall_s on region_t2; not sweep_eps_cold"),
    "search.gen3.warm_ms": ("ms", "wall_s on region_t2 (reuse along t0); not sweep_eps_cold"),
    "search.gen3.configs_per_point": ("count", "wall_s on region_t2"),
    "cache.gen3_station.hits": ("count", "wall_s on region_t2"),
    "cache.gen3_station.lookups": ("count", "wall_s on region_t2"),
    "cache.gen3_station.hit_ratio": ("ratio", "wall_s on region_t2"),
    "optimize_all.calls": ("count", "points_per_s on region_t2 and sweep_eps_cold"),
    "optimize_all.p50_ms": ("ms", "points_per_s on region_t2 and sweep_eps_cold"),
    "optimize_all.p90_ms": ("ms", "points_per_s on region_t2 and sweep_eps_cold"),
    "optimize.family_share.gen1": ("ratio", "points_per_s on region_t2 and sweep_eps_cold"),
    "optimize.family_share.gen2_noenc": ("ratio", "points_per_s on region_t2 and sweep_eps_cold"),
    "optimize.family_share.gen2_enc": ("ratio", "points_per_s on region_t2 and sweep_eps_cold"),
    "optimize.family_share.gen3": ("ratio", "points_per_s on region_t2 and sweep_eps_cold"),
    "region_map.t1_s": ("s", "wall_s and cpu_s on region_t2"),
    "region_map.scaling_eff": ("ratio", "wall_s and cpu_s on region_t2"),
    "region_map.worker_peak_rss_mb": ("MB", "peak_rss_mb on region_t2"),
    "oracles.mc_qpc_decode.s": ("s", "wall_s on validate_all"),
    "oracles.mc_qpc_decode.trials": ("count", "wall_s on validate_all"),
    "oracles.mc_gen1_waiting_time.s": ("s", "wall_s on validate_all"),
    "oracles.mc_gen1_waiting_time.us_per_trial": ("us", "wall_s on validate_all"),
    "cli.import_s": ("s", "setup_s and wall_s on every workload"),
    "config.load_s": ("s", "setup_s and wall_s on every workload"),
    "cli.dataset_s": ("s", "wall_s on every workload"),
    "trace.overhead_ratio": ("ratio", "none: traced wall over untraced wall of the same job"),
}
