#!/usr/bin/env python3
"""Benchmark for qrcost: closed-loop batch CLI jobs, a correctness gate, and a
traced per-layer breakdown.

    python3 perfbench/run.py --workload region_t2 --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload sweep_eps_cold --seed 3 --seconds 50 --trace 1
    python3 perfbench/run.py --smoke

With --trace 0 one client runs the workload's CLI job in a fresh process, waits
for it to exit, and starts the next, for about --seconds; it reports the
end-to-end metrics. With --trace 1 it runs the job once in a traced child
process (region_t2 at one worker) plus the untraced jobs the per-layer metrics
need, and reports those. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Run from the repository root or any
copy of it; the program is taken from src/ next to this directory.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

from check import check_output, load_reference
from metrics import END_TO_END, PER_LAYER
from workloads import (
    PROBE_ORACLES, PROBE_REGION, WORKLOADS, Workload, inputs, points, qrcost_args, shrunk,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_JOBS = 2  # jobs per untraced run, however short --seconds is
SETUP_SAMPLES = 21

_SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import qrcost.cli
from qrcost import config
config.load_config(None, tuple(sys.argv[1:]))
print(time.perf_counter() - start)
"""

# search grids shrunk so that --smoke finishes in seconds
_SMOKE_SEARCH = (
    "--set", "search.gen1.max_levels=2",
    "--set", "search.gen2.segment_counts=8,16",
    "--set", "search.gen2.memories=1,2",
    "--set", "search.gen3.spacings_km=1.0,2.0",
    "--set", "search.gen3.max_n=4",
    "--set", "search.gen3.max_m=4",
)


@dataclasses.dataclass
class Job:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    problems: list


class Run:
    """Jobs attempted in one benchmark run and the ones that failed."""

    def __init__(self, workload: Workload, seed, reference: dict, smoke: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.smoke = smoke
        self.values = inputs(workload, 0 if seed is None else seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.dir = os.path.join(OUT_DIR, workload.name)
        os.makedirs(self.dir, exist_ok=True)

    def args(self, out_path: str, threads=None) -> list[str]:
        args = qrcost_args(self.workload, self.values, out_path, threads)
        return args + list(_SMOKE_SEARCH) if self.smoke else args

    def job(self, argv_head: list[str], out_path: str, threads=None) -> Job:
        """Run one job, wait for its whole process tree, check its output."""
        if os.path.exists(out_path):
            os.remove(out_path)
        job = _wait_job(argv_head + self.args(out_path, threads))
        if job.exit_code != 0:
            job.problems.append(f"exit code {job.exit_code}")
        else:
            seed = None if self.smoke else self.seed
            job.problems = check_output(self.workload, seed, self.values, out_path, self.reference)
        self.attempted += 1
        if job.problems:
            self.failures.append(f"{self.workload.name}: {'; '.join(job.problems)}")
        return job

    def merge(self, other: "Run") -> None:
        self.attempted += other.attempted
        self.failures += other.failures

    def cli_job(self, tag: str, threads=None) -> Job:
        out = os.path.join(self.dir, f"{tag}.out")
        return self.job([sys.executable, "-m", "qrcost"], out, threads)

    def traced_job(self, tag: str, threads=None) -> tuple[Job, dict]:
        out = os.path.join(self.dir, f"{tag}.out")
        record_path = os.path.join(self.dir, f"{tag}.trace.json")
        if os.path.exists(record_path):
            os.remove(record_path)
        head = [sys.executable, os.path.join(HERE, "traced.py"), "--record", record_path, "--"]
        job = self.job(head, out, threads)
        try:
            with open(record_path, encoding="utf-8") as handle:
                return job, json.load(handle)
        except OSError as exc:
            self.failures.append(f"{self.workload.name}: no trace record: {exc}")
            return job, {"spans": [], "counters": {}, "caches": {}, "import_s": 0.0}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = os.path.join(OUT_DIR, "tmp")
    env.pop("QRCOST_CONFIG", None)
    return env


def _wait_job(argv: list[str]) -> Job:
    """Start argv, wait for it with wait4 and read the rusage of its tree:
    CPU time includes reaped children, ru_maxrss is the largest process."""
    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=sys.stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Job(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, []
    )


def _overrides(args: list[str]) -> list[str]:
    return [args[i + 1] for i, arg in enumerate(args) if arg == "--set"]


def setup_times(run: Run) -> list[float]:
    """Fresh-interpreter import of qrcost plus loading the workload's config;
    one unmeasured warm-up first so compiled bytecode exists."""
    code = [sys.executable, "-c", _SETUP_CODE] + _overrides(run.args("unused"))
    samples = []
    for index in range(SETUP_SAMPLES + 1):
        done = subprocess.run(code, cwd=ROOT, env=_env(), capture_output=True, text=True, check=True)
        if index:
            samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics of a closed loop of CLI jobs lasting about `seconds`."""
    setup = setup_times(run)
    jobs = []
    start = time.perf_counter()
    while True:
        jobs.append(run.cli_job(f"job{len(jobs) % 2}"))
        walls = [job.wall_s for job in jobs]
        elapsed = time.perf_counter() - start
        # start another job only if it would end within half a job of the budget
        if len(jobs) >= MIN_JOBS and elapsed + statistics.median(walls) / 2 > seconds:
            break
    wall = statistics.median(walls)
    print(f"info jobs={len(jobs)} walls_s={[round(w, 3) for w in walls]}")
    return {
        "wall_s": wall,
        "points_per_s": points(run.workload, run.values) / wall,
        "cpu_s": statistics.median(job.cpu_s for job in jobs),
        "peak_rss_mb": max(job.rss_mb for job in jobs),
        "setup_s": statistics.median(setup),
    }


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics one trace record supports. Call and cache counts are
    always reported; a time or ratio is left out when the record holds no
    call it could be measured on."""
    spans, counters, caches = record["spans"], record["counters"], record["caches"]
    out = {}
    for name in ("pairs.purify", "pairs.swap", "binom.tail_at_least", "binom.binomial_pmf"):
        out[f"{name}.calls"] = counters.get(name, {}).get("calls", 0)
    for cache, stats in caches.items():
        out[f"cache.{cache}.hits"] = stats["hits"]
        out[f"cache.{cache}.lookups"] = stats["lookups"]
        if stats["lookups"]:
            out[f"cache.{cache}.hit_ratio"] = stats["hits"] / stats["lookups"]

    def named(name):
        return [span for span in spans if span["name"] == name]

    family = {f: [s for s in named("optimize.optimize_family") if s["family"] == f]
              for f in ("gen1", "gen2_noenc", "gen2_enc", "gen3")}
    for fam, miss_key, cold_name, cold_scale, warm_name in (
        ("gen1", "cache.gen1_schedule.misses", "search.gen1.cold_s", 1.0, "search.gen1.warm_ms"),
        ("gen3", "cache.gen3_station.misses", "search.gen3.cold_ms", 1e3, "search.gen3.warm_ms"),
    ):
        cold = [_duration(s) for s in family[fam] if s["counts"].get(miss_key)]
        warm = [_duration(s) for s in family[fam] if not s["counts"].get(miss_key)]
        if cold:
            out[cold_name] = statistics.median(cold) * cold_scale
        if warm:
            out[warm_name] = statistics.median(warm) * 1e3
    for fam, count_key in (
        ("gen1", "optimize.gen1_candidates.items"),
        ("gen2_enc", "gen2.evaluate_encoded"),
        ("gen3", "gen3.evaluate"),
    ):
        if family[fam]:
            out[f"search.{fam}.configs_per_point"] = statistics.median(
                s["counts"].get(count_key, 0) for s in family[fam])
    for fam in ("gen2_noenc", "gen2_enc"):
        if family[fam]:
            out[f"search.{fam}.ms"] = statistics.median(_duration(s) for s in family[fam]) * 1e3
    total = sum(_duration(s) for spans_ in family.values() for s in spans_)
    if total:
        for fam, spans_ in family.items():
            out[f"optimize.family_share.{fam}"] = sum(_duration(s) for s in spans_) / total

    all_calls = [_duration(s) * 1e3 for s in named("optimize.optimize_all")]
    out["optimize_all.calls"] = len(all_calls)
    if all_calls:
        out["optimize_all.p50_ms"] = statistics.median(all_calls)
        out["optimize_all.p90_ms"] = _percentile(all_calls, 0.9)
    for oracle in ("mc_qpc_decode", "mc_gen1_waiting_time"):
        calls = named(f"oracles.{oracle}")
        if calls:
            seconds = sum(_duration(s) for s in calls)
            trials = sum(s["trials"] for s in calls)
            out[f"oracles.{oracle}.s"] = seconds
            if oracle == "mc_qpc_decode":
                out[f"oracles.{oracle}.trials"] = trials
            else:
                out[f"oracles.{oracle}.us_per_trial"] = seconds / trials * 1e6
    for name, span_name in (("config.load_s", "config.load_config"), ("cli.dataset_s", "cli.dataset")):
        calls = named(span_name)
        if calls:
            out[name] = sum(_duration(s) for s in calls)
    out["cli.import_s"] = record["import_s"]
    return out


def _region_metrics(t1: Job, t2: Job) -> dict:
    return {
        "region_map.t1_s": t1.wall_s,
        "region_map.scaling_eff": t1.wall_s / (2.0 * t2.wall_s),
        "region_map.worker_peak_rss_mb": t2.rss_mb,
    }


def _microbench(run: Run) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "traced.py"), "--microbench"],
        cwd=ROOT, env=_env(), capture_output=True, text=True,
    )
    run.attempted += 1
    if done.returncode != 0:
        run.failures.append(f"microbench: exit code {done.returncode}: {done.stderr.strip()}")
        return {}
    return json.loads(done.stdout.strip().splitlines()[-1])


def trace(run: Run) -> tuple[dict, list[str]]:
    """Per-layer metrics from one traced run of the workload, filled in from
    fixed probes for layers the workload does not reach. Returns the metrics
    and the names that came from a probe."""
    region = run.workload.command_kind == "region-map"
    threads = 1 if region else None
    traced, record = run.traced_job("traced", threads)
    untraced = run.cli_job("untraced", threads)
    metrics = layer_metrics(record)
    metrics["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    if region:
        metrics.update(_region_metrics(untraced, run.cli_job("threads2")))
    probes = {}
    if not region:
        probe = Run(PROBE_REGION, None, run.reference, run.smoke)
        _, probe_record = probe.traced_job("traced", threads=1)
        probes.update(layer_metrics(probe_record))
        probes.update(_region_metrics(probe.cli_job("untraced", threads=1), probe.cli_job("threads2")))
        run.merge(probe)
    if "oracles.mc_qpc_decode.s" not in metrics:
        probe = Run(PROBE_ORACLES, None, run.reference, run.smoke)
        probes.update(layer_metrics(probe.traced_job("traced")[1]))
        run.merge(probe)
    metrics.update(_microbench(run))
    filled = sorted(name for name in probes if name not in metrics)
    for name in filled:
        metrics[name] = probes[name]
    return metrics, filled


def stamp(args) -> dict:
    files = sorted(
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(os.path.join(SRC, "qrcost"))
        for name in names if name.endswith(".py")
    )
    digest = hashlib.sha256()
    for path in files:
        with open(path, "rb") as handle:
            digest.update(os.path.relpath(path, SRC).encode() + b"\0" + handle.read())
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "load": "closed loop, 1 client: the benchmark process plus one CLI job at a time"
                " (region_t2 and region probes: plus at most 2 pool workers)",
    }


def _print_metrics(prefix: str, metrics: dict, units: dict) -> dict:
    out = {}
    for name, (unit, _) in units.items():
        value = metrics[name]
        print(f"metric {prefix}{name} {value!r} {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def _print_result(attempted: int, failures: list[str], reported: dict) -> None:
    """The failure lines, then the result object as the last stdout line."""
    print(f"info failed_ratio={len(failures)}/{attempted}")
    for failure in failures:
        print(f"FAIL {failure}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": reported,
    }))


def benchmark(args) -> int:
    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, load_reference())
    print("stamp " + json.dumps(stamp(args)))
    if args.trace:
        metrics, filled = trace(run)
        units = PER_LAYER
        print(f"info per-layer metrics measured on fixed probes: {filled}")
    else:
        metrics = measure(run, args.seconds)
        units = END_TO_END
    _print_result(run.attempted, run.failures, _print_metrics("", metrics, units))
    return 0


def smoke() -> int:
    """Every workload on tiny inputs and shrunk search grids, untraced and
    traced: prints every metric name with its unit in a few seconds."""
    reference = {}
    attempted, failures, reported = 0, [], {}
    for workload in WORKLOADS.values():
        for traced in (False, True):
            run = Run(shrunk(workload), None, reference, smoke=True)
            metrics = trace(run)[0] if traced else measure(run, 0.0)
            units = PER_LAYER if traced else END_TO_END
            for name, entry in _print_metrics(f"{workload.name}/", metrics, units).items():
                reported[f"{workload.name}/{name}"] = entry
            attempted += run.attempted
            failures += run.failures
    _print_result(attempted, failures, reported)
    return 0 if not failures else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every metric, no timing claims")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qrcost", "cli.py")):
        print(f"error: no qrcost sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
