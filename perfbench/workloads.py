"""Workload definitions and the seeded input generator.

Every workload is one batch CLI job. The seed only chooses the grid values
that reach the program, and it reaches it only as `--set` overrides. Seed 0
gives exactly the documented grids (the same floats `linear:`/`log:` grids
parse to); any other seed moves each grid point by at most 2% of its local
step, inside the same range and with the same count. The search cost of a
point depends on where it sits (eps_g sets the purification depth), so a
small move keeps the work of every seed close to that of seed 0 while the
output changes.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace

import numpy as np

# (kind, start, stop, count) as in the CLI's `kind:start:stop:count` grids
Axis = tuple[str, float, float, int]

_JITTER = 0.02  # largest move of a grid point, as a share of its local step


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple[str, ...]  # qrcost subcommand and fixed flags
    axes: tuple[tuple[str, Axis], ...]  # config key -> seeded grid
    command_kind: str  # "region-map", "sweep" or "validate"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="region_t2",
            why=(
                "the users' main job: 9 of 10 points reuse a warm (eta_c, eps_g) cell,"
                " over a 2-worker process pool with per-worker cold caches"
            ),
            command=("region-map", "--threads", "2"),
            axes=(
                ("region.eta_c", ("linear", 0.1, 1.0, 4)),
                ("region.eps_g", ("log", 1e-4, 3e-2, 4)),
                ("region.t0", ("log", 1e-7, 1e-4, 10)),
            ),
            command_kind="region-map",
        ),
        Workload(
            name="sweep_eps_cold",
            why=(
                "every point has a new eps_g, so no cross-point cache helps:"
                " cold gen1 schedule summaries dominate, single process"
            ),
            command=("sweep", "--set", "sweep.axis=eps_g"),
            axes=(("sweep.values", ("log", 1e-4, 3e-2, 10)),),
            command_kind="sweep",
        ),
        # runnable by hand; left out of BENCHMARK.json, see README.md
        Workload(
            name="validate_all",
            why=(
                "the only workload on the oracles layer (Philox QPC sampler and"
                " pure-Python gen1 waiting-time sampler); no search runs"
            ),
            command=("validate", "all"),
            axes=(),
            command_kind="validate",
        ),
    )
}

# fixed small lattice that measures the region-map and search layers on the
# workloads that do not reach them; see README.md
PROBE_REGION = Workload(
    name="probe_region",
    why="region-map and search layers on workloads that skip them",
    command=("region-map", "--threads", "2"),
    axes=(
        ("region.eta_c", ("linear", 0.9, 0.9, 1)),
        ("region.eps_g", ("log", 1e-3, 1e-2, 2)),
        ("region.t0", ("log", 1e-6, 1e-5, 2)),
    ),
    command_kind="region-map",
)

# fixed small validate run that measures the oracles layer elsewhere
PROBE_ORACLES = Workload(
    name="probe_oracles",
    why="oracles layer on workloads that skip it",
    command=("validate", "all", "--trials", "2000"),
    axes=(),
    command_kind="validate",
)


def grid(axis: Axis, rng: random.Random | None) -> tuple[float, ...]:
    """The documented grid when rng is None, else a jittered copy of it."""
    kind, start, stop, count = axis
    space = np.linspace if kind == "linear" else np.geomspace
    base = [float(v) for v in space(start, stop, count)]
    if rng is None or count == 1:
        return tuple(base)
    fwd = (lambda v: v) if kind == "linear" else np.log
    inv = (lambda v: v) if kind == "linear" else np.exp
    step = (fwd(stop) - fwd(start)) / (count - 1)
    out = []
    for value in base:
        moved = float(inv(fwd(value) + rng.uniform(-_JITTER, _JITTER) * step))
        out.append(min(max(moved, start), stop))
    return tuple(out)


def shrunk(workload: Workload) -> Workload:
    """The workload on at most two values per axis and few validate trials."""
    axes = tuple(
        (key, (kind, start, stop, min(count, 2))) for key, (kind, start, stop, count) in workload.axes
    )
    trials = ("--trials", "2000") if workload.command_kind == "validate" else ()
    return replace(workload, axes=axes, command=workload.command + trials)


def inputs(workload: Workload, seed: int) -> dict[str, tuple[float, ...]]:
    """Seeded grid values per config key; seed 0 is the documented grid."""
    rng = None if seed == 0 else random.Random(f"{workload.name}:{seed}")
    return {key: grid(axis, rng) for key, axis in workload.axes}


def qrcost_args(workload: Workload, values: dict, out_path: str, threads: int | None = None) -> list[str]:
    """Arguments after `python3 -m qrcost` for one job of the workload."""
    args = list(workload.command)
    if threads is not None:
        args[args.index("--threads") + 1] = str(threads)
    for key, grid_values in values.items():
        args += ["--set", f"{key}=" + ",".join(repr(v) for v in grid_values)]
    return args + ["--out", out_path]


def points(workload: Workload, values: dict) -> int:
    """Output records one job produces: lattice points, sweep points, or
    validate checks."""
    if workload.command_kind == "validate":
        return VALIDATE_CHECKS
    count = 1
    for grid_values in values.values():
        count *= len(grid_values)
    return count


VALIDATE_CHECKS = 11
