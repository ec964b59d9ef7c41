"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import traced  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, inputs, qrcost_args  # noqa: E402

from qrcost import binom, cli, config, gen1, gen2, gen3, optimize, oracles, pairs  # noqa: E402

MODULES = {
    "binom": binom, "cli": cli, "config": config, "gen1": gen1, "gen2": gen2,
    "gen3": gen3, "optimize": optimize, "oracles": oracles, "pairs": pairs,
}


def test_smoke_prints_every_metric_with_its_unit():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _value, unit = line.split(" ")
            printed[name] = unit
    for workload in WORKLOADS:
        for name, (unit, _) in {**END_TO_END, **PER_LAYER}.items():
            assert printed.get(f"{workload}/{name}") == unit, (workload, name)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_benchmark_json_agrees_with_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why, entry["name"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _) in END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in PER_LAYER.items()
    }


def test_seed_zero_reproduces_documented_grids():
    region = inputs(WORKLOADS["region_t2"], 0)
    assert region["region.eta_c"] == config.parse_grid("linear:0.1:1.0:4", "eta_c")
    assert region["region.eps_g"] == config.parse_grid("log:1e-4:3e-2:4", "eps_g")
    assert region["region.t0"] == config.parse_grid(config.DEFAULTS["region"]["t0"], "t0")
    sweep = inputs(WORKLOADS["sweep_eps_cold"], 0)
    assert sweep["sweep.values"] == config.parse_grid(config.DEFAULTS["sweep"]["values"], "values")


def test_seeded_inputs_stay_in_range_and_repeat():
    for workload in WORKLOADS.values():
        for seed in (1, 2, 99):
            values = inputs(workload, seed)
            assert values == inputs(workload, seed)
            for key, (_, start, stop, count) in workload.axes:
                grid = values[key]
                assert len(grid) == count
                assert all(start <= v <= stop for v in grid)
                assert list(grid) == sorted(grid)
    assert inputs(WORKLOADS["region_t2"], 1) != inputs(WORKLOADS["region_t2"], 2)


def test_program_receives_only_set_overrides():
    args = qrcost_args(WORKLOADS["sweep_eps_cold"], inputs(WORKLOADS["sweep_eps_cold"], 5), "o.csv")
    assert args[0] == "sweep" and args[-2:] == ["--out", "o.csv"]
    flags = [a for a in args[1:-2] if a.startswith("--")]
    assert set(flags) == {"--set"}


def _sweep_text(winner_coeff: str) -> str:
    header = (
        "# schema_version: 1\n# tool: qrcost 0.1.0\n# command: sweep\n"
        "# units: u\n# seed_policy: p\n# grid_hash: h\n"
    )
    return header + ",".join(check.COLUMNS) + "\n" + (
        f'0.9,0.001,1e-06,1000.0,gen1,"x",1.0,1.0,{winner_coeff},True,0.5,0.7,inf,inf\n'
    )


def test_structural_check_catches_a_wrong_winner():
    workload = WORKLOADS["sweep_eps_cold"]
    values = {"sweep.values": (0.001,)}
    assert check.structural_problems(workload, values, _sweep_text("0.5")) == []
    assert check.structural_problems(workload, values, _sweep_text("0.7"))
    assert check.structural_problems(workload, {"sweep.values": (0.002,)}, _sweep_text("0.5"))
    validate = WORKLOADS["validate_all"]
    assert check.structural_problems(validate, {}, "x\nRESULT PASS checks=11 failed=0 underpowered=0\n") == []
    assert check.structural_problems(validate, {}, "x\nRESULT FAIL checks=11 failed=1 underpowered=0\n")


def test_hooks_name_functions_the_package_has():
    for module, attr, *_ in traced.SPAN_HOOKS + traced.COUNTER_HOOKS:
        assert callable(getattr(MODULES[module], attr)), (module, attr)
    for module, attr in traced.CACHES.values():
        assert hasattr(getattr(MODULES[module], attr), "cache_info"), (module, attr)


def test_tracer_self_time_excludes_hooked_children(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(traced.time, "perf_counter", lambda: float(next(ticks)))
    tracer = traced.Tracer()
    inner = tracer.counter("inner", lambda: None)
    outer = tracer.span("outer", lambda: inner())
    outer()
    span = tracer.record()["spans"][0]
    assert span["end"] - span["start"] == 3.0  # start, inner start, inner end, end
    assert span["self_s"] == 2.0
    assert span["counts"] == {"inner": 1}
    assert tracer.record()["counters"]["inner"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0, "items": 0}

