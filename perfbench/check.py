"""Correctness gate for one job's output.

A job passes when it exited 0 and its output bytes hash to the value recorded
in reference.json for that workload and seed. For a seed with no recorded
hash the gate falls back to structural checks: schema header, column header,
row count, the generated grid values in lattice order, and every winner's
cost_coeff equal to the smallest cost_coeff_<family> column.
"""
from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os

from workloads import VALIDATE_CHECKS, Workload

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

FAMILIES = ("gen1", "gen2_noenc", "gen2_enc", "gen3")
COLUMNS = [
    "eta_c", "eps_g", "t0", "l_tot_km", "winner", "config", "rate_sbits_per_s",
    "cost", "cost_coeff", "feasible",
] + [f"cost_coeff_{family}" for family in FAMILIES]
VALIDATE_RESULT = f"RESULT PASS checks={VALIDATE_CHECKS} failed=0"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["sha256"]


def sha256_of(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _expected_keys(workload: Workload, values: dict) -> list[tuple[float, ...]]:
    if workload.command_kind == "region-map":
        return list(itertools.product(
            values["region.eta_c"], values["region.eps_g"], values["region.t0"]
        ))
    return [(v,) for v in values["sweep.values"]]


def structural_problems(workload: Workload, values: dict, text: str) -> list[str]:
    """Reasons the output is malformed; empty when it looks right."""
    lines = text.splitlines()
    if workload.command_kind == "validate":
        if not lines or not lines[-1].startswith(VALIDATE_RESULT):
            return [f"last line is not {VALIDATE_RESULT!r}"]
        return []
    header = [line for line in lines if line.startswith("#")]
    problems = []
    if header[:3] != [
        "# schema_version: 1", "# tool: qrcost 0.1.0", f"# command: {workload.command_kind}",
    ]:
        problems.append(f"unexpected schema header {header[:3]}")
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[len(header):]))))
    if rows and list(rows[0]) != COLUMNS:
        problems.append(f"unexpected columns {list(rows[0])}")
        return problems
    want = _expected_keys(workload, values)
    if len(rows) != len(want):
        return problems + [f"{len(rows)} rows, expected {len(want)}"]
    axes = ("eta_c", "eps_g", "t0") if workload.command_kind == "region-map" else ("eps_g",)
    for index, (row, key) in enumerate(zip(rows, want)):
        if tuple(float(row[axis]) for axis in axes) != key:
            problems.append(f"row {index}: grid values {[row[a] for a in axes]} != {key}")
        best = min(float(row[f"cost_coeff_{family}"]) for family in FAMILIES)
        if float(row["cost_coeff"]) != best:
            problems.append(f"row {index}: winner cost_coeff {row['cost_coeff']} != min {best}")
    return problems


def check_output(
    workload: Workload, seed: int | None, values: dict, path: str, reference: dict
) -> list[str]:
    """Reasons the job output at `path` is wrong; empty when it is correct.
    `seed` None skips the hash lookup (fixed probe inputs)."""
    try:
        digest = sha256_of(path)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return [f"cannot read output: {exc}"]
    want = reference.get(workload.name, {}).get(str(seed)) if seed is not None else None
    if want is not None:
        return [] if digest == want else [f"sha256 {digest} != reference {want}"]
    return structural_problems(workload, values, text)
