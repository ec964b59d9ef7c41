"""Command-line front end: evaluate, optimize, sweep, region-map, validate.

Datasets are comma-separated tables behind a `# key: value` metadata header;
single evaluations are one JSON record per line. Output never contains
timestamps or host details, so identical inputs give byte-identical files.
Exit codes: 0 success, 1 validation-suite failure, 2 invalid input.
"""
from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import sys
from dataclasses import asdict
from typing import Optional

from . import __version__ as _VERSION
from . import config as cfgmod
from . import gen1, gen3, optimize, oracles
from .config import ConfigError
from .core import Gen1Config, HardwareParams, _check_distance

# The header digest takes CPython's builtin SHA-256, which hashlib itself
# falls back to without OpenSSL: importing hashlib loads libcrypto, 3.4 MB
# per process, for one digest of a few hundred bytes.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        import hashlib
        _sha256 = hashlib.sha256

SCHEMA_VERSION = 1
_UNITS = "distances km, times s, rates sbit/s, cost qubit*s/sbit, cost_coeff qubit*s/(sbit*km)"
_SUITES = ("qpc", "gen1-time", "all")
# below this many trials a 3-sigma comparison has no power; flag, don't fail
_MIN_POWERED_TRIALS = 1000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrcost",
        description="Secret-key rates, resource counts and cost optimization "
        "for three generations of quantum repeaters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "evaluate": "print one cost record for the configuration in [evaluate]",
        "optimize": "best architecture per family at one parameter point",
        "sweep": "optimize along one axis from [sweep]",
        "region-map": "optimize on the (eta_c, eps_g, t0) lattice from [region]",
        "validate": "compare Monte Carlo oracles against the closed forms",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH", help="INI config file (default: $QRCOST_CONFIG)")
        cmd.add_argument(
            "--set",
            metavar="SECTION.KEY=VALUE",
            action="append",
            default=[],
            help="override one config value; repeatable",
        )
        cmd.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        if name == "region-map":
            cmd.add_argument("--threads", type=int, default=1, help="worker processes")
        # validate reads no config, but accepts --config and --set so that one
        # list of overrides serves every subcommand
        if name == "validate":
            cmd.add_argument("suite", help="one of: %s" % ", ".join(_SUITES))
            cmd.add_argument("--trials", type=int, default=100_000, help="samples per comparison")
            cmd.add_argument("--seed", type=int, default=0, help="base seed of the samplers")
    return parser


def _emit(text: str, out_path: Optional[str]) -> None:
    """Write a job's output, once it has run; an output path that cannot be
    written is an input error."""
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _grid_hash(command: str, cfg, sections: tuple[str, ...]) -> str:
    payload = {
        "command": command,
        "config": {section: dict(sorted(cfg[section].items())) for section in sections},
    }
    digest = _sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


def _dataset(command: str, cfg, sections: tuple[str, ...], rows: list[dict]) -> str:
    buffer = io.StringIO()
    buffer.write(f"# schema_version: {SCHEMA_VERSION}\n")
    buffer.write(f"# tool: qrcost {_VERSION}\n")
    buffer.write(f"# command: {command}\n")
    buffer.write(f"# units: {_UNITS}\n")
    buffer.write("# seed_policy: closed-form evaluation, no sampling\n")
    buffer.write(f"# grid_hash: {_grid_hash(command, cfg, sections)}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    columns = list(rows[0].keys()) if rows else []
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[col] for col in columns])
    return buffer.getvalue()


def _axis_problems(params: HardwareParams, axis: str, values) -> list[str]:
    problems = []
    for value in values:
        try:
            if axis == "l_tot":
                _check_distance("l_tot grid value", value)
            else:
                params.with_(**{axis: value})
        except ValueError as exc:
            problems.append(str(exc))
    return problems


def cmd_evaluate(cfg, out_path: Optional[str]) -> int:
    params = cfgmod.hardware(cfg)
    l_tot = cfgmod.total_distance(cfg)
    family, proto = cfgmod.protocol(cfg)
    result = optimize.evaluate_config(params, proto, l_tot)
    record = {
        "schema_version": SCHEMA_VERSION,
        "tool": "qrcost",
        "version": _VERSION,
        "command": "evaluate",
        "units": _UNITS,
        "family": family,
        "config": asdict(proto),
        "hardware": asdict(params),
        "l_tot_km": l_tot,
        "result": {key: _jsonable(value) for key, value in asdict(result).items()},
    }
    _emit(json.dumps(record) + "\n", out_path)
    return 0


def cmd_optimize(cfg, out_path: Optional[str]) -> int:
    params = cfgmod.hardware(cfg)
    l_tot = cfgmod.total_distance(cfg)
    space = cfgmod.search_space(cfg)
    rows = [optimize.report_row(params, l_tot, optimize.optimize_all(params, l_tot, space))]
    sections = ("hardware", "search.gen1", "search.gen2", "search.gen3")
    _emit(_dataset("optimize", cfg, sections, rows), out_path)
    return 0


def cmd_sweep(cfg, out_path: Optional[str]) -> int:
    params = cfgmod.hardware(cfg)
    l_tot = cfgmod.total_distance(cfg)
    space = cfgmod.search_space(cfg)
    axis, values = cfgmod.sweep_spec(cfg)
    problems = _axis_problems(params, axis, values)
    if problems:
        raise ConfigError("sweep: " + "; ".join(problems))
    rows = optimize.sweep(axis, values, params, l_tot, space)
    sections = ("hardware", "search.gen1", "search.gen2", "search.gen3", "sweep")
    _emit(_dataset("sweep", cfg, sections, rows), out_path)
    return 0


def cmd_region_map(cfg, out_path: Optional[str], threads: int) -> int:
    if threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    params = cfgmod.hardware(cfg)
    l_tot = cfgmod.total_distance(cfg)
    space = cfgmod.search_space(cfg)
    eta_values, eps_values, t0_values = cfgmod.region_grids(cfg)
    problems = (
        _axis_problems(params, "eta_c", eta_values)
        + _axis_problems(params, "eps_g", eps_values)
        + _axis_problems(params, "t0", t0_values)
    )
    if problems:
        raise ConfigError("region: " + "; ".join(problems))
    rows = optimize.region_map(eta_values, eps_values, t0_values, l_tot, space, params, threads)
    sections = ("hardware", "search.gen1", "search.gen2", "search.gen3", "region")
    _emit(_dataset("region-map", cfg, sections, rows), out_path)
    return 0


def _check(lines: list[str], status: str, name: str, detail: str) -> bool:
    lines.append(f"{status:<12} {name}: {detail}")
    return status == "FAIL"


def _verdict(lines: list[str], name: str, trials: int, judge) -> bool:
    """One comparison over `trials` samples: flagged and skipped when they are
    too few, otherwise judged by judge() -> (passed, detail)."""
    if trials < _MIN_POWERED_TRIALS:
        detail = f"trials={trials} < {_MIN_POWERED_TRIALS}, comparison skipped"
        return _check(lines, "UNDERPOWERED", name, detail)
    passed, detail = judge()
    return _check(lines, "PASS" if passed else "FAIL", name, detail)


def _qpc_checks(lines: list[str], trials: int, seed: int) -> bool:
    failed = False
    cases = [(3, 3, 0.95, 0.01), (4, 4, 0.9, 0.02)]
    for n, m, mu, eps_q in cases:
        for basis in ("z", "x"):
            name = f"qpc decode basis={basis} n={n} m={m} mu={mu} eps_q={eps_q}"
            est = oracles.mc_qpc_decode(n, m, mu, eps_q, basis, trials=trials, seed=seed)
            ref = gen3.decode_probs(n, m, mu, eps_q, basis)
            sigmas = []
            for got, want, se in zip(
                (est.p_correct, est.p_incorrect, est.p_unknown),
                ref,
                (est.se_correct, est.se_incorrect, est.se_unknown),
            ):
                sigmas.append(abs(got - want) / max(se, 1.0 / trials))
            worst = max(sigmas)
            failed |= _verdict(
                lines, name, trials,
                lambda: (worst <= 3.0, f"max deviation {worst:.2f} sigma (limit 3)"),
            )
    est = oracles.mc_qpc_decode(4, 4, 1.0, 0.0, "z", trials=min(trials, 10_000), seed=seed)
    exact = (est.p_correct, est.p_incorrect, est.p_unknown) == (1.0, 0.0, 0.0)
    failed |= _check(
        lines, "PASS" if exact else "FAIL", "qpc decode lossless noiseless identity",
        f"(p_correct, p_incorrect, p_unknown) = ({est.p_correct}, {est.p_incorrect}, {est.p_unknown})",
    )
    return failed


def _gen1_time_checks(lines: list[str], trials: int, seed: int) -> bool:
    failed = False
    band = 0.15
    perfect = HardwareParams.ideal_gates(eta_c=0.9, eps_g=0.0, eps_d=0.0)
    example = HardwareParams(eta_c=0.9, eps_g=1e-3, eps_d=0.0, t0=1e-6)

    def banded(name: str, scheme: str, levels: int, rounds, params, l_tot, n_trials):
        nonlocal failed
        analytic = gen1.waiting_time(params, Gen1Config(scheme, levels, tuple(rounds)), l_tot)
        est = oracles.mc_gen1_waiting_time(
            scheme, levels, tuple(rounds), params, l_tot, trials=n_trials, seed=seed
        )
        rel = est.mean_s / analytic - 1.0
        failed |= _verdict(
            lines, name, n_trials,
            lambda: (abs(rel) <= band, f"mc/analytic - 1 = {rel:+.3%} (band +-{band:.0%})"),
        )
        return est

    one = banded(
        "gen1 time levels=1 no purification, perfect gates",
        "deutsch", 1, (0, 0), perfect, 100.0, trials,
    )
    two = banded(
        "gen1 time levels=1 no purification, doubled trials",
        "deutsch", 1, (0, 0), perfect, 100.0, 2 * trials,
    )
    banded(
        "gen1 time levels=0 elementary generation",
        "deutsch", 0, (0,), example, 25.0, trials,
    )

    def scaling():
        ratio = one.std_error_s / two.std_error_s
        detail = f"se(n)/se(2n) = {ratio:.4f} (want sqrt(2) +- 0.1)"
        return abs(ratio - math.sqrt(2.0)) <= 0.1, detail

    failed |= _verdict(lines, "gen1 time standard-error scaling", trials, scaling)

    # certain-success limit: every sample must equal the analytic value exactly
    stream = oracles._UniformStream(oracles._partition_rng(seed, 0))
    samples = {oracles._sample_deutsch(stream, ((),), 0, 1.0, 5.0e-4, 0.0) for _ in range(1000)}
    exact = samples == {5.0e-4}
    failed |= _check(
        lines, "PASS" if exact else "FAIL", "gen1 time certain-success limit",
        f"distinct sample values {sorted(samples)} (want exactly [0.0005])",
    )

    # the (3/2) retry shortcut overstates deep ladders; report, never judge
    deep = Gen1Config("deutsch", 2, (1, 1, 0))
    analytic = gen1.waiting_time(example, deep, 100.0)
    est = oracles.mc_gen1_waiting_time(
        "deutsch", 2, (1, 1, 0), example, 100.0, trials=min(trials, 20_000), seed=seed
    )
    _check(
        lines, "INFO", "gen1 time levels=2 rounds=1,1,0 retry-factor bias",
        f"mc/analytic - 1 = {est.mean_s / analytic - 1.0:+.1%} (documented approximation gap)",
    )
    return failed


def cmd_validate(suite: str, trials: int, seed: int, out_path: Optional[str]) -> int:
    if suite not in _SUITES:
        print(f"error: unknown suite {suite!r} (known: {', '.join(_SUITES)})", file=sys.stderr)
        return 2
    if trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 2
    if seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    lines = [
        f"# schema_version: {SCHEMA_VERSION}",
        f"# tool: qrcost {_VERSION}",
        f"# command: validate {suite}",
        f"# generator: {oracles.GENERATOR_NAME}",
        f"# seed: {seed}",
        f"# trials: {trials}",
    ]
    failed = False
    if suite in ("qpc", "all"):
        failed |= _qpc_checks(lines, trials, seed)
    if suite in ("gen1-time", "all"):
        failed |= _gen1_time_checks(lines, trials, seed)
    statuses = [line.split()[0] for line in lines if not line.startswith("#")]
    summary = (
        f"RESULT {'FAIL' if failed else 'PASS'} "
        f"checks={len(statuses)} failed={statuses.count('FAIL')} "
        f"underpowered={statuses.count('UNDERPOWERED')}"
    )
    lines.append(summary)
    _emit("\n".join(lines) + "\n", out_path)
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.suite, args.trials, args.seed, args.out)
        cfg = cfgmod.load_config(args.config, tuple(args.set))
        out = args.out or cfgmod.output_path(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, out)
        if args.command == "optimize":
            return cmd_optimize(cfg, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, out)
        if args.command == "region-map":
            return cmd_region_map(cfg, out, args.threads)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(argv=None) -> int:
    """main() for a process that exits next: the console script and `python
    -m qrcost`. Freezing the heap first spares interpreter shutdown a full
    collection of objects the OS is about to discard."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
