import ast
import errno
import gc
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import qrcost
from qrcost import cli, config, gen1, optimize
from qrcost.cli import main
from qrcost.core import Gen1Config, Gen2NoEncConfig, HardwareParams, segment_count
from qrcost.optimize import (
    FAMILIES,
    Gen1Search,
    Gen2Search,
    Gen3Search,
    SearchSpace,
    evaluate_config,
)

_FAST_SPACE = [
    "--set", "search.gen1.max_levels=3",
    "--set", "search.gen1.max_rounds=1",
    "--set", "search.gen2.segment_counts=4,16,64",
    "--set", "search.gen2.memories=4,16",
    "--set", "search.gen2.gen_rounds=1,2",
    "--set", "search.gen3.spacings_km=1,2",
    "--set", "search.gen3.max_n=8",
    "--set", "search.gen3.max_m=8",
]

_PERFECT_CHANNEL = [
    "--set", "hardware.eta_c=1.0",
    "--set", "hardware.eps_g=0.0",
    "--set", "hardware.l_att=1e18",
]


def test_evaluate_emits_json_record(capsys):
    assert main(["evaluate"] + _PERFECT_CHANNEL) == 0
    first = capsys.readouterr().out
    record = json.loads(first)
    assert record["schema_version"] == 1
    assert record["tool"] == "qrcost" and record["command"] == "evaluate"
    assert record["family"] == "gen3"
    assert record["config"] == {"n": 5, "m": 5, "spacing_km": 1.0}
    assert record["hardware"]["eta_c"] == 1.0
    assert record["l_tot_km"] == 1000.0
    assert record["result"]["feasible"] is True
    assert math.isclose(record["result"]["rate_sbits_per_s"], 1e6, rel_tol=1e-9)
    assert math.isclose(record["result"]["cost"], 0.05, rel_tol=1e-9)
    assert math.isclose(record["result"]["cost_coeff"], 5e-5, rel_tol=1e-9)
    assert main(["evaluate"] + _PERFECT_CHANNEL) == 0
    assert capsys.readouterr().out == first


def test_error_exits(capsys):
    for argv in [
        ["evaluate", "--set", "hardware.eta_c=1.5"],
        ["evaluate", "--set", "hardware.xi=abc"],
        ["evaluate", "--set", "hardware.bogus=1"],
        ["evaluate", "--set", "nosuchsection.x=1"],
        ["evaluate", "--set", "hardware.eta_c"],  # missing '='
        ["evaluate", "--config", "/nonexistent/qrcost.ini"],
        ["sweep", "--set", "sweep.axis=bogus"],
        ["sweep", "--set", "sweep.values=-1,1e-3"],
        ["validate", "nosuchsuite"],
        ["validate", "qpc", "--seed", "-1", "--trials", "10"],
    ]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "error" in err.lower(), argv


def test_non_finite_hardware_exits_naming_the_key(capsys):
    for command, key, value in [
        ("evaluate", "t0", "nan"),
        ("evaluate", "l_att", "nan"),
        ("evaluate", "t0", "inf"),
        ("evaluate", "c_fiber", "-inf"),
    ]:
        assert main([command, "--set", f"hardware.{key}={value}"]) == 2, (key, value)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, (key, value, err)
    # every total distance goes through one check (core._check_distance)
    for value in ("nan", "inf"):
        assert main(["optimize", "--set", f"hardware.l_tot={value}"]) == 2, value
        want = f"error: hardware.l_tot must be finite and > 0, got {value}\n"
        assert capsys.readouterr().err == want
    assert main(["sweep", "--set", "sweep.axis=l_tot", "--set", "sweep.values=100,nan"]) == 2
    assert capsys.readouterr().err == "error: sweep: l_tot grid value must be finite and > 0, got nan\n"


# per hardware field: NaN, +-inf, a value below its range and one above it
# (t0, l_att and c_fiber have no finite value above theirs)
_BAD_HARDWARE = {
    "eta_c": (-0.1, 1.5),
    "eps_g": (-1e-3, 0.05),
    "xi": (-0.1, 0.6),
    "eps_d": (-0.1, 1.5),
    "t0": (0.0, -1e-6),
    "l_att": (0.0, -1.0),
    "c_fiber": (0.0, -2e5),
}


@pytest.mark.parametrize("field", list(_BAD_HARDWARE))
def test_bad_hardware_raises_one_message_everywhere(field, capsys, monkeypatch):
    # HardwareParams checks its own ranges; with_ and the config build
    # through it, so all three name the field with one message
    monkeypatch.setattr(optimize, "optimize_all", lambda *args: pytest.fail("the search ran"))
    for value in (math.nan, math.inf, -math.inf, *_BAD_HARDWARE[field]):
        with pytest.raises(ValueError) as built:
            HardwareParams(**{field: value})
        message = str(built.value)
        assert f"{field} must " in message, (field, value, message)
        with pytest.raises(ValueError) as moved:
            HardwareParams().with_(**{field: value})
        assert str(moved.value) == message
        assert main(["optimize", "--set", f"hardware.{field}={value}"]) == 2
        assert capsys.readouterr().err == f"error: hardware: {message}\n"


def test_hardware_range_edges_are_accepted(capsys):
    # eta_c = 0 builds: no photon couples, so every family is infeasible
    for field, edges in [("eta_c", (0.0, 1.0)), ("eps_g", (0.0, 0.04)), ("xi", (0.0, 0.5)),
                         ("eps_d", (0.0, 1.0)), ("t0", (5e-324,)), ("c_fiber", (1.7e308,))]:
        for value in edges:
            assert getattr(HardwareParams(**{field: value}), field) == value
    assert main(["optimize", "--set", "hardware.eta_c=0"] + _FAST_SPACE) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[4:6] == ["none", ""]


def test_ideal_gates_is_the_only_zero_gate_time():
    perfect = HardwareParams.ideal_gates(eta_c=0.9, eps_g=0.0)
    assert perfect.t0 == 0.0 and perfect.eta_c == 0.9 and perfect.xi == 0.0
    with pytest.raises(ValueError, match="eta_c must lie in"):
        HardwareParams.ideal_gates(eta_c=1.5)
    with pytest.raises(TypeError):
        HardwareParams.ideal_gates(t0=1e-6)
    with pytest.raises(ValueError, match="t0 must be finite and > 0, got 0.0"):
        perfect.with_(eta_c=0.8)


def test_bad_axis_values_are_all_named(capsys, monkeypatch):
    monkeypatch.setattr(optimize, "sweep", lambda *args: pytest.fail("the sweep ran"))
    monkeypatch.setattr(optimize, "region_map", lambda *args: pytest.fail("the map ran"))
    argv = ["sweep", "--set", "sweep.axis=eta_c", "--set", "sweep.values=0.5,1.5,0.7,nan"]
    assert main(argv) == 2
    want = "sweep: eta_c must lie in [0, 1], got 1.5; eta_c must lie in [0, 1], got nan"
    assert capsys.readouterr().err == f"error: {want}\n"
    argv = ["region-map", "--set", "region.eta_c=2,0.5", "--set", "region.t0=1e-6,0"]
    assert main(argv) == 2
    want = "region: eta_c must lie in [0, 1], got 2.0; t0 must be finite and > 0, got 0.0"
    assert capsys.readouterr().err == f"error: {want}\n"


def test_evaluate_every_family_through_config(capsys, monkeypatch):
    monkeypatch.delenv("QRCOST_CONFIG", raising=False)
    for family in FAMILIES:
        override = f"evaluate.family={family}"
        assert main(["evaluate", "--set", override]) == 0
        record = json.loads(capsys.readouterr().out)
        cfg = config.load_config(None, (override,), env={})
        name, proto = config.protocol(cfg)
        result = evaluate_config(config.hardware(cfg), proto, config.total_distance(cfg))
        assert record["family"] == name == family
        assert record["config"] == json.loads(json.dumps(asdict(proto)))
        assert record["result"] == {
            k: v if not isinstance(v, float) or math.isfinite(v) else None
            for k, v in asdict(result).items()
        }
    assert main(["evaluate", "--set", "evaluate.family=gen5"]) == 2
    err = capsys.readouterr().err
    assert "gen5" in err and all(family in err for family in FAMILIES)


def test_non_finite_spacing_exits_naming_the_key(capsys):
    for family in ("gen2_noenc", "gen2_enc", "gen3"):
        for value in ("nan", "inf"):
            argv = ["evaluate", "--set", f"evaluate.family={family}",
                    "--set", f"evaluate.spacing_km={value}"]
            assert main(argv) == 2, (family, value)
            captured = capsys.readouterr()
            assert captured.out == ""
            want = f"error: evaluate: spacing_km must be finite and > 0, got {value}\n"
            assert captured.err == want, (family, value)


def test_evaluate_error_messages_name_the_key(capsys):
    for override, want in [
        ("evaluate.n=five", "evaluate.n: not an integer: 'five'"),
        ("evaluate.code=hamming", "evaluate.code: unknown code 'hamming'"),
    ]:
        family = "gen2_enc" if "code" in override else "gen3"
        argv = ["evaluate", "--set", f"evaluate.family={family}", "--set", override]
        assert main(argv) == 2
        assert want in capsys.readouterr().err


# each override, and the search dataclass built directly from the same value
_INVALID_SEARCH = [
    ("search.gen1.schemes=deutsch,x", Gen1Search, {"schemes": ("deutsch", "x")}),
    ("search.gen1.min_levels=-1", Gen1Search, {"min_levels": -1}),
    ("search.gen1.min_levels=8", Gen1Search, {"min_levels": 8}),
    ("search.gen1.max_rounds=-1", Gen1Search, {"max_rounds": -1}),
    ("search.gen2.segment_counts=0", Gen2Search, {"segment_counts": (0,)}),
    ("search.gen2.segment_counts=4,-2", Gen2Search, {"segment_counts": (4, -2)}),
    ("search.gen2.memories=0", Gen2Search, {"memories": (0,)}),
    ("search.gen2.gen_rounds=1,0", Gen2Search, {"gen_rounds": (1, 0)}),
    ("search.gen2.min_spacing_km=-1", Gen2Search, {"min_spacing_km": -1.0}),
    ("search.gen2.min_spacing_km=nan", Gen2Search, {"min_spacing_km": math.nan}),
    ("search.gen2.codes=", Gen2Search, {"codes": ()}),
    ("search.gen3.spacings_km=-1", Gen3Search, {"spacings_km": (-1.0,)}),
    ("search.gen3.spacings_km=1,0", Gen3Search, {"spacings_km": (1.0, 0.0)}),
    ("search.gen3.spacings_km=inf", Gen3Search, {"spacings_km": (math.inf,)}),
    ("search.gen3.spacings_km=nan", Gen3Search, {"spacings_km": (math.nan,)}),
    ("search.gen3.min_n=0", Gen3Search, {"min_n": 0}),
    ("search.gen3.min_m=0", Gen3Search, {"min_m": 0}),
    ("search.gen3.min_n=21", Gen3Search, {"min_n": 21}),
    ("search.gen3.min_m=21", Gen3Search, {"min_m": 21}),
    # empty declared grids, and gen1 tables past the row limit (never built)
    ("search.gen1.schemes=", Gen1Search, {"schemes": ()}),
    ("search.gen1.max_levels=20", Gen1Search, {"max_levels": 20}),
    ("search.gen1.max_rounds=7", Gen1Search, {"max_rounds": 7}),
    ("search.gen1.max_levels=1000000000000", Gen1Search, {"max_levels": 10**12}),
    ("search.gen2.segment_counts=", Gen2Search, {"segment_counts": ()}),
    # a segment count past the float range: its spacing L_tot/k is no float
    ("search.gen2.segment_counts=1" + "0" * 400, Gen2Search, {"segment_counts": (10**400,)}),
    ("search.gen2.memories=", Gen2Search, {"memories": ()}),
    ("search.gen2.gen_rounds=", Gen2Search, {"gen_rounds": ()}),
    ("search.gen3.max_photons=3", Gen3Search, {"max_photons": 3}),
    ("search.gen3.max_photons=0", Gen3Search, {"max_photons": 0}),
    # grids within the row limit whose floats overflow: 2^max_levels links,
    # and the 2 * 2^sum(rounds) qubits of a deep Deutsch schedule
    ("search.gen1.max_rounds=0 search.gen1.max_levels=1100", Gen1Search,
     {"max_rounds": 0, "max_levels": 1100}),
    ("search.gen1.min_levels=0 search.gen1.max_levels=0 search.gen1.max_rounds=1100"
     " search.gen1.schemes=deutsch", Gen1Search,
     {"min_levels": 0, "max_levels": 0, "max_rounds": 1100, "schemes": ("deutsch",)}),
]


@pytest.mark.parametrize("override", [case[0] for case in _INVALID_SEARCH])
def test_invalid_search_exits_before_searching(override, capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(optimize, "optimize_all", no_search)
    sets = override.split()
    assert main(["optimize", *(arg for value in sets for arg in ("--set", value))]) == 2
    err = capsys.readouterr().err
    section = sets[-1].rsplit(".", 1)[0]
    assert err.startswith(f"error: {section}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "cls, kwargs", [case[1:] for case in _INVALID_SEARCH], ids=[case[0] for case in _INVALID_SEARCH]
)
def test_invalid_search_dataclass_raises(cls, kwargs):
    with pytest.raises(ValueError):
        cls(**kwargs)


def test_empty_gen3_spacings_rejected(capsys, monkeypatch):
    monkeypatch.setattr(optimize, "optimize_all", lambda *args: pytest.fail("the search ran"))
    assert main(["optimize", "--set", "search.gen3.spacings_km="]) == 2
    assert capsys.readouterr().err == "error: search.gen3.spacings_km: empty grid\n"
    with pytest.raises(ValueError, match="non-empty"):
        Gen3Search(spacings_km=())


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_region_map_rejects_fewer_than_one_worker(threads, capsys, monkeypatch):
    monkeypatch.setattr(optimize, "region_map", lambda *args: pytest.fail("the map ran"))
    assert main(["region-map", "--threads", threads]) == 2
    assert capsys.readouterr().err == "error: --threads must be >= 1\n"


def test_largest_gen1_table_within_the_row_limit_is_accepted():
    # 2^20 schedules at the deepest level is the limit itself
    assert Gen1Search(max_levels=19, max_rounds=1).max_levels == 19
    assert Gen1Search(max_levels=9, max_rounds=3).max_rounds == 3
    with pytest.raises(ValueError, match="table limit"):
        Gen1Search(max_levels=20, max_rounds=1)


def test_each_subcommand_takes_only_the_flags_it_reads(capsys):
    # region-map --threads is run by test_region_map_deterministic_across_runs_and_threads
    for argv in (
        ["sweep", "--seed", "1"],
        ["optimize", "--threads", "2"],
        ["evaluate", "--threads", "2"],
        ["validate", "all", "--threads", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    assert main(["validate", "qpc", "--seed", "1", "--trials", "10"]) == 0
    assert "# seed: 1" in capsys.readouterr().out


def test_search_defaults_match_dataclasses():
    # DEFAULTS keeps the grids as raw strings because grid_hash hashes them
    defaults = config.load_config(None, (), env={})
    assert config.search_space(defaults) == SearchSpace()
    assert config.hardware(defaults) == HardwareParams()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_version_matches_pyproject():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == qrcost.__version__


def test_config_file_and_set_precedence(tmp_path, capsys):
    ini = tmp_path / "site.ini"
    ini.write_text("[hardware]\neta_c = 0.7\nt0 = 2e-6\n")
    assert main(["evaluate", "--config", str(ini), "--set", "hardware.t0=4e-6"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["hardware"]["eta_c"] == 0.7  # file beats default
    assert record["hardware"]["t0"] == 4e-6  # flag beats file
    assert record["hardware"]["eps_g"] == 1e-3  # untouched default survives


def test_env_config_honored(tmp_path, capsys, monkeypatch):
    env_ini = tmp_path / "env.ini"
    env_ini.write_text("[hardware]\neta_c = 0.6\n")
    monkeypatch.setenv("QRCOST_CONFIG", str(env_ini))
    assert main(["evaluate"]) == 0
    assert json.loads(capsys.readouterr().out)["hardware"]["eta_c"] == 0.6
    explicit = tmp_path / "explicit.ini"
    explicit.write_text("[hardware]\neta_c = 0.7\n")
    assert main(["evaluate", "--config", str(explicit)]) == 0
    assert json.loads(capsys.readouterr().out)["hardware"]["eta_c"] == 0.7


def test_sweep_dataset_layout(capsys):
    argv = ["sweep", "--set", "sweep.values=1e-3,2e-3,5e-3"] + _FAST_SPACE
    assert main(argv) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "# schema_version: 1"
    assert lines[1].startswith("# tool: qrcost ")
    assert lines[2] == "# command: sweep"
    assert lines[3].startswith("# units: ")
    assert lines[4].startswith("# seed_policy: ")
    assert lines[5].startswith("# grid_hash: sha256:")
    header = lines[6].split(",")
    assert header[:5] == ["eta_c", "eps_g", "t0", "l_tot_km", "winner"]
    rows = lines[7:]
    assert len(rows) == 3
    assert [row.split(",")[1] for row in rows] == ["0.001", "0.002", "0.005"]


def test_sweep_past_link_probability_underflow(capsys):
    # at 30,000 km a one-level gen1 link's success probability is 0.0
    argv = ["sweep", "--set", "sweep.axis=l_tot", "--set", "sweep.values=30000"] + _FAST_SPACE
    assert main(argv) == 0
    row = capsys.readouterr().out.splitlines()[7].split(",")
    assert row[3] == "30000.0" and row[4] in FAMILIES


def test_sweep_over_eps_g_keeps_explicit_xi(capsys):
    def data_row(argv):
        assert main(argv + _FAST_SPACE) == 0
        return capsys.readouterr().out.splitlines()[7]

    sweep = data_row(["sweep", "--set", "hardware.xi=2.5e-4", "--set", "sweep.values=2e-3"])
    explicit = data_row(["optimize", "--set", "hardware.eps_g=2e-3", "--set", "hardware.xi=2.5e-4"])
    coupled = data_row(["optimize", "--set", "hardware.eps_g=2e-3"])
    assert sweep == explicit != coupled


def test_optimize_dataset_single_row(capsys):
    assert main(["optimize"] + _FAST_SPACE) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "# command: optimize"
    assert len(lines) == 8  # 6 comment lines, column row, one data row
    winner = lines[7].split(",")[4]
    assert winner in ("gen1", "gen2_noenc", "gen2_enc", "gen3")


def test_region_map_deterministic_across_runs_and_threads(tmp_path):
    grids = [
        "--set", "region.eta_c=0.6,0.9",
        "--set", "region.eps_g=1e-3",
        "--set", "region.t0=1e-6",
    ]
    # a second run, then 2 and 3 workers over the 2 cells
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv", "d.csv")]
    argvs = [
        ["region-map", "--out", str(paths[0])] + grids + _FAST_SPACE,
        ["region-map", "--out", str(paths[1])] + grids + _FAST_SPACE,
        ["region-map", "--out", str(paths[2]), "--threads", "2"] + grids + _FAST_SPACE,
        ["region-map", "--out", str(paths[3]), "--threads", "3"] + grids + _FAST_SPACE,
    ]
    for argv in argvs:
        assert main(argv) == 0
    first = paths[0].read_bytes()
    assert [path.read_bytes() for path in paths[1:]] == [first] * 3
    assert len(first.decode().splitlines()) == 6 + 1 + 2
    with pytest.raises(ChildProcessError):  # every worker has been reaped
        os.waitpid(-1, os.WNOHANG)


# sha256 of the bytes each default job writes; a deliberate change of the
# bytes updates its pin and says so in CHANGES.md
_PINNED_BYTES = {
    ("region-map", "--threads", "2"): "a329d87a4f37de79998173938852b75470f90d1f89d005dde7cb60a322b3332a",
    ("sweep",): "def222794077a5a11a8f2a67bbb88d0c9b03ce0343cdd20b4c4b9faad8c12fe9",
    ("validate", "gen1-time", "--trials", "2000"):
        "0949270ac854057c3d07ed76e0d0a937202a22dd832cf1b6f41e8ea3f6b9e4cc",
}


def test_default_jobs_keep_their_pinned_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("QRCOST_CONFIG", raising=False)
    for argv, want in _PINNED_BYTES.items():
        path = tmp_path / "out"
        assert main([*argv, "--out", str(path)]) == 0, argv
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want, argv


def test_output_path_config_and_flag(tmp_path, capsys):
    target = tmp_path / "record.json"
    ini = tmp_path / "out.ini"
    ini.write_text(f"[output]\npath = {target}\n")
    assert main(["evaluate", "--config", str(ini)] + _PERFECT_CHANNEL) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["family"] == "gen3"
    override = tmp_path / "other.json"
    assert main(["evaluate", "--config", str(ini), "--out", str(override)] + _PERFECT_CHANNEL) == 0
    assert json.loads(override.read_text())["family"] == "gen3"


def test_an_unwritable_output_path_is_an_input_error(tmp_path, capsys):
    # a missing directory, by flag or config key, for a dataset command,
    # evaluate and validate, and a directory as the path: exit 2 with one
    # error line, after the job has run
    missing = tmp_path / "missing" / "out.csv"
    no_file, is_dir = os.strerror(errno.ENOENT), os.strerror(errno.EISDIR)
    for argv, path, reason in [
        (["optimize", *_FAST_SPACE, "--out", str(missing)], missing, no_file),
        (["evaluate", "--set", f"output.path={missing}"], missing, no_file),
        (["validate", "qpc", "--trials", "10", "--out", str(missing)], missing, no_file),
        (["sweep", *_FAST_SPACE, "--set", "sweep.values=1e-3", "--out", str(tmp_path)], tmp_path, is_dir),
    ]:
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: cannot write {path}: {reason}\n"), argv
    assert not missing.parent.exists()
    # a job that fails leaves its output file as it was
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier output\n")
    assert main(["optimize", "--set", "hardware.eta_c=1.5", "--out", str(kept)]) == 2
    assert kept.read_text() == "earlier output\n"


def test_validate_qpc_suite(capsys):
    assert main(["validate", "qpc", "--trials", "20000"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    # tiny samples are flagged as underpowered instead of failing
    assert main(["validate", "qpc", "--trials", "10"]) == 0
    assert "UNDERPOWERED" in capsys.readouterr().out


def test_validate_gen1_time_suite(capsys):
    assert main(["validate", "gen1-time", "--trials", "3000"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "INFO" in out  # deep-ladder bias is reported, not asserted


def test_underpowered_lines_name_only_underpowered_counts(capsys):
    # each comparison judges power from the trial count it prints, so the
    # doubled-trials check at --trials 500 runs 1000 trials and is judged
    main(["validate", "all", "--trials", "500"])
    lines = capsys.readouterr().out.splitlines()
    flagged = [line for line in lines if line.startswith("UNDERPOWERED")]
    assert flagged
    for line in flagged:
        count = int(re.search(r"trials=(\d+) <", line).group(1))
        assert count < 1000, line


def test_start_up_leaves_multiprocessing_unloaded():
    # a region map over several workers forks them itself: neither start-up
    # nor such a map loads multiprocessing or concurrent.futures
    code = (
        "import contextlib, io, sys, qrcost.cli; from qrcost import config\n"
        "config.load_config(None, ())\n"
        "pool = {'multiprocessing', 'concurrent.futures'}\n"
        "print(sorted(pool & set(sys.modules)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert qrcost.cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(pool & set(sys.modules)))"
    )
    argv = ["region-map", "--threads", "2", "--set", "region.eta_c=0.9",
            "--set", "region.eps_g=1e-3,2e-3", "--set", "region.t0=1e-6"] + _FAST_SPACE
    src = str(Path(qrcost.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code, *argv], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.splitlines() == ["[]", "[]"]


@pytest.mark.parametrize("l_tot", ["1e308", repr(sys.float_info.max)])
def test_station_counts_past_the_float_range_are_infeasible(l_tot, capsys):
    # gen3's 0.5 km spacing needs more stations than a float holds: that
    # spacing prices nothing, and every family comes out infeasible
    argv = ["optimize", "--set", f"hardware.l_tot={l_tot}"] + _FAST_SPACE
    assert main(argv + ["--set", "search.gen3.spacings_km=0.5,1"]) == 0
    row = capsys.readouterr().out.splitlines()[7].split(",")
    assert float(row[3]) == float(l_tot)
    assert row[4:] == ["none", "", "0.0", "inf", "inf", "False", "inf", "inf", "inf", "inf"]
    assert segment_count(1e308, 0.5) == 2 * int(1e308)


def test_cli_jobs_load_neither_numpy_ma_nor_the_process_pool():
    # numpy.ma costs 16-24 ms per process, concurrent.futures.process about
    # 30 ms; no job needs either
    code = (
        "import contextlib, io, sys; from qrcost.cli import main\n"
        "jobs = [['optimize'], ['sweep', '--set', 'sweep.axis=eps_g', '--set', 'sweep.values=1e-3,2e-3'],\n"
        "        ['region-map', '--threads', '1', '--set', 'region.eta_c=0.9',\n"
        "         '--set', 'region.eps_g=1e-3', '--set', 'region.t0=1e-6,1e-5'],\n"
        "        ['validate', 'gen1-time', '--trials', '2000']]\n"
        "for job in jobs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(job) == 0, job\n"
        "print(sorted({'numpy.ma', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    src = str(Path(qrcost.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=300)
    assert out.stdout.strip() == "[]"


_BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


@pytest.mark.skipif(not _BUILTIN_SHA256, reason="no builtin SHA-256 module")
def test_cli_jobs_do_not_load_openssl():
    # hashlib's OpenSSL module (_hashlib) costs 3.4 MB of libcrypto per
    # process; the header digest takes the builtin SHA-256. validate is left
    # out: numpy.random loads _hashlib through secrets and hmac
    code = (
        "import contextlib, io, sys; from qrcost.cli import main\n"
        "fast = sys.argv[1:]\n"
        "jobs = [['optimize'], ['sweep', '--set', 'sweep.axis=eps_g', '--set', 'sweep.values=1e-3,2e-3'],\n"
        "        ['region-map', '--threads', '2', '--set', 'region.eta_c=0.9',\n"
        "         '--set', 'region.eps_g=1e-3,2e-3', '--set', 'region.t0=1e-6'],\n"
        "        ['evaluate']]\n"
        "for job in jobs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(job + fast) == 0, job\n"
        "print('_hashlib' in sys.modules)"
    )
    src = str(Path(qrcost.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "QRCOST_CONFIG"}
    out = subprocess.run([sys.executable, "-c", code, *_FAST_SPACE], env={**env, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=300)
    assert out.stdout.strip() == "False"


def test_header_digest_falls_back_to_hashlib(monkeypatch):
    # without a builtin SHA-256 module the digest comes from hashlib, and
    # every header stays the same
    monkeypatch.delenv("QRCOST_CONFIG", raising=False)
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from qrcost import cli, config\n"
        "assert cli._sha256 is hashlib.sha256\n"
        "cfg = config.load_config(None, tuple(sys.argv[1:]))\n"
        "print(cli._grid_hash('sweep', cfg, ('hardware', 'search.gen1', 'sweep')))"
    )
    overrides = ("hardware.eps_g=2e-3", "sweep.values=1,2,3")
    src = str(Path(qrcost.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code, *overrides], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    cfg = config.load_config(None, overrides)
    assert out.stdout.strip() == cli._grid_hash("sweep", cfg, ("hardware", "search.gen1", "sweep"))
    assert out.stdout.startswith("sha256:")


@pytest.mark.parametrize("user_value", [None, "4"])
def test_import_defaults_openblas_to_one_thread(user_value):
    # qrcost makes no BLAS call; a value the user set wins
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    env["PYTHONPATH"] = str(Path(qrcost.__file__).parents[1])
    code = "import os, qrcost; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == (user_value or "1")


def test_encoded_segment_counts_past_int64_are_infeasible(capsys):
    # 10^300 segments: the encoded chain keeps the count as a Python int and
    # prices nothing, as gen3 does at the same spacing
    for family in ("gen2_enc", "gen3"):
        argv = ["evaluate", "--set", f"evaluate.family={family}",
                "--set", "evaluate.spacing_km=1e-300", "--set", "hardware.l_tot=1"]
        assert main(argv) == 0, family
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["stations"] == segment_count(1.0, 1e-300) > 2**63, family
        assert (result["feasible"], result["rate_sbits_per_s"], result["cost"]) == (False, 0.0, None)


def test_segment_counts_past_the_float_range_are_infeasible(capsys):
    # 10^310 segments: both swap chains rule the count out before the bare
    # chain's fold and any power, as gen3 does at the same spacing
    for family in ("gen2_enc", "gen2_noenc", "gen3"):
        argv = ["evaluate", "--set", f"evaluate.family={family}",
                "--set", "evaluate.spacing_km=1e-300", "--set", "hardware.l_tot=1e10"]
        assert main(argv) == 0, family
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["stations"] == segment_count(1e10, 1e-300) > sys.float_info.max, family
        assert (result["feasible"], result["rate_sbits_per_s"], result["cost"]) == (False, 0.0, None)


# no loss and no gate error: every gen3 code and the bare chain have x = 1
_LOSSLESS = ["--set", "hardware.eta_c=1.0", "--set", "hardware.eps_g=0"]


def test_gen3_costs_past_the_float_range_are_infeasible(capsys):
    # 1e308 stations fit a float, but stations * qps does not: no cost is a
    # float there, and the search and evaluate rule the code out alike
    point = _LOSSLESS + ["--set", "hardware.l_att=1e18", "--set", "hardware.l_tot=1e308"]
    assert main(["optimize", *point, "--set", "search.gen3.spacings_km=1"]) == 0
    row = capsys.readouterr().out.splitlines()[7].split(",")
    assert row[-1] == "inf"
    assert main(["evaluate", "--set", "evaluate.family=gen3", *point, "--set", "evaluate.spacing_km=1"]) == 0
    record = json.loads(capsys.readouterr().out)
    result, shape = record["result"], record["config"]
    assert result["stations"] == segment_count(1e308, 1.0) <= sys.float_info.max
    assert result["qubits_per_station"] == 2 * shape["n"] * shape["m"]
    assert (result["feasible"], result["rate_sbits_per_s"], result["cost"]) == (False, 0.0, None)


def test_gen2_costs_past_the_float_range_are_infeasible(capsys):
    # 1e308 segments fit a float, 128 times as many qubits do not
    point = _LOSSLESS + ["--set", "hardware.l_tot=1e8"]
    argv = ["evaluate", "--set", "evaluate.family=gen2_noenc", "--set", "evaluate.spacing_km=1e-300",
            "--set", "evaluate.memories=64"]
    assert main(argv + point) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["stations"] == segment_count(1e8, 1e-300) <= sys.float_info.max
    assert result["qubits_per_station"] == 128
    assert (result["feasible"], result["rate_sbits_per_s"], result["cost"]) == (False, 0.0, None)
    search = ["--set", "search.gen2.min_spacing_km=0", "--set", "search.gen2.memories=64",
              "--set", f"search.gen2.segment_counts={10**308}"]
    assert main(["optimize", *point, *search]) == 0
    row = capsys.readouterr().out.splitlines()[7].split(",")
    assert row[-3:-1] == ["inf", "inf"]  # both swap chains
    # 1.28e308 qubits fit a float, two rounds of them do not: the search
    # still prices the one round, as evaluate does
    search = ["--set", "search.gen2.min_spacing_km=0", "--set", "search.gen2.memories=64",
              "--set", "search.gen2.gen_rounds=1,2", "--set", f"search.gen2.segment_counts={10**306}"]
    assert main(["optimize", *point, *search]) == 0
    row = capsys.readouterr().out.splitlines()[7].split(",")
    chain = Gen2NoEncConfig(memories=64, spacing_km=1e8 / 10**306, gen_rounds=1)
    want = evaluate_config(HardwareParams(eta_c=1.0, eps_g=0.0), chain, 1e8)
    assert want.feasible and row[-3] == repr(want.cost_coeff)


@pytest.mark.parametrize("levels, scheme, rounds", [
    (1, "deutsch", (511, 512)),  # qps = 2^1024 passes the float range
    (10, "deutsch", (92,) * 10 + (102,)),  # qps = 2^1023 fits a float, 2^10 * qps does not
    (1024, "dur", (0,) * 1025),  # 2 qubits per station at 2^1024 stations
])
def test_gen1_costs_past_the_float_range_are_infeasible(levels, scheme, rounds, monkeypatch, capsys):
    # N = 2^levels * qps no float holds: no cost is a float, and evaluate
    # says so without building the schedule's table
    def refuse(*args):
        raise AssertionError("evaluate built a schedule table")

    monkeypatch.setattr(gen1, "_schedule_summary", refuse)
    argv = ["evaluate", "--set", "evaluate.family=gen1", "--set", f"evaluate.scheme={scheme}",
            "--set", f"evaluate.levels={levels}", "--set", f"evaluate.rounds={','.join(map(str, rounds))}"]
    assert main(argv) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["stations"], result["qubits_per_station"]) == (2**levels, gen1._qubits_per_station(scheme, rounds))
    assert result["stations"] * result["qubits_per_station"] > sys.float_info.max
    assert (result["feasible"], result["rate_sbits_per_s"], result["cost"]) == (False, 0.0, None)


def test_gen1_search_past_the_float_range_leaves_the_row_out(capsys):
    # the deepest schedule of this grid holds 2^1023 qubits per station, so
    # N = 2^1024; a subnormal t0 makes the search price every row, and that
    # one is ruled out as evaluate rules it out
    deepest = Gen1Config("deutsch", 1, (511, 511))
    assert not evaluate_config(HardwareParams(t0=1e-310), deepest, 1000.0).feasible
    argv = ["optimize", "--set", "search.gen1.schemes=deutsch", "--set", "search.gen1.min_levels=1",
            "--set", "search.gen1.max_levels=1", "--set", "search.gen1.max_rounds=511",
            "--set", "hardware.t0=1e-310"]
    assert main(argv) == 0
    row = dict(zip(*(line.split(",") for line in capsys.readouterr().out.splitlines()[6:8])))
    assert 0.0 < float(row["cost_coeff_gen1"]) < math.inf


@pytest.mark.parametrize("spacing, l_tot", [("1e-5", "1000"), ("1e-290", "1e10")])
def test_bare_chain_at_a_short_spacing_ends(spacing, l_tot):
    # 10^8 and 10^300 segments: the bare chain's fold stops at its fixed
    # point, where the secure fraction is long 0
    argv = ["evaluate", "--set", "evaluate.family=gen2_noenc",
            "--set", f"evaluate.spacing_km={spacing}", "--set", f"hardware.l_tot={l_tot}"]
    src = str(Path(qrcost.__file__).parents[1])
    out = subprocess.run([sys.executable, "-m", "qrcost", *argv], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    result = json.loads(out.stdout)["result"]
    assert result["stations"] == segment_count(float(l_tot), float(spacing)) >= 10**8
    assert (result["feasible"], result["rate_sbits_per_s"], result["cost"]) == (False, 0.0, None)


def test_main_leaves_the_heap_unfrozen(capsys):
    # only cli.run, whose process exits next, freezes the heap
    assert main(["optimize"] + _FAST_SPACE) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == 0


def test_both_entry_points_exit_through_run(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    root = Path(qrcost.__file__).parents[2]
    with open(root / "pyproject.toml", "rb") as handle:
        assert tomllib.load(handle)["project"]["scripts"] == {"qrcost": "qrcost.cli:run"}
    module = ast.parse((Path(qrcost.__file__).parent / "__main__.py").read_text())
    calls = [ast.unparse(node) for node in ast.walk(module) if isinstance(node, ast.Call)]
    imports = [(node.module, node.level, [alias.name for alias in node.names])
               for node in ast.walk(module) if isinstance(node, ast.ImportFrom)]
    assert calls == ["sys.exit(run())", "run()"] and imports == [("cli", 1, ["run"])]

    # the module entry point writes what main writes, and run freezes the heap
    src = str(Path(qrcost.__file__).parents[1])
    child, here = tmp_path / "child.csv", tmp_path / "here.csv"
    done = subprocess.run([sys.executable, "-m", "qrcost", "optimize", "--out", str(child)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert main(["optimize", "--out", str(here)]) == 0
    assert child.read_bytes() == here.read_bytes()
    argv = ["validate", "qpc", "--trials", "10", "--out", str(tmp_path / "validate.txt")]
    code = f"import gc; from qrcost.cli import run; print(run({argv!r}), gc.get_freeze_count() > 0)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["0", "True"]
