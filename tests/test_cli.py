import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import qrcost
from qrcost import config, optimize
from qrcost.cli import main
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
        ("optimize", "l_tot", "nan"),
        ("optimize", "l_tot", "inf"),
    ]:
        assert main([command, "--set", f"hardware.{key}={value}"]) == 2, (key, value)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, (key, value, err)
    assert main(["sweep", "--set", "sweep.axis=l_tot", "--set", "sweep.values=100,nan"]) == 2
    assert "l_tot grid value" in capsys.readouterr().err


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
    ("search.gen2.memories=", Gen2Search, {"memories": ()}),
    ("search.gen2.gen_rounds=", Gen2Search, {"gen_rounds": ()}),
    ("search.gen3.max_photons=3", Gen3Search, {"max_photons": 3}),
    ("search.gen3.max_photons=0", Gen3Search, {"max_photons": 0}),
]


@pytest.mark.parametrize("override", [case[0] for case in _INVALID_SEARCH])
def test_invalid_search_exits_before_searching(override, capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(optimize, "optimize_all", no_search)
    assert main(["optimize", "--set", override]) == 2
    err = capsys.readouterr().err
    section = override.rsplit(".", 1)[0]
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
    assert config.search_space(config.load_config(None, (), env={})) == SearchSpace()


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
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    argvs = [
        ["region-map", "--out", str(paths[0])] + grids + _FAST_SPACE,
        ["region-map", "--out", str(paths[1])] + grids + _FAST_SPACE,
        ["region-map", "--out", str(paths[2]), "--threads", "2"] + grids + _FAST_SPACE,
    ]
    for argv in argvs:
        assert main(argv) == 0
    first = paths[0].read_bytes()
    assert paths[1].read_bytes() == first
    assert paths[2].read_bytes() == first
    assert len(first.decode().splitlines()) == 6 + 1 + 2


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
