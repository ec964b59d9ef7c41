"""Layered run configuration: built-in defaults, a config file, then
command-line overrides, each later layer winning key by key.

The file format is an INI document. All values are stored as strings and
parsed on demand, so the three layers merge uniformly. Grids are written
either as comma-separated numbers or as `linear:start:stop:count` /
`log:start:stop:count` shorthands. Units are km, seconds, and dimensionless
probabilities throughout.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import fields
from typing import Optional

import numpy as np

from .core import CSS_CATALOG, CssCode, HardwareParams, _check_distance
from .optimize import FAMILIES, FAMILY_TABLE, SWEEP_AXES, SearchSpace

ENV_CONFIG_PATH = "QRCOST_CONFIG"

_CODE_NAMES = {"steane": CSS_CATALOG[0], "golay": CSS_CATALOG[1], "qr103": CSS_CATALOG[2]}

DEFAULTS: dict[str, dict[str, str]] = {
    "hardware": {
        "eta_c": "0.9",
        "eps_g": "1e-3",
        "xi": "",  # blank means eps_g / 4
        "eps_d": "0.0",
        "t0": "1e-6",
        "l_att": "20.0",
        "c_fiber": "2e5",
        "l_tot": "1000.0",
    },
    "evaluate": {
        "family": "gen3",
        # gen3 shape
        "n": "5",
        "m": "5",
        # gen1 shape
        "scheme": "deutsch",
        "levels": "2",
        "rounds": "1,1,0",
        # gen2 shapes (spacing_km is shared with gen3)
        "spacing_km": "1.0",
        "memories": "16",
        "gen_rounds": "1",
        "code": "steane",
    },
    "search.gen1": {
        "schemes": "deutsch,dur",
        "min_levels": "1",
        "max_levels": "7",
        "max_rounds": "2",
    },
    "search.gen2": {
        "segment_counts": "2,4,8,16,32,64,128,256,512,1024",
        "memories": "1,2,4,8,16,32,64,128",
        "gen_rounds": "1,2,5,10",
        "min_spacing_km": "1.0",
        "codes": "steane,golay,qr103",
    },
    "search.gen3": {
        "spacings_km": "linear:0.5:10:20",
        "min_n": "2",
        "max_n": "20",
        "min_m": "2",
        "max_m": "20",
        "max_photons": "200",
    },
    "sweep": {
        "axis": "eps_g",
        "values": "log:1e-4:3e-2:10",
    },
    "region": {
        "eta_c": "linear:0.1:1.0:10",
        "eps_g": "log:1e-4:3e-2:10",
        "t0": "log:1e-7:1e-4:10",
    },
    "output": {
        "path": "",
    },
}


class ConfigError(ValueError):
    """Invalid configuration input; the message lists every violation."""


def _copy_defaults() -> dict[str, dict[str, str]]:
    return {section: dict(keys) for section, keys in DEFAULTS.items()}


def _check_known(section: str, key: Optional[str], origin: str) -> None:
    if section not in DEFAULTS:
        known = ", ".join(sorted(DEFAULTS))
        raise ConfigError(f"{origin}: unknown section [{section}] (known: {known})")
    if key is not None and key not in DEFAULTS[section]:
        known = ", ".join(sorted(DEFAULTS[section]))
        raise ConfigError(f"{origin}: unknown key {section}.{key} (known: {known})")


def load_config(
    path: Optional[str] = None,
    overrides: tuple[str, ...] = (),
    env: Optional[dict] = None,
) -> dict[str, dict[str, str]]:
    """Merge defaults, an optional INI file, and `section.key=value` overrides.

    When no path is given the environment variable QRCOST_CONFIG supplies
    one. Unknown sections or keys are rejected so typos fail loudly.
    """
    env = os.environ if env is None else env
    merged = _copy_defaults()
    if path is None:
        path = env.get(ENV_CONFIG_PATH) or None
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        for section in parser.sections():
            _check_known(section, None, path)
            for key, value in parser.items(section):
                _check_known(section, key, path)
                merged[section][key] = value
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        dotted, value = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} must look like section.key")
        section, key = dotted.rsplit(".", 1)
        _check_known(section, key, "--set")
        merged[section][key] = value
    return merged


def _float(cfg, section: str, key: str) -> float:
    raw = cfg[section][key]
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: not a number: {raw!r}") from exc


def _int(cfg, section: str, key: str) -> int:
    raw = cfg[section][key]
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: not an integer: {raw!r}") from exc


def _names(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _int_tuple(cfg, section: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in _names(cfg[section][key]))
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: not an integer list: {cfg[section][key]!r}") from exc


def parse_grid(raw: str, where: str) -> tuple[float, ...]:
    """Comma-separated floats, or linear:start:stop:count / log:start:stop:count."""
    raw = raw.strip()
    kind, _, rest = raw.partition(":")
    if kind in ("linear", "log") and rest:
        parts = rest.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{where}: grid {raw!r} needs start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"{where}: bad grid {raw!r}") from exc
        if count < 1:
            raise ConfigError(f"{where}: grid count must be >= 1")
        if kind == "log" and (start <= 0 or stop <= 0):
            raise ConfigError(f"{where}: log grid endpoints must be > 0")
        space = np.linspace if kind == "linear" else np.geomspace
        return tuple(float(v) for v in space(start, stop, count))
    try:
        values = tuple(float(part) for part in _names(raw))
    except ValueError as exc:
        raise ConfigError(f"{where}: not a number list or grid: {raw!r}") from exc
    if not values:
        raise ConfigError(f"{where}: empty grid")
    return values


def hardware(cfg) -> HardwareParams:
    """Build the hardware point described by [hardware]."""
    return _read(cfg, "hardware", HardwareParams)


def total_distance(cfg) -> float:
    l_tot = _float(cfg, "hardware", "l_tot")
    _check_distance("hardware.l_tot", l_tot, ConfigError)
    return l_tot


def _code(name: str, where: str) -> CssCode:
    code = _CODE_NAMES.get(name.strip().lower())
    if code is None:
        known = ", ".join(sorted(_CODE_NAMES))
        raise ConfigError(f"{where}: unknown code {name!r} (known: {known})")
    return code


# value parsers by dataclass field annotation, called as parse(cfg, section, key)
_FIELD_PARSERS = {
    "int": _int,
    "float": _float,
    "Optional[float]": lambda cfg, sec, key: (  # blank means None
        _float(cfg, sec, key) if cfg[sec][key].strip() else None
    ),
    "str": lambda cfg, sec, key: cfg[sec][key].strip(),
    "tuple[int, ...]": _int_tuple,
    "tuple[str, ...]": lambda cfg, sec, key: _names(cfg[sec][key]),
    "tuple[float, ...]": lambda cfg, sec, key: parse_grid(cfg[sec][key], f"{sec}.{key}"),
    "CssCode": lambda cfg, sec, key: _code(cfg[sec][key], f"{sec}.{key}"),
    "tuple[CssCode, ...]": lambda cfg, sec, key: tuple(
        _code(name, f"{sec}.{key}") for name in _names(cfg[sec][key])
    ),
}


def _read(cfg, section: str, cls):
    """Build dataclass `cls` from the keys of [section] named after its fields."""
    values = {f.name: _FIELD_PARSERS[f.type](cfg, section, f.name) for f in fields(cls)}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def search_space(cfg) -> SearchSpace:
    """Build the architecture-search grids from the [search.*] sections."""
    return SearchSpace(
        **{f.name: _read(cfg, f"search.{f.name}", f.default_factory) for f in fields(SearchSpace)}
    )


def protocol(cfg):
    """Build the single configuration described by [evaluate], reading the
    family's config fields from the keys of the same names."""
    family = cfg["evaluate"]["family"].strip()
    spec = FAMILY_TABLE.get(family)
    if spec is None:
        raise ConfigError(
            f"evaluate.family: unknown family {family!r} (known: {', '.join(FAMILIES)})"
        )
    return family, _read(cfg, "evaluate", spec.config_type)


def sweep_spec(cfg) -> tuple[str, tuple[float, ...]]:
    axis = cfg["sweep"]["axis"].strip()
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep.axis must be eta_c, eps_g, t0 or l_tot, got {axis!r}")
    return axis, parse_grid(cfg["sweep"]["values"], "sweep.values")


def region_grids(cfg) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    return (
        parse_grid(cfg["region"]["eta_c"], "region.eta_c"),
        parse_grid(cfg["region"]["eps_g"], "region.eps_g"),
        parse_grid(cfg["region"]["t0"], "region.t0"),
    )


def output_path(cfg) -> Optional[str]:
    path = cfg["output"]["path"].strip()
    return path or None
