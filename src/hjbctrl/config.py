"""Experiment configuration: JSON files, shipped presets, hashing, echo.

A config document has up to five sections::

    {
      "system": {"name": "dubins", "overrides": {...physical params...}},
      "sysid":  {...SysIdConfig fields...},
      "hjb":    {...HjbConfig fields (transition, epochs, alphas, ...)...},
      "rho":    {"kind": "box"|"gaussian", "lo": [...], "hi": [...],
                 "mean": [...], "std": [...]},
      "eval":   {...EvalConfig fields (starts, threshold, metric, seed)...}
    }

Precedence: package defaults < preset < user config file < CLI flags
(each flag overrides one ``section.key``).  The ``sysid``, ``hjb`` and
``eval`` sections are parsed by one helper that rejects unknown keys, and
the eval metric is checked against the system it would score.  When no
layer sets ``eval.metric``, it is ``position`` for a system with a
position subspace and ``state`` otherwise.  :func:`system_spec` builds the
system and, when the ``rho`` section is set, replaces the system's start
distribution with it.  The effective merged config, with every field of
the three parsed sections and every physical parameter of the system
written out (:func:`sections`), is echoed next to every command's outputs
once it has parsed, and can be re-fed verbatim via --config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from importlib import resources
from pathlib import Path

import numpy as np

from .dynzoo import Box, Gaussian, SystemSpec, make_system
from .hjbtrain import HjbConfig
from .rollout import check_metric
from .sysid import SysIdConfig


class ConfigError(Exception):
    """Unreadable, unknown, or inconsistent configuration."""


@dataclasses.dataclass(frozen=True, kw_only=True)
class EvalConfig:
    starts: int = 1000
    threshold: float = 0.15
    metric: str  # one of rollout.METRICS; :func:`eval_config` checks it, and picks it when unset
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (math.isfinite(self.threshold) and self.threshold >= 0):
            raise ValueError("threshold must be finite and >= 0")


DEFAULTS: dict = {
    "system": {"name": None, "overrides": {}},
    "sysid": {},
    "hjb": {},
    "rho": None,
    "eval": {},
}


def preset_names() -> list[str]:
    files = resources.files("hjbctrl").joinpath("presets")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> dict:
    path = resources.files("hjbctrl").joinpath("presets", f"{name}.json")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(
            f"unknown preset '{name}'; shipped presets: {', '.join(preset_names())}"
        )


def load_config_file(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}")
    return _object(f"config file {path}", doc)


def _deep_merge(base: dict, update: dict) -> dict:
    out = dict(base)
    for k, v in update.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def effective_config(preset: str | None = None, config_path=None,
                     overrides: dict | None = None) -> dict:
    """Merge defaults, preset, user file and CLI overrides (in that order)."""
    cfg = json.loads(json.dumps(DEFAULTS))
    if preset:
        cfg = _deep_merge(cfg, load_preset(preset))
    if config_path:
        cfg = _deep_merge(cfg, load_config_file(config_path))
    if overrides:
        cfg = _deep_merge(cfg, overrides)
    return cfg


def config_hash(cfg: dict) -> str:
    """Short stable digest of the effective config."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def echo_config(cfg: dict, outdir) -> Path:
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"output directory {outdir} is not a directory") from None
    path = outdir / "effective_config.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Section parsers
# ---------------------------------------------------------------------------


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               tuple[int, ...]: "a list of integers"}


def _typed(name: str, key: str, value, hint):
    """``value`` checked against the field's type ``hint``: a bool is no
    number, an int is a float, and a list of ints is a tuple of them."""
    if hint is float and type(value) is int:
        return float(value)
    if hint == tuple[int, ...]:
        if isinstance(value, (list, tuple)) and all(type(v) is int for v in value):
            return tuple(value)
    elif type(value) is hint:
        return value
    raise ConfigError(f"{name}.{key} must be {_TYPE_NAMES[hint]}, got {value!r}")


def _object(where: str, value) -> dict:
    """``value``, a JSON object, or a ConfigError naming ``where``; null is
    an empty object."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def _section(cfg: dict, name: str, cls):
    """Parse config section ``name`` into dataclass ``cls``, checking each
    value against its field's type."""
    section = _object(name, cfg.get(name))
    hints = typing.get_type_hints(cls)
    unknown = set(section) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {name} option(s): {sorted(unknown)}")
    try:
        return cls(**{k: _typed(name, k, v, hints[k]) for k, v in section.items()})
    except ValueError as e:
        raise ConfigError(f"bad {name} config: {e}")


def eval_config(cfg: dict, spec: SystemSpec) -> EvalConfig:
    """The ``eval`` section, checked against the system it scores.  Without
    a ``metric`` key, the metric is ``position`` for a system with a
    position subspace and ``state`` for one without."""
    section = _object("eval", cfg.get("eval"))
    if "metric" not in section:
        metric = "state" if spec.position_slice is None else "position"
        cfg = {**cfg, "eval": {**section, "metric": metric}}
    ecfg = _section(cfg, "eval", EvalConfig)
    try:
        check_metric(spec, ecfg.metric)
    except ValueError as e:
        raise ConfigError(f"bad eval config: {e}") from None
    return ecfg


class Sections(typing.NamedTuple):
    sysid: SysIdConfig
    hjb: HjbConfig
    eval: EvalConfig


def sections(cfg: dict, spec: SystemSpec) -> tuple[dict, Sections]:
    """The parsed ``sysid``, ``hjb`` and ``eval`` sections, and ``cfg`` with
    every field of each, and every physical parameter of ``spec`` in
    ``system.overrides``, written out: the config a run uses."""
    parsed = Sections(_section(cfg, "sysid", SysIdConfig), _section(cfg, "hjb", HjbConfig),
                      eval_config(cfg, spec))
    system = cfg["system"]
    overrides = {**(system.get("overrides") or {}), **spec.params}
    return {**cfg, "system": {**system, "overrides": overrides},
            **{k: dataclasses.asdict(v) for k, v in parsed._asdict().items()}}, parsed


def _rho(section: dict) -> Box | Gaussian:
    kind = section.get("kind")
    try:
        if kind == "box":
            return Box(np.asarray(section["lo"], dtype=np.float64),
                       np.asarray(section["hi"], dtype=np.float64))
        if kind == "gaussian":
            return Gaussian(np.asarray(section["mean"], dtype=np.float64),
                            np.asarray(section["std"], dtype=np.float64))
    except KeyError as e:
        raise ConfigError(f"rho section missing field {e}")
    except ValueError as e:
        raise ConfigError(f"bad rho section: {e}") from None
    raise ConfigError(f"rho kind must be 'box' or 'gaussian', got {kind!r}")


def system_spec(cfg: dict) -> SystemSpec:
    """The configured system, with the ``rho`` section as its start
    distribution when that section is set."""
    system = _object("system", cfg.get("system"))
    name = system.get("name")
    if not name:
        raise ConfigError("no system given (use --system or a config with system.name)")
    spec = make_system(name, _object("system.overrides", system.get("overrides")))
    section = _object("rho", cfg.get("rho"))
    if section:
        spec = dataclasses.replace(spec, rho=_rho(section))
    return spec
