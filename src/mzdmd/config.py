"""Experiment configuration: defaults, key-value config files, validation.

The config file format is plain ``key = value`` text with ``#`` comments.
Every key is optional; omitted keys fall back to the benchmark defaults
(dt=0.1, t_max=50, n_points=501, sigma=1, n_mc=1000, n_u=100, lr=1e-3,
iterations=5, resolved_init=(1, 0)).  Unknown keys and empty values are
rejected.

Every config is built by :func:`build_config` from config keys, whether
they come from a file (:func:`read_config`) or from the CLI's flags.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

from . import harness
from .errors import ConfigError
from .optim import AdamConfig
from .oscillator import SimConfig

METHODS = (*harness.METHODS, "all")


@dataclass(frozen=True)
class ExperimentConfig:
    sim: SimConfig
    adam: AdamConfig
    n_u: int = 100
    method: str = "all"
    resolved_init: tuple[float, float] = (1.0, 0.0)
    output_dir: Path = Path("results")
    emit_plots: bool = False

    def __post_init__(self):
        if self.n_u < 1:
            raise ValueError("n_u must be at least 1")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {', '.join(METHODS)}")
        init = tuple(float(v) for v in self.resolved_init)
        if len(init) != 2 or not all(map(math.isfinite, init)):
            raise ValueError("resolved_init must hold exactly two finite values")
        object.__setattr__(self, "resolved_init", init)
        if not os.fspath(self.output_dir):  # checked before Path("") becomes "."
            raise ValueError("output_dir must not be empty")
        object.__setattr__(self, "output_dir", Path(self.output_dir))


def default_config() -> ExperimentConfig:
    """The benchmark defaults used throughout the package."""
    return ExperimentConfig(sim=SimConfig(), adam=AdamConfig())


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_pair(value: str) -> tuple[float, float]:
    parts = [p for p in re.split(r"[,\s]+", value.strip()) if p]
    if len(parts) != 2:
        raise ValueError(f"expected two numbers, got {value!r}")
    return float(parts[0]), float(parts[1])


def _parse_method(value: str) -> str:
    if value not in METHODS:
        raise ValueError(f"expected one of {', '.join(METHODS)}, got {value!r}")
    return value


# config key -> (section, field, caster); section None is ExperimentConfig
_KEYS = {
    "dt": ("sim", "dt", float),
    "t_max": ("sim", "t_max", float),
    "n_points": ("sim", "n_points", int),
    "sigma": ("sim", "sigma", float),
    "n_mc": ("sim", "n_mc", int),
    "seed": ("sim", "seed", int),
    "lr": ("adam", "learning_rate", float),
    "iterations": ("adam", "iterations", int),
    "n_u": (None, "n_u", int),
    "method": (None, "method", _parse_method),
    "resolved_init": (None, "resolved_init", _parse_pair),
    "output_dir": (None, "output_dir", Path),
    "emit_plots": (None, "emit_plots", _parse_bool),
}


def build_config(overrides: dict) -> ExperimentConfig:
    """Merge overrides into the defaults and validate the result."""
    unknown = set(overrides) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}")
    fields: dict = {"sim": {}, "adam": {}, None: {}}
    for key, value in overrides.items():
        section, name, _ = _KEYS[key]
        fields[section][name] = value
    base = default_config()
    try:
        sim = dataclasses.replace(base.sim, **fields["sim"])
        adam = dataclasses.replace(base.adam, **fields["adam"])
        return dataclasses.replace(base, sim=sim, adam=adam, **fields[None])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def read_config(path) -> dict:
    """The keys of a key-value config file, each cast to its type; a
    :class:`ConfigError` names the line of a malformed line, an unknown or
    duplicate key, or a value its type refuses, or says why the file is
    unreadable."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeError) as exc:
        raise ConfigError(str(exc)) from exc
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value'", line=lineno)
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'", line=lineno)
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'", line=lineno)
        try:
            if not value:  # checked before the cast: Path("") is "."
                raise ValueError("empty value")
            raw[key] = _KEYS[key][2](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: invalid value for '{key}': {exc}", line=lineno) from exc
    return raw


def parse_config(path) -> ExperimentConfig:
    """The config of a key-value config file, over the defaults."""
    return build_config(read_config(path))
