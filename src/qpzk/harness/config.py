"""Experiment configuration with a versioned schema and field-level errors."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

from qpzk.errors import ConfigError
from qpzk.serialize import is_int, read_json

SCHEMA_VERSION = 1

EXPERIMENT_KINDS = (
    "core-check",
    "pqma",
    "collapse",
    "public-coin",
    "zk",
    "double-open",
    "mac",
    "uhlmann",
    "pipeline",
)

# Stable stream identifiers so seeded substreams never depend on run order.
EXPERIMENT_IDS = {kind: i for i, kind in enumerate(EXPERIMENT_KINDS)}

_DEFAULT_PARAMS = {
    "core-check": {"samples": 400, "dims": 3},
    "pqma": {"p": 8, "q": 2, "p_large": 2 * 10 ** 6, "q_large": 300},
    "collapse": {"bases": 6, "oracle_restarts": 6, "oracle_iters": 100},
    "public-coin": {"bases": 4, "oracle_restarts": 6, "oracle_iters": 120,
                    "theta": 0.8},
    "zk": {"reps": 2},
    "double-open": {},
    "mac": {"message_qubits": 1, "traps": 3},
    "uhlmann": {"delta": 2.0, "instances": 20, "r_qubits": 2, "s_qubits": 2,
                "perturbation": 0.05},
    "pipeline": {"k": 2, "theta": 1.0471975511965976},
}

# The `instances` keys each kind reads; each names a file to load.
_INSTANCE_KEYS = {
    "pqma": ("instance",),
    "uhlmann": ("instance",),
    "collapse": ("base_protocol",),
    "pipeline": ("base_protocol",),
    "double-open": ("scheme",),
}

# The only tolerance the runners read.
_TOLERANCE_NAMES = ("identity",)

_DEFAULT_TRIALS = {
    "core-check": 1,
    "pqma": 2000,
    "collapse": 1,
    "public-coin": 2000,
    "zk": 10000,
    "double-open": 10000,
    "mac": 1,
    "uhlmann": 1,
    "pipeline": 2000,
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int = 0
    trials: Optional[int] = None
    params: dict = field(default_factory=dict)
    instances: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    out: Optional[str] = None
    format: str = "json"

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"kind: unknown experiment {self.kind!r}; "
                f"choose one of {', '.join(EXPERIMENT_KINDS)}")
        if not is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed: must be a non-negative integer, got {self.seed!r}")
        trials = self.effective_trials
        if not is_int(trials) or trials < 1:
            raise ConfigError(f"trials: must be a positive integer, got {trials!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out: must be a file path, got {self.out!r}")
        if self.format not in ("json", "csv"):
            raise ConfigError("format: must be 'json' or 'csv'")
        defaults = _DEFAULT_PARAMS[self.kind]
        merged = dict(defaults)
        for key, value in _checked_object("params", self.params).items():
            if key not in defaults:
                raise ConfigError(f"params.{key}: unknown parameter for {self.kind}; "
                                  f"choose from {', '.join(sorted(defaults)) or 'none'}")
            merged[key] = _checked_param(key, value, defaults[key])
        object.__setattr__(self, "params", merged)
        keys = _INSTANCE_KEYS.get(self.kind, ())
        for key, value in _checked_object("instances", self.instances).items():
            if key not in keys:
                raise ConfigError(f"instances.{key}: unknown instance for {self.kind}; "
                                  f"choose from {', '.join(keys) or 'none'}")
            if not isinstance(value, str):
                raise ConfigError(f"instances.{key}: must be a file path, got {value!r}")
        for key, value in _checked_object("tolerances", self.tolerances).items():
            if key not in _TOLERANCE_NAMES:
                raise ConfigError(f"tolerances.{key}: unknown tolerance; "
                                  f"choose from {', '.join(_TOLERANCE_NAMES)}")
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0 <= value <= sys.float_info.max):
                raise ConfigError(f"tolerances.{key}: must be a finite number "
                                  f"of at least 0, got {value!r}")
        object.__setattr__(self, "instances", dict(self.instances))
        object.__setattr__(self, "tolerances", dict(self.tolerances))

    @property
    def effective_trials(self) -> int:
        return self.trials if self.trials is not None else _DEFAULT_TRIALS[self.kind]

    @property
    def experiment_id(self) -> int:
        return EXPERIMENT_IDS[self.kind]

    def param(self, name: str):
        return self.params[name]

    def tolerance(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))

    def echo(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "seed": self.seed,
            "trials": self.effective_trials,
            "params": dict(sorted(self.params.items())),
            "instances": dict(sorted(self.instances.items())),
            "tolerances": dict(sorted(self.tolerances.items())),
        }


def _checked_object(name: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: must be a JSON object, got {value!r}")
    return value


def _checked_param(name: str, value, default):
    """The value if its type fits the default's: an int param (a count or a
    size) takes an int of at least 1, a float param a finite int or float,
    stored as a float; never a bool."""
    want_int = isinstance(default, int)
    if (isinstance(value, bool) or not isinstance(value, int if want_int else (int, float))
            or not want_int and not abs(value) <= sys.float_info.max):
        raise ConfigError(f"params.{name}: must be "
                          f"{'an integer' if want_int else 'a finite number'}, got {value!r}")
    if want_int and value < 1:
        raise ConfigError(f"params.{name}: must be at least 1, got {value}")
    return value if want_int else float(value)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
    known = {"schema_version", "kind", "seed", "trials", "params", "instances",
             "tolerances", "out", "format"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "kind" not in data:
        raise ConfigError("kind: required field is missing")
    return ExperimentConfig(
        kind=data["kind"],
        seed=data.get("seed", 0),
        trials=data.get("trials"),
        params=data.get("params", {}),
        instances=data.get("instances", {}),
        tolerances=data.get("tolerances", {}),
        out=data.get("out"),
        format=data.get("format", "json"),
    )


def load_config(path: str) -> ExperimentConfig:
    return config_from_dict(read_json(path))
