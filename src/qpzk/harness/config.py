"""Experiment configuration with a versioned schema and field-level errors."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from qpzk.errors import ConfigError
from qpzk.serialize import (load_json, read_at, read_field, read_float, read_int, read_object,
                            read_str)

SCHEMA_VERSION = 1

# Each kind's default trial count, its params with their defaults, and the
# `instances` keys it reads, each naming a file. An int default makes a count
# or a size param (an integer of at least 1), a float default a finite-number
# param. A kind's position is its stream id (experiment_id), so the order is
# fixed and a new kind goes last.
_KINDS = {
    "core-check": (1, {"samples": 400, "dims": 3}, ()),
    "pqma": (2000, {"p": 8, "q": 2, "p_large": 2 * 10 ** 6, "q_large": 300}, ("instance",)),
    "collapse": (1, {"bases": 6, "oracle_restarts": 6, "oracle_iters": 100},
                 ("base_protocol",)),
    "public-coin": (2000, {"bases": 4, "oracle_restarts": 6, "oracle_iters": 120,
                           "theta": 0.8}, ()),
    "zk": (10000, {"reps": 2}, ()),
    "double-open": (10000, {}, ("scheme",)),
    "mac": (1, {"message_qubits": 1, "traps": 3}, ()),
    "uhlmann": (1, {"delta": 2.0, "instances": 20, "r_qubits": 2, "s_qubits": 2,
                    "perturbation": 0.05}, ("instance",)),
    "pipeline": (2000, {"k": 2, "theta": 1.0471975511965976}, ("base_protocol",)),
}

EXPERIMENT_KINDS = tuple(_KINDS)

# The tolerances the runners read, with their defaults.
_TOLERANCES = {"identity": 1e-9}


def _at_least(low, read):
    """read, then a check that the value is at least `low`."""
    def read_bounded(value):
        value = read(value)
        if value < low:
            raise ConfigError(f"must be at least {low}, got {value!r}")
        return value
    return read_bounded


def _read_entries(path: str, value, readers: dict, what: str) -> dict:
    """A JSON object each of whose entries has a reader in `readers`, read
    by it; each error names its entry as `path.key`."""
    entries = read_at(path, value, read_object)
    for key, entry in entries.items():
        if key not in readers:
            raise ConfigError(f"{path}.{key}: unknown {what}; "
                              f"choose from {', '.join(sorted(readers)) or 'none'}")
        entries[key] = read_at(f"{path}.{key}", entry, readers[key])
    return entries


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
        read_at("seed", self.seed, _at_least(0, read_int))
        read_at("trials", self.effective_trials, _at_least(1, read_int))
        if self.out is not None:
            read_at("out", self.out, read_str)
        if self.format not in ("json", "csv"):
            raise ConfigError("format: must be 'json' or 'csv'")
        _, defaults, instance_keys = _KINDS[self.kind]
        readers = {key: _at_least(1, read_int) if isinstance(default, int) else read_float
                   for key, default in defaults.items()}
        params = _read_entries("params", self.params, readers, f"parameter for {self.kind}")
        object.__setattr__(self, "params", {**defaults, **params})
        object.__setattr__(self, "instances", _read_entries(
            "instances", self.instances, dict.fromkeys(instance_keys, read_str),
            f"instance for {self.kind}"))
        object.__setattr__(self, "tolerances", _read_entries(
            "tolerances", self.tolerances,
            dict.fromkeys(_TOLERANCES, _at_least(0, read_float)), "tolerance"))

    @property
    def effective_trials(self) -> int:
        return self.trials if self.trials is not None else _KINDS[self.kind][0]

    @property
    def experiment_id(self) -> int:
        return EXPERIMENT_KINDS.index(self.kind)

    def param(self, name: str):
        return self.params[name]

    def tolerance(self, name: str) -> float:
        return self.tolerances.get(name, _TOLERANCES[name])

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


def config_from_dict(data: dict) -> ExperimentConfig:
    """The config a JSON object describes: the dataclass's fields, each
    defaulting as there, plus the schema version."""
    read_at("config", data, read_object)
    version = read_field(data, "schema_version", read_int, SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
    config = {key: value for key, value in data.items() if key != "schema_version"}
    unknown = set(config) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "kind" not in config:
        raise ConfigError("kind: required field is missing")
    return ExperimentConfig(**config)


def load_config(path: str) -> ExperimentConfig:
    return load_json(path, config_from_dict, "config")
