"""Experiment configuration with a versioned schema and field-level errors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from qpzk.errors import ConfigError
from qpzk.serialize import read_json

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
    "pqma": {"p": 8, "q": 2, "n": 1, "p_large": 2 * 10 ** 6, "q_large": 300},
    "collapse": {"r": 2, "bases": 6, "oracle_restarts": 6, "oracle_iters": 100},
    "public-coin": {"bases": 4, "oracle_restarts": 6, "oracle_iters": 120,
                    "theta": 0.8},
    "zk": {"reps": 2},
    "double-open": {},
    "mac": {"message_qubits": 1, "traps": 3},
    "uhlmann": {"delta": 2.0, "instances": 20, "r_qubits": 2, "s_qubits": 2,
                "perturbation": 0.05},
    "pipeline": {"k": 2, "reps": 2, "theta": 1.0471975511965976},
}

_DEFAULT_TRIALS = {
    "core-check": 1,
    "pqma": 2000,
    "collapse": 1,
    "public-coin": 2000,
    "zk": 10000,
    "double-open": 10000,
    "mac": 1,
    "uhlmann": 400,
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
        if not isinstance(self.seed, int):
            raise ConfigError("seed: must be an integer")
        trials = self.effective_trials
        if not isinstance(trials, int) or trials < 1:
            raise ConfigError("trials: must be a positive integer")
        if self.format not in ("json", "csv"):
            raise ConfigError("format: must be 'json' or 'csv'")
        for key, value in self.params.items():
            if not isinstance(value, (int, float, str)):
                raise ConfigError(f"params.{key}: must be a number or string")
        merged = dict(_DEFAULT_PARAMS[self.kind])
        merged.update(self.params)
        object.__setattr__(self, "params", merged)

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
        seed=int(data.get("seed", 0)),
        trials=data.get("trials"),
        params=dict(data.get("params", {})),
        instances=dict(data.get("instances", {})),
        tolerances=dict(data.get("tolerances", {})),
        out=data.get("out"),
        format=data.get("format", "json"),
    )


def load_config(path: str) -> ExperimentConfig:
    return config_from_dict(read_json(path))
