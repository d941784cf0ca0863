"""Experiment records: per-metric rows with verdicts, persisted flat."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Optional

import qpzk
from qpzk.errors import ConfigError
from qpzk.serialize import read_json

VERDICTS = ("PASS", "FAIL", "VACUOUS", "NOT-APPLICABLE")


@dataclass(frozen=True)
class MetricRow:
    """One checked quantity: its measured value, the reference it is held
    against, the Monte-Carlo scale, the verdict, and the reference's source
    tag (a closed-form evaluator name or an oracle name)."""

    name: str
    empirical: Optional[float]
    reference: Optional[float]
    sigma: float
    verdict: str
    source: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if not self.source:
            raise ValueError("every metric row needs a bound source tag")


def upper_bound_row(name: str, empirical: float, bound: float, sigma: float,
                    source: str, slack: float = 0.0) -> MetricRow:
    """empirical <= bound + 3 sigma + slack, vacuous above one."""
    if bound > 1.0:
        verdict = "VACUOUS"
    elif empirical <= bound + 3.0 * sigma + slack:
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return MetricRow(name, empirical, bound, sigma, verdict, source)


def equality_row(name: str, empirical: float, want: float, tol: float,
                 source: str) -> MetricRow:
    verdict = "PASS" if abs(empirical - want) <= tol else "FAIL"
    return MetricRow(name, empirical, want, tol, verdict, source)


def threshold_row(name: str, empirical: float, threshold: float, source: str,
                  above: bool = True) -> MetricRow:
    ok = empirical > threshold if above else empirical < threshold
    return MetricRow(name, empirical, threshold, 0.0,
                     "PASS" if ok else "FAIL", source)


@dataclass
class ExperimentRecord:
    config_echo: dict
    rows: list[MetricRow] = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    artifact_version: str = qpzk.__version__

    def add(self, row: MetricRow) -> None:
        self.rows.append(row)

    @property
    def failed(self) -> bool:
        return any(r.verdict == "FAIL" for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "artifact_version": self.artifact_version,
            "config": self.config_echo,
            "rows": [
                {
                    "name": r.name,
                    "empirical": r.empirical,
                    "reference": r.reference,
                    "sigma": r.sigma,
                    "verdict": r.verdict,
                    "source": r.source,
                }
                for r in self.rows
            ],
            "wall_clock_seconds": self.wall_clock_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["kind", "seed", "row", "empirical", "reference",
                         "sigma", "verdict", "source"])
        kind = self.config_echo.get("kind", "")
        seed = self.config_echo.get("seed", "")
        for r in self.rows:
            writer.writerow([kind, seed, r.name,
                             _num(r.empirical), _num(r.reference),
                             _num(r.sigma), r.verdict, r.source])
        return buf.getvalue()

    def comparable_bytes(self) -> bytes:
        """Serialized form with the wall clock stripped, for determinism
        checks."""
        data = self.to_dict()
        data.pop("wall_clock_seconds")
        return json.dumps(data, sort_keys=True).encode()


def _num(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def record_from_dict(data: dict) -> ExperimentRecord:
    """Record from its to_dict form; any other shape raises ConfigError."""
    try:
        rec = ExperimentRecord(config_echo=data["config"],
                               wall_clock_seconds=data.get("wall_clock_seconds", 0.0),
                               artifact_version=data.get("artifact_version", "?"))
        for row in data["rows"]:
            rec.add(MetricRow(row["name"], row["empirical"], row["reference"],
                              row["sigma"], row["verdict"], row["source"]))
    except KeyError as exc:
        raise ConfigError(f"record missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed record: {exc}") from exc
    return rec


def load_record(path: str) -> ExperimentRecord:
    return record_from_dict(read_json(path))


def save_record(record: ExperimentRecord, path: str, fmt: str = "json") -> None:
    payload = record.to_json() if fmt == "json" else record.to_csv()
    with open(path, "w") as fh:
        fh.write(payload)
