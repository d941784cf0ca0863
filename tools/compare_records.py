"""Compare the records two source trees produce, kind by kind and seed by seed.

    python tools/compare_records.py PARENT CHANGE
    python tools/compare_records.py --write-golden

For each tree, runs `python -m qpzk.cli <kind> --seed S --out FILE` for every
experiment kind at seeds 7 and 11, from that tree's `src` and with
PYTHONDONTWRITEBYTECODE=1, then compares the records' comparable_bytes()
(everything but the wall clock) between the trees. Each differing field is
printed by kind, seed and row name, a numeric one with its relative change.
Exits 0 when every record is identical, 1 on any difference or a missing
record.

With --write-golden, runs the same 18 records from this tool's own tree and
writes them, wall clock removed, to tests/golden/, with the numpy version
and BLAS build they were made with (provenance.json), for tests/test_golden.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (7, 11)
ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def run_record(tree: Path, kind: str, seed: int, out: Path) -> str:
    """Runs one experiment from tree's src; returns '' or why no record exists."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "qpzk.cli", kind, "--seed", str(seed), "--out", str(out)],
        cwd=tree, env=env, capture_output=True, text=True)
    if not out.is_file():
        return f"exit {proc.returncode}, no record: {proc.stderr.strip()[-300:]}"
    return ""


def provenance() -> dict:
    """The numpy version and BLAS build of this interpreter: the oracle rows'
    last bits come from LAPACK, so another build may move them."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")}}


def golden_path(kind: str, seed: int) -> Path:
    return GOLDEN / f"{kind}-seed{seed}.json"


def write_golden(kinds) -> int:
    """Writes this tree's 18 records, wall clock removed, and their provenance."""
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for kind in kinds:
            for seed in SEEDS:
                out = Path(tmp) / f"{kind}-{seed}.json"
                problem = run_record(ROOT, kind, seed, out)
                if problem:
                    print(f"{kind} seed {seed}: {problem}")
                    return 1
                data = json.loads(out.read_text())
                data.pop("wall_clock_seconds")
                text = json.dumps(data, indent=1, sort_keys=True)
                golden_path(kind, seed).write_text(text + "\n")
    (GOLDEN / "provenance.json").write_text(json.dumps(provenance(), indent=1) + "\n")
    print(f"wrote {len(kinds) * len(SEEDS)} records to {GOLDEN}")
    return 0


def comparable(path: Path, record_from_dict) -> dict:
    data = json.loads(path.read_text())
    return json.loads(record_from_dict(data).comparable_bytes())


def _change(a, b) -> str:
    """'a -> b', with the relative change |b - a| / |a| when both are numbers,
    so that a change in the last bits reads apart from a real one."""
    text = f"{a!r} -> {b!r}"
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        text += f" (relative {abs(b - a) / abs(a) if a else math.inf:.2g})"
    return text


def differences(old: dict, new: dict) -> list[str]:
    """One line per differing top-level field or row field; rows by name."""
    lines = [f"{key}: {_change(old.get(key), new.get(key))}"
             for key in sorted((set(old) | set(new)) - {"rows"})
             if old.get(key) != new.get(key)]
    old_rows = {row["name"]: row for row in old.get("rows", [])}
    new_rows = {row["name"]: row for row in new.get("rows", [])}
    for name in list(old_rows) + [n for n in new_rows if n not in old_rows]:
        a, b = old_rows.get(name), new_rows.get(name)
        if a is None or b is None:
            lines.append(f"row {name}: {'added' if a is None else 'removed'}")
            continue
        lines += [f"row {name} {key}: {_change(a.get(key), b.get(key))}"
                  for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]
    if not lines and [r["name"] for r in old.get("rows", [])] != \
            [r["name"] for r in new.get("rows", [])]:
        lines.append("rows: same rows in a different order")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?", help="source tree of the parent")
    parser.add_argument("change", type=Path, nargs="?", help="source tree of the change")
    parser.add_argument("--write-golden", action="store_true",
                        help="write this tree's records to tests/golden/ instead")
    args = parser.parse_args(argv)
    if args.write_golden:
        sys.path.insert(0, str(ROOT / "src"))
        from qpzk.harness.config import EXPERIMENT_KINDS
        return write_golden(EXPERIMENT_KINDS)
    if args.change is None:
        parser.error("give PARENT and CHANGE, or --write-golden")
    trees = (args.parent.resolve(), args.change.resolve())

    # Kinds and the record reader come from the change's tree.
    sys.path.insert(0, str(trees[1] / "src"))
    from qpzk.harness.config import EXPERIMENT_KINDS
    from qpzk.harness.records import record_from_dict

    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for kind in EXPERIMENT_KINDS:
            for seed in SEEDS:
                outs = [Path(tmp) / f"{side}-{kind}-{seed}.json" for side in ("parent", "change")]
                problems = [run_record(tree, kind, seed, out) for tree, out in zip(trees, outs)]
                if any(problems):
                    lines = [f"{side}: {p}" for side, p in zip(("parent", "change"), problems) if p]
                else:
                    lines = differences(*(comparable(out, record_from_dict) for out in outs))
                print(f"{kind} seed {seed}: {'differs' if lines else 'identical'}")
                for line in lines:
                    print(f"  {line}")
                differing += bool(lines)
    print(f"{differing} of {len(EXPERIMENT_KINDS) * len(SEEDS)} records differ")
    return int(differing > 0)


if __name__ == "__main__":
    sys.exit(main())
