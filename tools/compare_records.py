"""Compare the records two source trees produce, kind by kind and seed by seed.

    python tools/compare_records.py PARENT CHANGE

For each tree, runs `python -m qpzk.cli <kind> --seed S --out FILE` for every
experiment kind at seeds 7 and 11, from that tree's `src` and with
PYTHONDONTWRITEBYTECODE=1, then compares the records' comparable_bytes()
(everything but the wall clock) between the trees. Each differing field is
printed by kind, seed and row name. Exits 0 when every record is identical,
1 on any difference or a missing record.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (7, 11)


def run_record(tree: Path, kind: str, seed: int, out: Path) -> str:
    """Runs one experiment from tree's src; returns '' or why no record exists."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "qpzk.cli", kind, "--seed", str(seed), "--out", str(out)],
        cwd=tree, env=env, capture_output=True, text=True)
    if not out.is_file():
        return f"exit {proc.returncode}, no record: {proc.stderr.strip()[-300:]}"
    return ""


def comparable(path: Path, record_from_dict) -> dict:
    data = json.loads(path.read_text())
    return json.loads(record_from_dict(data).comparable_bytes())


def differences(old: dict, new: dict) -> list[str]:
    """One line per differing top-level field or row field; rows by name."""
    lines = [f"{key}: {old.get(key)!r} -> {new.get(key)!r}"
             for key in sorted((set(old) | set(new)) - {"rows"})
             if old.get(key) != new.get(key)]
    old_rows = {row["name"]: row for row in old.get("rows", [])}
    new_rows = {row["name"]: row for row in new.get("rows", [])}
    for name in list(old_rows) + [n for n in new_rows if n not in old_rows]:
        a, b = old_rows.get(name), new_rows.get(name)
        if a is None or b is None:
            lines.append(f"row {name}: {'added' if a is None else 'removed'}")
            continue
        lines += [f"row {name} {key}: {a.get(key)!r} -> {b.get(key)!r}"
                  for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]
    if not lines and [r["name"] for r in old.get("rows", [])] != \
            [r["name"] for r in new.get("rows", [])]:
        lines.append("rows: same rows in a different order")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    args = parser.parse_args(argv)
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
