"""qpzk benchmark: wall time, set-up time, CPU time and peak memory of
`qpzk <kind>` experiments at their default configs, and a traced per-layer
split of the same runs.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from the checkout's `src`.
Every experiment runs in a fresh process, one at a time (a closed loop with
one client). The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it give each
metric's median, tail and sample count, the failed share and the machine.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 7
DEFAULT_SECONDS = 60
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170

# Verdict of every row, by row name, at the commit that defined the
# benchmark (seed 7, and re-checked on the held-out seed 11).
EXPECTED_VERDICTS = {
    "pipeline": {
        "pipeline-honest-acceptance": "PASS",
        "base-soundness-oracle": "PASS",
        "composite-bound": "VACUOUS",
        "composite-bound-amplified-k128": "PASS",
        "pipeline-cheat-garbage-opening": "VACUOUS",
        "pipeline-cheat-always-idle": "VACUOUS",
        "pipeline-cheat-always-final-move": "VACUOUS",
    },
    "double-open": {
        "honest-adversary-win-rate-offset": "PASS",
        "reading-adversary-win-rate-offset": "PASS",
        "broken-scheme-win-rate": "PASS",
    },
    "mac": {
        "roundtrip-worst-error-over-all-keys": "PASS",
        "single-wire-flip-detection": "PASS",
        "trap-flip-attack-simulation-distance": "PASS",
        "wrong-simulator-distance-near-detection-gap": "PASS",
    },
    "collapse": {
        "honest-acceptance-vs-base-completeness": "PASS",
        "branch-overlap-identity": "PASS",
        "collapse-oracle-worst-excess-over-bound": "PASS",
    },
}
WORKLOADS = tuple(EXPECTED_VERDICTS)

# Seeds on which a row's verdict at that commit differs from the list above.
# double-open's two win-rate rows are 3-sigma tests of a fair coin over
# 10,000 games, so each fails by chance on about 0.27% of seeds: seed 5 sits
# at +3.44 sigma and seed 8 at +3.06 sigma. No other seed failed in a scan
# of seeds 0-30 (every row) and 0-83 (this row), whose other offsets spread
# with a standard deviation near 1 sigma. The
# benchmark checks that those seeds keep their verdicts, FAIL and exit code
# 1 included, like every other seed.
SEED_VERDICTS = {
    ("double-open", 5): {"honest-adversary-win-rate-offset": "FAIL"},
    ("double-open", 8): {"honest-adversary-win-rate-offset": "FAIL"},
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark cannot measure at all (as opposed to a failed run)."""


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name's last part."""
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "games"):
        return "count"
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    if last.endswith("share"):
        return "ratio"
    if last == "us":
        return "us"
    if last == "gflops_computed":
        return "GFLOP/s"
    if last == "gflop_computed":
        return "GFLOP"
    if last in ("max_dense_mb", "mib_computed"):
        return "MiB"
    raise ValueError(f"no unit for metric {name!r}")


# -- one process ---------------------------------------------------------------------


class Sample:
    """One child process: its timings, its exit code and its record."""

    def __init__(self, mode: str, tag: str):
        self.mode = mode
        self.tag = tag
        self.wall_s = self.setup_s = self.cpu_s = self.peak_rss_mb = None
        self.exit_code = None
        self.record_text = None
        self.trace = None
        self.problem = None

    @property
    def ok(self) -> bool:
        return self.problem is None


def spawn(tmp: Path, mode: str, kind: str, seed: int, tag: str) -> Sample:
    """Run perfbench/child.py once and wait for it; never raises for a
    failing child, which is recorded in the sample instead. A set-up probe
    must exit 0, an experiment with the code its expected verdicts imply."""
    sample = Sample(mode, tag)
    result_path = tmp / f"{tag}.result.json"
    record_path = tmp / f"{tag}.record.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), mode, "--",
           kind, "--seed", str(seed)]
    if mode != "setup":
        cmd += ["--out", str(record_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(tmp / f"{tag}.log", "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM or Ctrl-C): stop the child before leaving.
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        ended = time.monotonic()
    proc.returncode = sample.exit_code = os.waitstatus_to_exitcode(status)
    sample.wall_s = ended - started
    sample.cpu_s = usage.ru_utime + usage.ru_stime
    if sample.exit_code != (0 if mode == "setup" else expected_exit_code(kind, seed)):
        sample.problem = f"exit code {sample.exit_code}"
        return sample
    try:
        result = json.loads(result_path.read_text())
        sample.setup_s = result["entry"] - started
        sample.peak_rss_mb = result["peak_rss_kib"] / 1024.0
        sample.trace = result.get("trace")
        if mode != "setup":
            sample.record_text = record_path.read_text()
    except (OSError, ValueError, KeyError) as exc:
        sample.problem = f"no result: {exc!r}"
    return sample


def expected_verdicts(kind: str, seed: int) -> dict:
    return {**EXPECTED_VERDICTS[kind], **SEED_VERDICTS.get((kind, seed), {})}


def expected_exit_code(kind: str, seed: int) -> int:
    """The CLI exits 1 when any row FAILs."""
    return int("FAIL" in expected_verdicts(kind, seed).values())


def check_verdicts(sample: Sample, kind: str, seed: int) -> None:
    if not sample.ok or sample.mode == "setup":
        return
    rows = json.loads(sample.record_text)["rows"]
    got = {row["name"]: row["verdict"] for row in rows}
    if got != expected_verdicts(kind, seed) or len(rows) != len(got):
        sample.problem = f"verdicts {got} differ from the expected list"


def check_identical(samples: list[Sample]) -> None:
    """Records of one seed must be byte-identical apart from the wall clock,
    compared through the package's own comparable_bytes()."""
    from qpzk.harness.records import record_from_dict

    reference = None
    for sample in samples:
        if not sample.ok or sample.mode == "setup":
            continue
        data = record_from_dict(json.loads(sample.record_text)).comparable_bytes()
        if reference is None:
            reference = data
        elif data != reference:
            sample.problem = "record differs from the first run of this seed"


def run_for(tmp: Path, kind: str, seed: int, deadline: float,
            probe: bool) -> tuple[list[Sample], list[Sample]]:
    """Experiments one after another, at least one, and another only if it
    would end by the deadline when it takes as long as the longest so far.
    With `probe`, a set-up probe runs before each experiment, so that
    set-up time is sampled across the whole run, and after the last one
    until there are SETUP_PROBES probes. Returns (probes, experiments)."""
    probes: list[Sample] = []
    runs: list[Sample] = []
    longest = 0.0
    while not runs or time.monotonic() + longest <= deadline:
        started = time.monotonic()
        if probe:
            probes.append(spawn(tmp, "setup", kind, seed, f"probe{len(probes)}"))
        runs.append(spawn(tmp, "run", kind, seed, f"run{len(runs)}"))
        longest = max(longest, time.monotonic() - started)
    while probe and len(probes) < SETUP_PROBES:
        probes.append(spawn(tmp, "setup", kind, seed, f"probe{len(probes)}"))
    return probes, runs


# -- statistics ------------------------------------------------------------------------


def tail(values: list[float]):
    """The highest percentile with at least ten samples beyond it, or None."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1 - p / 100) >= 10:
            return p, statistics.quantiles(values, n=1000, method="inclusive")[
                int(round(p * 10)) - 1]
    return None


def describe(name: str, values: list[float], unit: str) -> str:
    line = f"{name:>14} median {statistics.median(values):.6g} {unit}"
    t = tail(values)
    if t is None:
        line += f", max {max(values):.6g} (no percentile has ten samples beyond it)"
    else:
        line += f", p{t[0]:g} {t[1]:.6g}"
    return line + f", n={len(values)}"


# -- workloads --------------------------------------------------------------------------


def measure(tmp: Path, kind: str, seed: int, seconds: float) -> tuple[list[Sample], dict]:
    """Untraced runs: the end-to-end metrics."""
    probes, runs = run_for(tmp, kind, seed, time.monotonic() + seconds, probe=True)
    for sample in runs:
        check_verdicts(sample, kind, seed)
    check_identical(runs)
    samples = probes + runs
    done = [s for s in runs if s.ok]
    setups = [s.setup_s for s in samples if s.ok]
    if not done or not setups:
        return samples, {}
    values = {
        "wall_s": [s.wall_s for s in done],
        "setup_s": setups,
        "cpu_s": [s.cpu_s for s in done],
        "peak_rss_mb": [s.peak_rss_mb for s in done],
    }
    for name, vals in values.items():
        print(describe(name, vals, END_TO_END_UNITS[name]))
    return samples, {name: statistics.median(vals) for name, vals in values.items()}


def measure_traced(tmp: Path, kind: str, seed: int, seconds: float) -> tuple[list[Sample], dict]:
    """Untraced reference runs for half the time, then one traced run and
    the kernel ladder, which together take about the other half."""
    import ladder

    _, runs = run_for(tmp, kind, seed, time.monotonic() + seconds / 2, probe=False)
    traced = spawn(tmp, "trace", kind, seed, "trace")
    samples = runs + [traced]
    for sample in samples:
        check_verdicts(sample, kind, seed)
    check_identical(samples)
    done = [s.wall_s for s in runs if s.ok]
    if not traced.ok or traced.trace is None or not done:
        return samples, {}
    metrics = dict(traced.trace)
    metrics["tracing.overhead_s"] = traced.wall_s - statistics.median(done)
    print(f"traced wall {traced.wall_s:.6g} s against an untraced median of "
          f"{statistics.median(done):.6g} s (n={len(done)})")
    metrics.update(ladder.run(seed))
    return samples, metrics


# -- provenance ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _blas_threads():
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    mem = ""
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal"):
            mem = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(index / "size")).strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip()
            dirty = bool(status.stdout.strip())
    return {
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total": mem,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": commit,
        "dirty": dirty,
        "seed": seed,
    }


# -- entry point ------------------------------------------------------------------------------


def bench_workload(kind: str, seed: int, seconds: float, trace: bool) -> dict:
    tmp = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        warm = spawn(tmp, "setup", kind, seed, "warmup")
        if not warm.ok:
            log = _read(str(tmp / "warmup.log"))
            raise BenchError(f"qpzk does not start ({warm.problem}):\n{log}")
        print(f"workload {kind}, seed {seed}, {seconds:g} s, trace {int(trace)}")
        if (kind, seed) in SEED_VERDICTS:
            print(f"expected on this seed: {SEED_VERDICTS[kind, seed]} (a chance "
                  "failure of a 3-sigma test; see SEED_VERDICTS)")
        if trace:
            samples, metrics = measure_traced(tmp, kind, seed, seconds)
        else:
            samples, metrics = measure(tmp, kind, seed, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = [s for s in samples if not s.ok]
    for sample in failed:
        print(f"FAILED {sample.tag}: {sample.problem}")
    print(f"failed_share {len(failed) / len(samples):.6g} ratio "
          f"({len(failed)} of {len(samples)} processes)")
    units = END_TO_END_UNITS if not trace else {name: unit_of(name) for name in metrics}
    return {
        "correct": not failed and bool(metrics),
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "qpzk" / "cli.py").is_file():
        print(f"no qpzk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    kinds = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (False, True) if args.workload == "all" else (bool(args.trace),)
    try:
        results = {f"{kind}/trace{int(t)}": bench_workload(kind, args.seed, args.seconds, t)
                   for kind in kinds for t in traces}
        print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(next(iter(results.values()))))
        return 0
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": attempted, "failed": failed,
                      "metrics": {f"{key}/{name}": m for key, r in results.items()
                                  for name, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
