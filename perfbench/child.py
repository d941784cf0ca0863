"""One benchmark process: runs `qpzk <kind>` through the package's own CLI.

    python3 perfbench/child.py RESULT.json {setup,run,trace} -- <qpzk CLI args>

It notes the CLOCK_MONOTONIC time at which `run_experiment` is entered, so
the parent can split the process's life into set-up and work. `setup` stops
there; `run` runs the experiment as the CLI would; `trace` does the same
with the span wrappers of tracer.py installed. RESULT.json receives the
entry time, the process's peak resident set, and for `trace` the per-layer
metrics. The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time


class _SetupDone(Exception):
    pass


def peak_rss_kib() -> int:
    """High-water resident set of this process image (VmHWM). ru_maxrss is
    not used: across fork and exec it keeps the parent's high-water mark."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    result_path, mode = argv[0], argv[1]
    cli_args = argv[argv.index("--") + 1:]
    import qpzk.cli as cli

    installation = None
    if mode == "trace":
        import tracer as tracing

        tr = tracing.Tracer()
        installation = tracing.install(tr)
    result: dict = {}
    run_experiment = cli.run_experiment

    def entered(config):
        result["entry"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        return run_experiment(config)

    cli.run_experiment = entered
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    finally:
        cli.run_experiment = run_experiment
        if installation is not None:
            installation.uninstall()
    if installation is not None:
        result["trace"] = tr.metrics()
    result["peak_rss_kib"] = peak_rss_kib()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
