#!/usr/bin/env python3
"""Builds the benchmark package and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default perfbench/target). The
benchmark's own output is passed through: one line per metric, then the
result object as the last line. The exit code is non-zero, and no result
is printed, when the build or the run fails.
"""

import os
import signal
import subprocess
import sys

# A run must end well inside the 180 s a run is given.
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    manifest = os.path.join(here, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=root,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(here, "target")
    exe = os.path.join(root, target, "release", "fgs-perfbench")
    # Its own process group, so a timeout also stops the simulator
    # child processes it starts.
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
