#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is rt-contended, rt-long-history, dist-crash-restart,
sim-lossy-crash, or all. Run from the repository root. The build log
goes to stderr; the benchmark's report goes to stdout, and its last
line is the JSON result. The exit code is the benchmark's: 0 when every
history passed its checker, 1 when one did not, 2 on a usage or build
error. See perfbench/NOTES.md for what is measured and why.
"""

import glob
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
# The contract gives a run 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    return found[-1] if found else None


def main():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project next to perfbench/; "
              "run from a full checkout", file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    # No shared dune cache: the build writes only under _build/.
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "--cache=disabled",
         "./perfbench/perfbench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # Own process group, so a timeout also takes down the node
    # processes the dist workload spawns.
    proc = subprocess.Popen([EXE] + sys.argv[1:], cwd=ROOT,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
