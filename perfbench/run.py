#!/usr/bin/env python3
"""Build the layered end-to-end benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The workloads are study, fresh-compile and supremacy (see
BENCHMARK.json). The benchmark's last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
Everything is built and written under _build/ in the current directory.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: run from the repository root; dune-project and lib/ are missing here\n"
        )
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "-j", "2", "./perfbench/perfbench.exe"],
            stdout=sys.stderr,
            env=dict(os.environ, DUNE_CACHE="disabled"),
            timeout=BUILD_TIMEOUT_S,
        )
        if build.returncode != 0:
            sys.stderr.write("perfbench: build failed\n")
            return build.returncode
        return subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired as e:
        sys.stderr.write("perfbench: timed out: %s\n" % " ".join(e.cmd))
        return 124
    except OSError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
