#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
perfbench/target); its messages go to standard error, so the last line of
standard output is the benchmark's JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    )
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
            "--target-dir",
            target,
        ],
        stdout=sys.stderr.fileno(),
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
