#!/usr/bin/env python3
"""Builds the fairbridge benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) with path
dependencies on the repository's crates. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the checkout root); cargo's
output goes to standard error, so the last line of standard output is the
benchmark's JSON summary. Exits non-zero, printing no summary, when the
build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    # Dispatch thresholds come from a machine-local tune_profile.json,
    # searched upward from the working directory when this is unset.
    # Point it at a file that does not exist, so every run uses the
    # compiled-in thresholds and reads nothing outside the checkout.
    env["FB_TUNE_PROFILE"] = os.path.join(target, "no-tune-profile.json")
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "fairbridge-perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
