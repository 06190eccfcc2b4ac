#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <warm_hits|cold_misses|lp_sweep> \
        --seed <n> --seconds <s> --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default: .bench_build): the
`defender` binary that the serve workloads start as a separate process,
and the `perfbench` package in this directory, which drives it and
measures. Build output goes to standard error; the last line of standard
output is the benchmark's JSON result.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        print(
            "perfbench: no Cargo.toml and crates/ here; run from the repository root",
            file=sys.stderr,
        )
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "defender-cli", "--bin", "defender"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode
    release = target / "release"
    cmd = [
        str(release / "perfbench"),
        *sys.argv[1:],
        "--defender", str(release / "defender"),
        "--work-dir", str(target / "perfbench-work"),
    ]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
