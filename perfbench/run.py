#!/usr/bin/env python3
"""Builds the aaod benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-manifest

Run from the repository root. The benchmark is the Rust package next to
this file; it builds into $CARGO_TARGET_DIR (default .bench_build) and
its last line of output is the JSON result. `--write-manifest` rewrites
BENCHMARK.json and perfbench/README.md from the definitions in
perfbench/src/manifest.rs.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the benchmark's own serve guard fires
# first, this is the backstop.
RUN_TIMEOUT_S = 170


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: library sources (crates/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args == ["--write-manifest"]:
        args = ["--write-manifest", ROOT]
    binary = os.path.join(target, "release", "aaod-perfbench")
    child = subprocess.Popen([binary] + args, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def _terminate(signum, _frame):
    # Turn SIGTERM into an exception so `main` stops its child first.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
