#!/usr/bin/env python3
"""Builds the paper-pipeline benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <table1|stress|traces> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR (default: perfbench/target); traced runs write their
spans to <target dir>/perfbench/spans-<workload>.jsonl. Build output goes
to standard error, so the last line of standard output is the
benchmark's JSON result. The exit code is the benchmark's, or the
build's when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "perfbench")
    spans = os.path.join(target, "perfbench")
    sys.stdout.flush()
    return subprocess.run([exe, *sys.argv[1:], "--spans-dir", spans], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
