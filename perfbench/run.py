#!/usr/bin/env python3
"""Build the perfbench package from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The package is built in release mode into $CARGO_TARGET_DIR (default:
target/perfbench under the current directory). Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Stores and span dumps go to <target dir>/perfbench-scratch.
The exit code is the benchmark's, or the build's when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    manifest = Path(__file__).resolve().parent / "Cargo.toml"
    target = Path(os.environ.get("CARGO_TARGET_DIR") or Path("target") / "perfbench")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return build.returncode
    binary = target / "release" / "perfbench"
    scratch = target / "perfbench-scratch"
    return subprocess.run([str(binary), *sys.argv[1:], "--scratch", str(scratch)], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
