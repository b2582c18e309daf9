#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Usage, from the root of the source tree:

    python3 perfbench/run.py --workload fit-ap1 --seed 106 --seconds 20 --trace 0

The Go program is built into .bench_build/ (the Go build cache, temporary
files and toolchain state stay there too), then run with the same
arguments. Its standard output, whose last line is the JSON result, is
passed through. Run records and traced spans go to .bench_build/records/.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_env():
    """Environment that keeps every file the Go toolchain writes in BUILD."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOFLAGS"] = "-buildvcs=false"
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOTELEMETRY"] = "off"
    env["TMPDIR"] = env["GOTMPDIR"]
    return env


def main():
    # A terminated run stops its child too: SystemExit unwinds through
    # subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = go_env()
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [BINARY, "-record-dir", os.path.join(BUILD, "records")] + sys.argv[1:]
    try:
        run = subprocess.run(args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
