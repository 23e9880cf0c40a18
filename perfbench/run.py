#!/usr/bin/env python3
"""bref-bench entry point: build the benchmark from source, run one workload.

    python3 perfbench/run.py --workload wire-scan|embedded-update \
        --seed N --seconds S --trace 0|1 [--break-check]

Run from the root of the repository. The benchmark is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to the
root), then run; its report goes to stdout and its last line is the result
JSON. The exit code is the benchmark's: 0 only when every op succeeded and
every answer check passed. See perfbench/README.md.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "src" / "net" / "server.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    cache = out / "CMakeCache.txt"
    # A cache left by a checkout at another path cannot be reused.
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n"
    if cache.is_file() and home not in cache.read_text():
        shutil.rmtree(out)
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out", 1)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail(f"build failed: {' '.join(cmd)}", 1)
    return out / "bref_bench"


def main():
    args = sys.argv[1:]
    if "--workload" not in args:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    exe = build()
    try:
        r = subprocess.run([str(exe)] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = r.stdout.rstrip("\n").split("\n")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode == 2:
        sys.exit(2)  # usage error, reported by the benchmark
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("the benchmark printed no result line", 1)
    sys.exit(r.returncode if r.returncode != 0 or result["correct"] else 1)


if __name__ == "__main__":
    main()
