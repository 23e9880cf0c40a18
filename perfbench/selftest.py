#!/usr/bin/env python3
"""The benchmark's test of its own answer checks.

    python3 perfbench/selftest.py

Runs wire-scan briefly twice through run.py: once as is, which must pass,
and once with --break-check, which drops one odd key from the first RANGE
reply before it is checked, so the snapshot-completeness check must fail
and the command must exit nonzero with "correct": false.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
ARGS = ["--workload", "wire-scan", "--seed", "7", "--seconds", "2",
        "--trace", "0"]


def run(extra):
    r = subprocess.run([sys.executable, str(RUN)] + ARGS + extra, cwd=ROOT,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    last = r.stdout.rstrip("\n").split("\n")[-1]
    return r.returncode, json.loads(last)


def main():
    code, res = run([])
    if not (code == 0 and res["correct"] and res["failed"] == 0):
        sys.exit(f"selftest: the intact run failed: exit {code}, {res}")
    code, res = run(["--break-check"])
    if not (code != 0 and not res["correct"] and res["failed"] >= 1):
        sys.exit(f"selftest: a broken check went unnoticed: exit {code}, {res}")
    print("selftest: intact run passes; a dropped odd key fails the run")


if __name__ == "__main__":
    main()
