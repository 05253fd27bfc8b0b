#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper-voip --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The Go program in perfbench/ is built
from source into .bench_build/ (build cache included, so nothing is
written outside the checkout) and run with the given arguments; its
last line of standard output is the result object. See
perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")


def env():
    e = dict(os.environ)
    e.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return e


def main():
    # The benchmark measures the program, which must be beside it.
    for need in ("go.mod", "internal"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found in {ROOT}: run from a full checkout",
                  file=sys.stderr)
            return 2
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", BINARY, "."],
        cwd=os.path.join(ROOT, "perfbench"), env=env(), timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    run = subprocess.run(
        [BINARY, "--out", os.path.join(BUILD, "perfbench")] + sys.argv[1:],
        cwd=ROOT, env=env(), timeout=175)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
