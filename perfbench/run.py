#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload uts_fine --seed 1 --seconds 20 --trace 0

The program is built into $CARGO_TARGET_DIR (default .bench_build) with the
Go build cache, module cache and Go's own config kept in the same directory,
so nothing is read from or written to outside the checkout. The last line of
standard output is the benchmark's JSON result; the exit code is the
program's. Without the simulator's sources next to this directory the build
fails and the script exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod above %s: run from a full checkout" % here, file=sys.stderr)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    except OSError as err:
        print("perfbench: cannot run go: %s" % err, file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    run = subprocess.run([binary] + sys.argv[1:] + ["-out", build], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
