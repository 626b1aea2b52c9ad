#!/usr/bin/env python3
"""Build the perfbench program from the checkout's sources and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig8_cold --seed 1 --seconds 20 --trace 0

Every build artefact (Go build cache, binary) and every file a run writes
stays under .bench_build/ in the checkout. The last line of standard
output is the run's JSON result; a failed build prints no result and
exits non-zero.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench-bin")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="-mod=mod -buildvcs=false",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    os.makedirs(build, exist_ok=True)
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
