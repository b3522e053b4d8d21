#!/usr/bin/env python3
"""Build the perfbench command from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 40 --trace 0

Everything the build and the run write stays under .bench_build/ at the
repository root: the Go build cache, the binary, the runs' state
directories and the Perfetto traces. The build never touches the network.
Any build failure (for instance, a checkout without the hbmsim module the
benchmark imports) exits non-zero before a result is printed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build")


def main():
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOFLAGS="",
    )
    binary = os.path.join(BUILD, "bin", "perfbench")
    os.makedirs(BUILD, exist_ok=True)
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    except OSError as err:
        print("perfbench: cannot run the go toolchain:", err, file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    args = [binary, "--dir", os.path.join(BUILD, "runs")] + sys.argv[1:]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
