#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (the first build compiles the
libraries under lib/), runs it once, and relays its output: the last
line of standard output is the run's JSON result, progress and the
traced run's span table go to standard error.  The exit code is the
benchmark's: non-zero when the build fails, the checkout is incomplete,
or any answer fails verification.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGET = "./perfbench/bench.exe"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, env=None, capture=False):
    """Run cmd to completion (killing it on timeout) and return it."""
    try:
        return subprocess.run(
            cmd,
            timeout=timeout,
            env=env,
            stdout=subprocess.PIPE if capture else None,
            stderr=None if not capture else subprocess.STDOUT,
            text=True,
        )
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (cmd[0], timeout))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a repository checkout (missing %s)" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")

    # The shared dune cache lives outside the checkout: keep every
    # build artefact under _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = run(
        [dune, "build", "--root", ".", "--display", "quiet", TARGET],
        BUILD_TIMEOUT_S,
        env=env,
        capture=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout or "")
        fail("build failed")

    bench = subprocess.Popen(
        [
            EXE,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = bench.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        bench.kill()
        bench.wait()
        fail("benchmark run timed out after %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
