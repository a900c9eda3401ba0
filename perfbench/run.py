#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The script builds perfbench/bench.exe
and bin/colring.exe with dune, then runs the benchmark; the last line
of standard output is the benchmark's JSON result.  It exits non-zero
without a result when the build or the run fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGETS = ["./perfbench/bench.exe", "./bin/colring.exe"]


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def revision():
    """The git commit when there is one, else a digest of the sources."""
    # The ceiling keeps git from looking above this directory.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(root, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def build():
    if not os.path.exists("dune-project"):
        fail("no dune-project here: run from the repository root")
    # No shared build cache: the build reads and writes only here.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", "."] + TARGETS,
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
            env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed with code %d" % done.returncode)


def run(argv):
    """Run the benchmark in its own process group, so a timeout can stop
    every process it started (serve child, domains child, socket nodes)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    build()
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    colring = os.path.join("_build", "default", "bin", "colring.exe")
    if a.self_test:
        argv = [exe, "--self-test", "--seed", str(a.seed), "--colring", colring]
    else:
        if not a.workload:
            fail("--workload is required")
        argv = [exe, "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--colring", colring, "--rev", revision()]
    code = run(argv)
    if code != 0:
        fail("benchmark exited with code %d" % code)


if __name__ == "__main__":
    main()
