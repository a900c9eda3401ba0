#!/usr/bin/env python3
"""Measure the test suite's strength with hand-written mutants.

Each row of mutants.json (next to this script) names a file, an exact
text that must occur in it once, and a replacement.  The script copies
the repository to a scratch directory, checks that the unmutated copy
passes `dune build @runtest`, then applies one row at a time and runs
`dune build @runtest` again:

  - a "killed" row must make the run fail; the script names the tests
    that failed (alcotest cases, golden transcripts, lint);
  - an "equivalent" row documents a mutant no test can see, with the
    reason; it must leave the run passing, so a new test that starts
    killing it shows up here and the row moves to "killed".

A row whose text no longer occurs exactly once, or whose mutant does
not compile, fails the script: a change that deletes or rewrites a
mechanism updates its row too.  Exit status 0 when every row behaves
as recorded, 1 otherwise, 2 when the unmutated copy already fails.

Run from anywhere:

    python3 tools/mutants/run.py [NAME ...]

NAME restricts the run to those rows.  The scratch copy lives in a
fresh temporary directory that the script removes afterwards.
"""

import argparse
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
ROWS = os.path.join(HERE, "mutants.json")
RUN_TIMEOUT_S = 1800
# Address-space cap per process of a run.  A mutant that breaks undo
# can make an unbounded model-checker run grow by gigabytes in
# seconds; under the cap it dies with Out_of_memory, which fails its
# test, instead of exhausting the machine's memory.
MEMORY_CAP_BYTES = 2 << 30
DUNE_JOBS = 2
ANSI = re.compile(r"\x1b\[[0-9;]*m")
SOURCE = re.compile(r'^File "[^"]+\.mli?", line \d+')
GOLDEN = re.compile(r'^File "((?:test|bench)/[^"]+)", line \d+')


def load_rows(names):
    with open(ROWS) as f:
        data = json.load(f)
    rows = [dict(r, kind="killed") for r in data["killed"]]
    rows += [dict(r, kind="equivalent") for r in data["equivalent"]]
    if names:
        unknown = set(names) - {r["name"] for r in rows}
        if unknown:
            sys.exit("unknown row(s): " + ", ".join(sorted(unknown)))
        rows = [r for r in rows if r["name"] in names]
    return rows


def dune_runtest(work):
    """Run the suite in [work]; (exit code, output without colours)."""
    env = dict(os.environ, DUNE_CACHE="disabled")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS,
                           (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))

    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "-j", str(DUNE_JOBS), "@runtest"],
            cwd=work, env=env, preexec_fn=cap_memory, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % RUN_TIMEOUT_S
    return done.returncode, ANSI.sub("", done.stdout.decode("utf-8", "replace"))


def failed_tests(out):
    """What failed, as names: alcotest cases under their suite, golden
    files whose diff failed, lint; [] when nothing is recognised."""
    names = []
    suite = "?"
    for line in out.splitlines():
        m = re.search(r"Testing `([^']+)'", line)
        if m:
            suite = m.group(1)
        m = re.search(r"\[FAIL\]\s+(.*?)\s+\d+\s+(.*?)\.?\s*$", line)
        if m and "\u2502" not in line:  # not the repeat in alcotest's box
            names.append("%s: %s / %s" % (suite, m.group(1), m.group(2)))
        m = GOLDEN.match(line)
        if m and not m.group(1).endswith((".ml", ".mli", "dune")):
            names.append("golden " + m.group(1))
        if line.startswith("colring-lint:") and not line.endswith(
                ("clean", "all names bound")):
            names.append("lint: " + line)
    seen = []
    for n in names:
        if n not in seen:
            seen.append(n)
    return seen


def does_not_compile(out):
    lines = out.splitlines()
    return any(
        SOURCE.match(l) and any(x.startswith("Error") for x in lines[i:i + 12])
        for i, l in enumerate(lines))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("names", nargs="*", help="rows to run (default: all)")
    args = ap.parse_args()
    rows = load_rows(args.names)

    problems = []
    for r in rows:
        with open(os.path.join(ROOT, r["file"])) as f:
            k = f.read().count(r["text"])
        if k != 1:
            problems.append("%s: its text occurs %d times in %s (want 1)"
                            % (r["name"], k, r["file"]))
    if problems:
        for p in problems:
            print("STALE  " + p)
        return 1

    scratch = tempfile.mkdtemp(prefix="colring-mutants-")
    work = os.path.join(scratch, "repo")
    try:
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            "_build", ".git", "__pycache__", "_opam"))
        t0 = time.time()
        code, out = dune_runtest(work)
        print("baseline: %s in %.0f s" % (
            "passes" if code == 0 else "FAILS", time.time() - t0), flush=True)
        if code != 0:
            print(out[-4000:])
            return 2
        bad = 0
        for r in rows:
            path = os.path.join(work, r["file"])
            with open(path) as f:
                original = f.read()
            with open(path, "w") as f:
                f.write(original.replace(r["text"], r["replacement"], 1))
            t = time.time()
            code, out = dune_runtest(work)
            with open(path, "w") as f:
                f.write(original)
            took = "%.0f s" % (time.time() - t)
            if code is None:
                verdict, ok = "TIMEOUT", False
            elif code != 0 and does_not_compile(out):
                verdict, ok = "DOES NOT COMPILE", False
            elif r["kind"] == "killed":
                verdict, ok = ("killed", True) if code != 0 else ("SURVIVED", False)
            else:
                verdict, ok = ("survives (equivalent)", True) if code == 0 else (
                    "KILLED: move it to \"killed\"", False)
            print("%-40s %s (%s)" % (r["name"], verdict, took), flush=True)
            if code:
                tests = failed_tests(out)
                for n in tests[:12]:
                    print("    " + n)
                if len(tests) > 12:
                    print("    ... and %d more" % (len(tests) - 12))
                if not tests:
                    print("    (no test name recognised; output tail:)")
                    print("    " + "\n    ".join(out.splitlines()[-15:]))
            if not ok:
                bad += 1
        print("%d rows, %d as recorded, %.0f s in all"
              % (len(rows), len(rows) - bad, time.time() - t0))
        return 1 if bad else 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
