#!/usr/bin/env python3
"""Record perfbench runs as the engine ledger, BENCH_engine.json.

    python3 bench/ledger.py
    python3 bench/ledger.py --check FILE

Run from anywhere inside the repository.  Recording runs every perfbench
workload REPS times for SECONDS each with --trace 0 and then one
--trace 1 pass, and writes schema 7: per workload and end-to-end metric
its reps, median, min, max and unit; the per-layer values of the traced
pass; the machine shape (nproc, OCaml version, commit) and the seed and
seconds used, to BENCH_engine.json at the root.  It writes nothing if
any run failed a check, and then prints a per-metric diff against the
ledger committed at HEAD.  --check validates a ledger against the
metric names in BENCHMARK.json and exits non-zero on the first problem
it finds.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys

SCHEMA = 7
REPS = 3
SECONDS = 25
SEED = 1
WORKLOADS = ["elect-ring256", "walk-graph128", "serve-mix",
             "check-algo3-n5", "backend-live"]
MACHINE = re.compile(r"^machine nproc=(\d+) ocaml=(\S+) rev=(\S+)$", re.M)


def fail(msg):
    print("ledger: " + msg, file=sys.stderr)
    sys.exit(1)


def metric_names():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def perfbench(workload, trace):
    """One run.py run: its machine line and its last (JSON) line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS),
            "--trace", str(trace)]
    print("ledger: " + " ".join(argv[1:]), file=sys.stderr)
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail("%s exited with code %d" % (workload, done.returncode))
    machine = MACHINE.search(done.stdout)
    lines = done.stdout.strip().splitlines()
    if machine is None or not lines:
        fail("%s printed no machine line or no result" % workload)
    result = json.loads(lines[-1])
    if result["failed"] > 0 or not result["correct"]:
        fail("%s --trace %d: %d of %d operations failed (correct=%s); "
             "nothing written" % (workload, trace, result["failed"],
                                  result["attempted"], result["correct"]))
    return machine.groups(), result


def commit(rev):
    """perfbench's revision; when the measured sources differ from it,
    followed by +modified- and a digest of those sources (the files
    perfbench's own digest reads when there is no git)."""
    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no", "--",
         "lib", "bin", "perfbench"],
        stdout=subprocess.PIPE, text=True).stdout.strip()
    if not dirty:
        return rev
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
    return rev + "+modified-" + h.hexdigest()[:12]


def record():
    machines, workloads = set(), {}
    for w in WORKLOADS:
        runs = [perfbench(w, 0) for _ in range(REPS)]
        machines.update(m for m, _ in runs)
        metrics = {}
        for name, first in runs[0][1]["metrics"].items():
            xs = [r["metrics"][name]["value"] for _, r in runs]
            metrics[name] = {"reps": len(xs), "median": statistics.median(xs),
                             "min": min(xs), "max": max(xs),
                             "unit": first["unit"]}
        workloads[w] = {"attempted": sum(r["attempted"] for _, r in runs),
                        "failed": 0, "metrics": metrics}
    machine, traced = perfbench(WORKLOADS[0], 1)
    machines.add(machine)
    if len(machines) != 1:
        fail("the machine line changed between runs: %s" % sorted(machines))
    nproc, ocaml, rev = machine
    return {
        "schema_version": SCHEMA,
        "machine": {"nproc": int(nproc), "ocaml": ocaml,
                    "commit": commit(rev)},
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": workloads,
        "per_layer": {"attempted": traced["attempted"], "failed": 0,
                      "metrics": traced["metrics"]},
    }


def check(ledger):
    """The first problem with a ledger, or None."""
    e2e, layers = metric_names()
    if ledger.get("schema_version") != SCHEMA:
        return "unknown schema_version %r" % ledger.get("schema_version")
    m = ledger.get("machine", {})
    if not (isinstance(m.get("nproc"), int) and m.get("ocaml")
            and m.get("commit")):
        return "machine needs nproc, ocaml and commit"
    for w in WORKLOADS:
        run = ledger.get("workloads", {}).get(w)
        if run is None:
            return "missing workload " + w
        if run.get("failed") != 0:
            return "%s: failed must be 0" % w
        for name in e2e:
            s = run.get("metrics", {}).get(name)
            if s is None:
                return "%s: missing metric %s" % (w, name)
            if not (isinstance(s.get("reps"), int) and s["reps"] >= REPS):
                return "%s %s: reps must be >= %d" % (w, name, REPS)
            lo, mid, hi = (s.get(k) for k in ("min", "median", "max"))
            if not all(isinstance(x, (int, float)) for x in (lo, mid, hi)) \
                    or not lo <= mid <= hi or not s.get("unit"):
                return "%s %s: needs min <= median <= max and a unit" % (w, name)
    traced = ledger.get("per_layer", {})
    if traced.get("failed") != 0:
        return "per_layer: failed must be 0"
    for name in layers:
        if "value" not in traced.get("metrics", {}).get(name, {}):
            return "per_layer: missing metric " + name
    return None


def committed():
    """The ledger committed at HEAD, or {}."""
    shown = subprocess.run(["git", "show", "HEAD:BENCH_engine.json"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
    return json.loads(shown.stdout) if shown.returncode == 0 else {}


def diff(old, new):
    """Print each median (per-layer value) of [new] next to [old]'s."""
    if old.get("schema_version") != SCHEMA:
        print("diff: the committed ledger is schema %s; nothing to compare"
              % old.get("schema_version"))
        return

    def rows(ledger):
        for w, run in ledger["workloads"].items():
            for name, s in run["metrics"].items():
                yield (w, name), s["median"]
        for name, v in ledger["per_layer"]["metrics"].items():
            yield ("layer", name), v["value"]

    before = dict(rows(old))
    print("diff against %s:" % old["machine"]["commit"])
    for key, v in rows(new):
        was = before.get(key)
        change = ("%+.1f%%" % (100 * (v - was) / was) if was else "new")
        print("  %-15s %-42s %14.6g -> %-14.6g %s"
              % (key[0], key[1], was if was is not None else float("nan"),
                 v, change))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", metavar="FILE")
    a = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    check_path = a.check and os.path.abspath(a.check)
    os.chdir(os.path.dirname(here))
    if check_path:
        with open(check_path) as f:
            problem = check(json.load(f))
        if problem:
            fail("%s: %s" % (a.check, problem))
        print("ledger: %s ok" % a.check)
        return
    ledger = record()
    problem = check(ledger)
    if problem:
        fail("recorded ledger is invalid: " + problem)
    with open("BENCH_engine.json", "w") as f:
        json.dump(ledger, f, indent=2)
        f.write("\n")
    print("ledger: wrote BENCH_engine.json")
    diff(committed(), ledger)


if __name__ == "__main__":
    main()
