#!/usr/bin/env python3
"""Build and run the benchmark ledger.

Run from the root of a checkout:

    python3 ledger/run.py --workload s61_stack --seed 7 --seconds 15 --trace 0
    python3 ledger/run.py --workload all --seed 7 --seconds 15

It builds ledger/ledger.exe from the checkout's sources with dune (build
directory .bench_build, no shared cache), then runs the workload in a
process of its own.  The last line of standard output is the result
object: {"correct", "attempted", "failed", "metrics"}.  `--workload all`
runs every workload, one process each, and ends with one combined
object whose metric names are prefixed by the workload.

Exit codes: 0 clean; 1 a correctness check failed (the result is still
printed, with "correct": false); 2 the program could not be built or
run; 3 a determinism check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["s61_stack", "pc_members", "pc_audited", "hunt_faults"]
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "ledger", "ledger.exe")
BUILD_TIMEOUT = 600
RUN_TIMEOUT = 170


def die(msg, code=2):
    print("ledger: " + msg, file=sys.stderr)
    sys.exit(code)


def env():
    e = dict(os.environ)
    # Keep dune's cache and the OCaml runtime settings out of the run.
    e.pop("OCAMLRUNPARAM", None)
    e["DUNE_CACHE"] = "disabled"
    e["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(BUILD_DIR, "cache"))
    return e


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a causalb checkout (no dune-project or lib/ here)")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--display", "quiet", "./ledger/ledger.exe"]
    try:
        p = subprocess.run(cmd, env=env(), stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace")[-4000:])
        die("build failed")


def revision():
    """The commit when the checkout is a git repository, else a digest of
    the library and benchmark sources."""
    if os.path.isdir(".git"):
        try:
            p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                               timeout=30)
            if p.returncode == 0:
                return p.stdout.decode().strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha1()
    for top in ("lib", "ledger"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "sources-sha1:" + h.hexdigest()


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 0


def run_one(workload, args, commit):
    os.makedirs(os.path.join(BUILD_DIR, "spans"), exist_ok=True)
    spans = os.path.join(BUILD_DIR, "spans", "%s-seed%d.tsv" % (workload, args.seed))
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit, "--nproc", str(nproc()), "--spans", spans]
    p = subprocess.Popen(cmd, env=env(), stdout=subprocess.PIPE)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        die("%s: no result within %d s" % (workload, RUN_TIMEOUT))
    text = out.decode(errors="replace")
    lines = text.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if p.returncode not in (0, 1) or result is None:
        # The program prints its result line only when it got that far.
        sys.stdout.write(text)
        die("%s: exited with code %d" % (workload, p.returncode),
            3 if p.returncode == 3 else 2)
    return text, result, p.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    commit = revision()
    if args.workload != "all":
        text, _, code = run_one(args.workload, args, commit)
        sys.stdout.write(text)
        sys.exit(code)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        text, result, c = run_one(w, args, commit)
        print("== " + w)
        sys.stdout.write("\n".join(text.splitlines()[:-1]) + "\n")
        code = max(code, c)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][w + "." + name] = m
    print(json.dumps(combined))
    sys.exit(code)


if __name__ == "__main__":
    main()
