#!/usr/bin/env python3
"""Build and run the repository benchmark.

usage: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the benchmark and the pdgcd
daemon from source with dune, in the `perfbench` profile and the build
directory _perfbench/ (the first run of a fresh checkout pays for the
build), then runs one workload.  The last line of standard
output is the JSON result; build output goes to standard error.  Exits
non-zero, printing no result, when the build or the run fails.  A
traced run (--trace 1) also writes its spans under .perfbench/.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = "_perfbench"


def dune():
    found = shutil.which("dune")
    return [found] if found else ["opam", "exec", "--", "dune"]


def main(argv):
    if not os.path.isfile("dune-project"):
        sys.stderr.write("perfbench: run from the repository root\n")
        return 1
    traced = "--trace" in argv and argv[argv.index("--trace") + 1 :][:1] == ["1"]
    # The gated executable never links the stage-by-stage replay.
    exe = "perfbench/traced.exe" if traced else "perfbench/main.exe"
    build = subprocess.run(
        dune() + ["build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "perfbench",
                  "./" + exe, "./bin/pdgcd.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    built = os.path.join(BUILD_DIR, "default")
    extra = ["--pdgcd", os.path.join(built, "bin", "pdgcd.exe")]
    if traced:
        os.makedirs(".perfbench", exist_ok=True)
        extra += ["--spans", os.path.join(".perfbench", "spans.tsv")]
    return subprocess.run([os.path.join(built, exe)] + argv + extra).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
