#!/usr/bin/env python3
"""Build the nested-query benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload nested-standard --seed 3 --seconds 20 --trace 0

The build goes to .bench_build/ (dune's cache is disabled, so nothing is
written outside the checkout). Every argument is passed on to
perfbench/main.exe, whose last line of output is the JSON result; with
--trace 1 the spans of the traced queries are written under
.bench_build/perfbench/.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def arg_value(args, flag, default):
    if flag in args and args.index(flag) + 1 < len(args):
        return args[args.index(flag) + 1]
    return default


def main():
    args = sys.argv[1:]
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled", "--profile", "release", "--display", "quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    if arg_value(args, "--trace", "0") == "1" and "--spans" not in args:
        span_dir = os.path.join(BUILD_DIR, "perfbench")
        os.makedirs(span_dir, exist_ok=True)
        name = "spans-%s-%s.json" % (arg_value(args, "--workload", "none"),
                                     arg_value(args, "--seed", "default"))
        args = args + ["--spans", os.path.join(span_dir, name)]
    sys.stdout.flush()
    return subprocess.run([EXE] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
