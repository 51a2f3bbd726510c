#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload google_hermes --seed 1 \
        --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The exit code is 0
only when the build succeeded and every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("google_hermes", "google_calvin", "tpcc_hot")
# Library environment switches. The binary refuses any non-default value;
# this wrapper pins them and records what it inherited in the stamp.
PINNED_ENV = ("HERMES_SIM_THREADS", "HERMES_TRACE", "HERMES_HASH_SALT",
              "HERMES_TRACE_KEY")


def build():
    """Configures (once) and builds; returns False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; nothing to build",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build directory copied from another checkout points CMake at
        # that checkout's sources; start it afresh.
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(BUILD_DIR)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def git_sha():
    """The checkout's commit when it is a git work tree, else 'unknown'."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, env=env)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1

    env = dict(os.environ)
    inherited = {name: env.pop(name, None) for name in PINNED_ENV}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(OUT_DIR, args.workload + ".trace.json")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
            stamp["git_sha"] = git_sha()
            stamp["inherited_env"] = inherited
            line = "stamp " + json.dumps(stamp, sort_keys=True)
        print(line)
    result = lines[-1] if lines else ""
    try:
        json.loads(result)
    except ValueError:
        print(result)
        print("perfbench: the benchmark printed no result", file=sys.stderr)
        return 1
    print(result)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
