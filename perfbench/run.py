#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

From the root of the repository:

    python3 perfbench/run.py --workload fedbuff-16k --seed 1 --seconds 10 --trace 0

runs one workload and passes the binary's output and exit code through;
its last line of standard output is the JSON result. Without --workload
it runs every workload untraced and then traced, and exits non-zero if
any run failed.

The Go build cache and the binary live in .bench_build/ at the root, so
nothing is written outside the checkout.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["fedbuff-16k", "dp-int8-1k", "checkin-storm"]


def build():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        # The go command keeps its telemetry under the user config dir.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + proc.stdout)
        sys.exit(proc.returncode)


def run(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    if args.workload:
        sys.exit(run(args.workload, args.seed, args.seconds, args.trace))
    failed = []
    for trace in (0, 1):
        for w in WORKLOADS:
            print("=== %s trace=%d" % (w, trace), flush=True)
            if run(w, args.seed, args.seconds, trace) != 0:
                failed.append("%s trace=%d" % (w, trace))
    if failed:
        print("perfbench: failed runs: " + ", ".join(failed), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
