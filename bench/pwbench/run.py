#!/usr/bin/env python3
"""Builds pwbench from this checkout, then measures one workload.

  python3 bench/pwbench/run.py --workload W --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics (untraced runs); --trace 1 the
per-layer metrics (traced runs alternating with untraced ones). The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Build output goes to stderr. The build lives in $CARGO_TARGET_DIR/pwbench
when that is set, else in build/pwbench, and is reused by later runs.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["pipeline16", "train_clos", "serve_kv", "serve_disagg_clos"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    return os.path.join(ROOT, target, "pwbench") if target else os.path.join(
        ROOT, "build", "pwbench")


def build(out):
    os.makedirs(out, exist_ok=True)
    # One build at a time per checkout; later runs find it up to date.
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                        "pwbench"], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        print(f"run.py: no pwsim sources at {ROOT}", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    pwbench = os.path.join(out, "pwbench")
    sys.stdout.flush()
    os.execv(pwbench, [pwbench, "run", args.workload,
                       "--seed", str(args.seed),
                       "--seconds", repr(args.seconds),
                       "--phase", "layers" if args.trace else "e2e",
                       "--json"])
    return 2  # execv does not return


if __name__ == "__main__":
    sys.exit(main())
