#!/usr/bin/env python3
"""Build the library and the benchmark from source, then run one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

Further flags (--threads, --rate) pass through to the benchmark binary;
README.md lists them.

Run from the root of the repository. The build goes to
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); trace files and
the spill tier's backing files go to its out/ directory. The last line of
stdout is the run's JSON result; everything else goes to stderr.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mle_fit", "loglik_n1600", "serve_open", "serve_paged")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "e2ebench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to e2ebench/")
    bdir = build_dir()
    log = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        log.append(subprocess.run(cmd, capture_output=True, text=True))
    if not log or log[-1].returncode == 0:
        cmd = ["cmake", "--build", bdir, "-j4", "--target", target]
        log.append(subprocess.run(cmd, capture_output=True, text=True))
    if log[-1].returncode != 0:
        for p in log:
            sys.stderr.write(p.stdout + p.stderr)
        fail("build failed")
    return os.path.join(bdir, target)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the self-tests of the benchmark's checks")
    args, extra = ap.parse_known_args()

    if args.selftest:
        exe = build("e2ebench_selftest")
        sys.exit(subprocess.run([exe]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    exe = build("e2ebench")
    out_dir = os.path.join(build_dir(), "out")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir] + extra
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no result line")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    want = expected_metrics(args.trace)
    if want is not None and list(result["metrics"]) != want:
        fail("printed metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(want))}")
    print(f"run.py: {args.workload} ran {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    print(lines[-1])


if __name__ == "__main__":
    main()
