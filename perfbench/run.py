#!/usr/bin/env python3
"""Build and run the reconstruction-job benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt compiles the libraries from src/) under
$CARGO_TARGET_DIR, default .bench_build; later runs rebuild incrementally.
The benchmark's report goes to standard output, ending with the one-line
JSON result. Build output goes to standard error. The run record (and, for
traced runs, the spans) is written under the build directory.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
WORKLOADS = ("warm_serve", "cold_serve", "burst_batched", "sharded_sirt")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_digest():
    """Digest of the library and benchmark sources: identifies the code run
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest()


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s/src: run from the root of a full checkout" % ROOT)
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", *targets, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out


def bench_env():
    env = dict(os.environ)
    # Idle OpenMP threads must sleep, not spin: several thread pools share
    # the CPUs in every workload.
    env["OMP_WAIT_POLICY"] = "passive"
    env["PERFBENCH_COMMIT"] = commit_id()
    return env


def run(cmd, env):
    """Runs cmd, stops it if it outlives RUN_TIMEOUT_S, and waits for it."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (cmd[0], RUN_TIMEOUT_S))
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def selftest():
    """The benchmark's own tests: unit checks, then a smoke-size run of every
    workload, untraced and traced (perfbench/tests/selftest.cpp)."""
    out = build(["perfbench_selftest"])
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if run([os.path.join(out, "perfbench_selftest"), spec], bench_env()) != 0:
        fail("selftest failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return
    if args.workload is None:
        parser.error("--workload is required")
    out = build(["perfbench"])
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", os.path.join(out, "runs")]
    sys.exit(run(cmd, bench_env()))


if __name__ == "__main__":
    main()
