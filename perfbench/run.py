#!/usr/bin/env python3
"""End-to-end xpstreamd benchmark: build, run one workload, print metrics.

    python3 perfbench/run.py --workload dissemination --seed 1 \
        --seconds 30 --trace 0 [--smoke]

Run from the root of an xpstream source tree. The first run configures
and builds xpstreamd and the load generator in Release mode under
$CARGO_TARGET_DIR (default .bench_build) /perfbench; later runs rebuild
only what changed. The load generator's last line of output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; see
perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dissemination", "large_feed", "churn")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds; returns the two executables."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "xpstreamd", "perfbench_loadgen"],
        check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "xpstream", "src", "xpstreamd"),
            os.path.join(build_dir, "perfbench_loadgen"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for trying the harness out")
    parser.add_argument("--workers", type=int, default=0,
                        help="override xpstreamd --pipeline-workers "
                             "(diagnostics; 1 = the serial service)")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "server", "main.cc")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log("perfbench: no xpstream source tree at %s (missing %s)"
                % (ROOT, needed))
            return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    try:
        daemon, loadgen = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        log("perfbench: build failed: %s" % error)
        return 1

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [loadgen, "--daemon", daemon, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-dir", trace_dir]
    if args.smoke:
        command.append("--smoke")
    if args.workers:
        command += ["--workers", str(args.workers)]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        # run() has killed and reaped the load generator; its daemon
        # child dies with it (PR_SET_PDEATHSIG).
        log("perfbench: the run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log("perfbench: the load generator failed (exit %d)"
            % result.returncode)
        return result.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
