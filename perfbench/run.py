#!/usr/bin/env python3
"""Build and run the catalog's wire-level benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hot_browse --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --self-test

The first call configures an optimised (Release) build of the catalog
libraries and the load generator under $CARGO_TARGET_DIR (default
.bench_build); later calls rebuild incrementally. The benchmark prints its log
and, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. The exit status is 0 only when every correctness check
passed. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hot_browse", "discover", "ingest_mixed", "fed_discover"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_id():
    """Git commit when the tree is a checkout, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "tree:" + digest.hexdigest()[:12]


def build(build_dir):
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        build_type = [line.split("=", 1)[1].strip() for line in f
                      if line.startswith("CMAKE_BUILD_TYPE:")]
    if build_type != ["Release"]:
        raise RuntimeError(f"{build_dir} is not a Release build ({build_type})")
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted responses and wrong id sets are caught")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(os.path.join(out_root, "perfbench"))
    except (OSError, RuntimeError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    if args.self_test:
        command = [binary, "--self-test"]
    else:
        work_dir = os.path.join(out_root, "perfbench-work")
        os.makedirs(work_dir, exist_ok=True)
        command = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace,
                   "--work-dir", work_dir, "--source", source_id()]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
