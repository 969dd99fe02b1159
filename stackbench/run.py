#!/usr/bin/env python3
"""Builds and runs the serving-stack benchmark.

    python3 stackbench/run.py --workload <ingest_http|lrb_adaptive|scan_under_ingest>
                              --seed <n> --seconds <s> --trace <0|1> [--short]

Run from the repository root. The first call configures and builds the
repository's libraries plus the benchmark driver (CMake, RelWithDebInfo) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
re-check the build. Build output goes to stderr; stdout ends with the result
object. The exit code is non-zero when the build or a correctness check fails.
"""

import argparse
import fcntl
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_http", "lrb_adaptive", "scan_under_ingest")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the driver; returns the binary path."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmake_dir = os.path.join(out_dir, "cmake")
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, stderr=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", cmake_dir, "-j4", "--target", "stackbench"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(cmake_dir, "stackbench")


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="tiny sizes, for the self-test")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"stackbench: build failed: {e}", file=sys.stderr)
        return 1
    # Data dirs a killed run left behind (each run removes its own).
    for stale in glob.glob(os.path.join(out_dir, "data-*")):
        shutil.rmtree(stale, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", out_dir, "--git-rev", source_revision()]
    if args.short:
        cmd.append("--short")
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("stackbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
