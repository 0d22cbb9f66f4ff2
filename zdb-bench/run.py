#!/usr/bin/env python3
"""zdb-bench: build the service benchmark from this checkout and run one workload.

    python3 zdb-bench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0
    python3 zdb-bench/run.py --workload all --seed 1 --seconds 15   # every workload

Run from the root of a checkout. The engine and the zdb_bench program are
built with CMake (Release) under $CARGO_TARGET_DIR/zdb-bench (default
.bench_build/zdb-bench); the database files, per-run result files and
span dumps go to its run/ subdirectory. Build output goes to stderr;
zdb_bench's report goes to stdout and ends with one JSON line.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_read", "cold_scan", "durable_write")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "zdb-bench")


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "zdb-bench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def build(bdir):
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", bdir, "--target", "zdb_bench",
                        "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "zdb_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("zdb-bench: no zdb sources next to the benchmark "
                 "(expected src/CMakeLists.txt); run it from a checkout")
    bdir = build_dir()
    try:
        exe = build(bdir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"zdb-bench: build failed: {e}")

    rev = source_revision()
    failed = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [exe, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", os.path.join(bdir, "run"), "--rev", rev]
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit(f"zdb-bench: {workload} exceeded {RUN_TIMEOUT_S} s")
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
        if r.returncode != 0:
            failed.append(f"{workload} (exit {r.returncode})")
    if failed:
        sys.exit("zdb-bench: failed: " + ", ".join(failed))


if __name__ == "__main__":
    main()
