#!/usr/bin/env python3
"""Build and run one workload of the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library and the perfbench binary into .bench_build/ (an optimized
RelWithDebInfo build, the repo's default); later calls rebuild only what
changed. The binary's last line of output is the result JSON. Traced
runs also write their spans under .bench_build/traces/.
"""

import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """git sha when the tree is a checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if sha.returncode == 0:
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                    "--", "src", "CMakeLists.txt"],
                                   capture_output=True, text=True).stdout.strip()
            return "git:" + sha.stdout.strip() + ("+dirty" if dirty else "")
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src:" + digest.hexdigest()[:12]


def build():
    """Configure once, then an incremental build of the binary."""
    quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.PIPE, "text": True}
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], **quiet)
        if r.returncode != 0:
            sys.stderr.write(r.stderr)
            return None
    r = subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                        "-j", str(min(4, os.cpu_count() or 1))], **quiet)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def main(argv):
    binary = build()
    if binary is None:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary] + argv + ["--trace-dir", trace_dir, "--source-id", source_id()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
