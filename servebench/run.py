#!/usr/bin/env python3
"""Build the servebench program (and dyncg_serve) from source, then run it.

    python3 servebench/run.py --workload cold_solve --seed 1 --seconds 15 --trace 0
    python3 servebench/run.py --selftest

Run from the repository root.  The build tree is $CARGO_TARGET_DIR/servebench
(default .bench_build/servebench); reports go to its reports/ directory.
Every other argument is passed to the program unchanged (see README.md).  A
failed build exits 1 without printing a result line.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build(bdir, targets):
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log) != 0:
            # A half-configured tree would be reused by the next run.
            cache = os.path.join(bdir, "CMakeCache.txt")
            if os.path.exists(cache):
                os.remove(cache)
            return False, log
    cmd = ["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
           "--target"] + targets
    return run_logged(cmd, log) == 0, log


def main():
    args = sys.argv[1:]
    selftest = "--selftest" in args
    bdir = build_dir()
    ok, log = build(bdir, ["servebench_selftest"] if selftest else ["servebench"])
    if not ok:
        with open(log) as f:
            tail = f.read()[-4000:]
        sys.stderr.write(tail + "\nservebench: build failed (log: %s)\n" % log)
        return 1
    if selftest:
        return subprocess.run([os.path.join(bdir, "servebench_selftest")]).returncode
    exe = os.path.join(bdir, "servebench")
    return subprocess.run([exe, "--out", os.path.join(bdir, "reports")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
