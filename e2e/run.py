#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the repository root.

    python3 e2e/run.py --workload query|train|stream --seed N --seconds S --trace 0|1
    python3 e2e/run.py --selftest

The first call configures and builds the library and the benchmark into
.bench_build (or $CARGO_TARGET_DIR); later calls rebuild what changed.
Build output goes to <build>/build.log. The benchmark's standard output is
passed through unchanged; its last line is the JSON result. --selftest
builds and runs the benchmark's own tests instead.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    sys.stderr.write("e2e/run.py: %s\n" % message)
    sys.exit(1)


def revision():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir, target):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, target)


def main():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s" % os.path.join(ROOT, "src"))
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_dir)
    args = sys.argv[1:]
    if args == ["--selftest"]:
        binary = build(build_dir, "gelc_e2e_test")
        sys.exit(subprocess.run([binary], cwd=ROOT).returncode)
    binary = build(build_dir, "gelc_e2e")
    sys.stdout.flush()
    code = subprocess.run([binary] + args + ["--revision", revision()],
                          cwd=ROOT).returncode
    sys.exit(code)


if __name__ == "__main__":
    main()
