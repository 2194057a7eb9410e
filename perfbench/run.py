#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kv_sat --seed 1 --seconds 10 --trace 0

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the middleware from src/.  It is configured as a Release
build under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
the first time and rebuilt incrementally afterwards; build output goes to
standard error.  The benchmark binary's standard output is passed
through, so the last line is its JSON result.  Exit status is the
binary's, or 2 when the sources are missing or the build fails.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "runtime" / "cluster.hpp").is_file():
        fail(f"middleware sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    # A build tree configured for another checkout cannot be reused.
    stamp = build_dir / "source-dir.txt"
    if stamp.is_file() and stamp.read_text() != str(HERE):
        shutil.rmtree(build_dir)
    if not (build_dir / "CMakeCache.txt").is_file():
        build_dir.mkdir(parents=True, exist_ok=True)
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
        stamp.write_text(str(HERE))
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target.resolve() / "perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # Inherits stdout: the binary prints the final JSON line itself.
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
