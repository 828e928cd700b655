#!/usr/bin/env python3
"""Run one perfbench workload from the root of a craft source checkout.

    python3 perfbench/run.py --workload verify-mnist --seed 1 \
        --seconds 25 --trace 0

Builds the library, the `craft` CLI and the benchmark binary from source
(perfbench/CMakeLists.txt, build tree in $CARGO_TARGET_DIR or
.bench_build), generates the seed's inputs once (cached per seed under
the build tree), then runs the workload. The last line of standard output
is the JSON result; build logs go to standard error. Exits non-zero when
the sources are missing, the build fails, or a correctness gate fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("verify-mnist", "serve-mixed", "split-gmm")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_id(root):
    """The commit when the checkout is a git repository, else a digest of
    the library and CLI sources (a source export carries no .git)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build(root, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
               build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench",
           "craft_cli"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            log(f"{needed} not found: run from the root of a craft checkout")
            return 2

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(root, build_dir):
        log("build failed")
        return 2
    binary = os.path.join(build_dir, "perfbench")

    # Relative paths: model files named in spec texts resolve from the
    # checkout root, which is every process's working directory.
    build_rel = os.path.relpath(build_dir, root)
    inputs = os.path.join(build_rel, "inputs", args.workload,
                          f"seed-{args.seed}")
    gen = subprocess.run([binary, "gen", "--workload", args.workload,
                          "--seed", str(args.seed), "--inputs", inputs],
                         stdout=sys.stderr)
    if gen.returncode != 0:
        log("input generation failed")
        return 2

    work = os.path.join(build_rel, "runs",
                        f"{args.workload}-{args.seed}-trace{args.trace}")
    run = subprocess.run([binary, "run", "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace), "--inputs", inputs,
                          "--work", work, "--commit", source_id(root)])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
