#!/usr/bin/env python3
"""Builds the benchmark and the daemon from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <engine-shapes|campaign|serve-open> \
        --seed <n> --seconds <s> --trace <0|1>

Cargo builds into $CARGO_TARGET_DIR (default `.bench_build`); its output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. Run artifacts (daemon journals, span files) live
under `<target dir>/perfbench-run`. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    base = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    for extra in (["--bin", "perfbench"], ["-p", "consim-serve", "--bin", "consim-serve"]):
        built = subprocess.run(base + extra, env=env, stdout=sys.stderr, check=False)
        if built.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    # Flush what the build wrote, so its writeback does not land inside
    # the measured region.
    os.sync()
    release = os.path.join(target, "release")
    args = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--serve-bin",
        os.path.join(release, "consim-serve"),
        "--work-dir",
        os.path.join(target, "perfbench-run"),
    ]
    sys.stdout.flush()
    os.execv(args[0], args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
