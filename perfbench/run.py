#!/usr/bin/env python3
"""Design-query benchmark for Aved: build from source, then make one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (a cargo package of its own in this directory) and the
`aved` command-line tool in release mode, then makes one closed-loop run of
the named workload. The last line of standard output is the result object
described in perfbench/README.md. Build output goes to $CARGO_TARGET_DIR,
or to .bench_build at the repository root when that is unset.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path"]
    for manifest, extra in (
        ("perfbench/Cargo.toml", []),
        ("Cargo.toml", ["-p", "aved", "--bin", "aved"]),
    ):
        built = subprocess.run(build + [os.path.join(ROOT, manifest)] + extra, cwd=ROOT, env=env)
        if built.returncode != 0:
            print(f"run.py: building {manifest} failed", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = subprocess.run(
        [os.path.join(release, "perfbench"), "run", *sys.argv[1:],
         "--cli", os.path.join(release, "aved")],
        cwd=ROOT,
    )
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
