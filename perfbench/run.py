#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: dance_step, hw_exact, serve_mixed, campaign_grid.

The benchmark is the Rust package in perfbench/ (a cargo workspace of its
own that depends on crates/ by path). This script builds it in release mode
into $CARGO_TARGET_DIR (default: .bench_build), then runs it with a scratch
directory under .bench_build/ for run logs, campaign and server state; the
scratch directory is removed afterwards. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
Every result is stamped with the core count, DANCE_THREADS, `rustc -V` and
the source revision (the git commit, or a digest of the sources when the
tree is not a git checkout).
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

# What a checkout must contain for the benchmark to build.
REQUIRED = ["Cargo.toml", "Cargo.lock", "crates/core/Cargo.toml", "perfbench/Cargo.toml"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def revision(root):
    """The git commit when `root` is a git checkout, else a source digest."""
    if (root / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        if out.returncode == 0:
            return out.stdout.strip()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    files += sorted(root.glob("crates/*/Cargo.toml")) + sorted(root.glob("crates/*/src/**/*.rs"))
    files += sorted(root.glob("perfbench/src/*.rs"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        fail(f"run from the repository root; missing {', '.join(missing)}")

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"cargo build failed with exit code {build.returncode}")
    binary = target / "release" / "perfbench"
    if not binary.is_absolute():
        binary = root / binary

    scratch = root / ".bench_build" / f"perfbench-tmp-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env.update(
        PERFBENCH_TMP=str(scratch),
        DANCE_RUN_DIR=str(scratch / "runs"),
        TMPDIR=str(scratch),
        PERFBENCH_RUSTC=rustc_version(),
        PERFBENCH_REVISION=revision(root),
    )
    sys.stdout.flush()
    try:
        run = subprocess.run([str(binary)] + sys.argv[1:], env=env, stdin=subprocess.DEVNULL)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
