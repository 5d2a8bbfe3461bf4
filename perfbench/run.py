#!/usr/bin/env python3
"""Build the covirt benchmark from source and run one measurement.

Usage (from the repository root):

    python3 perfbench/run.py --workload <gups|memchurn|ipi_pingpong> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark crate (perfbench/) is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build under the repository root),
offline: every dependency is a path dependency inside the repository.
Build output goes to stderr. Stdout carries a provenance line, the
benchmark's notes and metric table, and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Sources whose content identifies the measured program when the
# checkout carries no git metadata.
SOURCE_DIRS = ("crates", "stubs", "perfbench")
SOURCE_FILES = ("Cargo.toml",)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no process outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(base, f) for f in files if f != "Cargo.lock"]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(args):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = capture(["git", "rev-parse", "HEAD"])
    return {
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "logical_cpus": os.cpu_count(),
        "rustc": capture(["rustc", "-V"]),
        "profile": "release",
        "commit": f"git:{commit}" if commit else f"tree:{source_digest()}",
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["gups", "memchurn", "ipi_pingpong"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    code = run_group(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        print(f"run.py: benchmark build failed ({code})", file=sys.stderr)
        return code or 1

    print("provenance: " + json.dumps(provenance(args)), flush=True)
    binary = os.path.join(target, "release", "perfbench")
    return run_group(
        [
            binary,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out", os.path.join(target, "perfbench"),
        ],
        RUN_TIMEOUT_S,
        cwd=ROOT,
    )


if __name__ == "__main__":
    sys.exit(main())
